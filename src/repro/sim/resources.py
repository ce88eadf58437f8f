"""Contention primitives beside the engine's Semaphore: Container, Store,
Residency.

A :class:`Container` tracks a divisible quantity (memory bytes); a
:class:`Store` is a FIFO queue of Python objects (mailboxes, request
queues); a :class:`Residency` is what every cache tier keeps resident.
The k-slot FIFO station (device queue depths, worker pools) is
:class:`repro.sim.engine.Semaphore`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event


class Container:
    """A divisible quantity with blocking get/put (e.g. bytes of memory)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise SimulationError("container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("initial level must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._putters: Deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """The quantity held right now."""
        return self._level

    def get(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been withdrawn."""
        if amount < 0:
            raise SimulationError("get amount must be non-negative")
        evt = Event(self.env)
        self._getters.append((evt, amount))
        self._settle()
        return evt

    def put(self, amount: float) -> Event:
        """Event that fires once ``amount`` has been deposited."""
        if amount < 0:
            raise SimulationError("put amount must be non-negative")
        if amount > self.capacity:
            raise SimulationError("put amount exceeds container capacity")
        evt = Event(self.env)
        self._putters.append((evt, amount))
        self._settle()
        return evt

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                evt, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    evt.succeed()
                    progress = True
            if self._getters:
                evt, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    evt.succeed()
                    progress = True


class Store:
    """A FIFO queue of items with blocking get and optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity < 1:
            raise SimulationError("store capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is queued (at once below capacity)."""
        evt = Event(self.env)
        self._putters.append((evt, item))
        self._settle()
        return evt

    def get(self) -> Event:
        """Event whose value is the oldest item, once there is one."""
        evt = Event(self.env)
        self._getters.append(evt)
        self._settle()
        return evt

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self._items) < self.capacity:
                evt, item = self._putters.popleft()
                self._items.append(item)
                evt.succeed()
                progress = True
            while self._getters and self._items:
                evt = self._getters.popleft()
                evt.succeed(self._items.popleft())
                progress = True


class Residency:
    """What a cache tier keeps resident: one keyed map, one byte book,
    one single-flight map.

    ``entries`` maps a key to ``(value, nbytes)``, least recently used
    first, and ``bytes`` is always Σ ``nbytes``.  The tier brings its
    budget and rules: :meth:`victims` says what to free, sparing what
    the tier protects.  ``flights`` holds one fetch in progress per key
    (:meth:`claim` / :meth:`settle`); a waiter looks again on waking.
    A :class:`~repro.sim.engine.Process` may be a flight too: its
    starter registers and removes it, and its return wakes the waiters.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self.bytes = 0
        self.flights: Dict[str, Event] = {}

    def get(self, key: str) -> Optional[Tuple[Any, int]]:
        """``key``'s ``(value, nbytes)``, made most recently used."""
        item = self.entries.get(key)
        if item is not None:
            self.entries.move_to_end(key)
        return item

    def add(self, key: str, value: Any, nbytes: int) -> None:
        """Make ``key`` (not yet resident) the most recently used entry."""
        self.entries[key] = (value, nbytes)
        self.bytes += nbytes

    def pop(self, key: str) -> Optional[Tuple[Any, int]]:
        """Forget ``key``; its ``(value, nbytes)`` if it was resident."""
        item = self.entries.pop(key, None)
        if item is not None:
            self.bytes -= item[1]
        return item

    def clear(self) -> None:
        """Forget every entry; flights run on."""
        self.entries.clear()
        self.bytes = 0

    def victims(self, need: int, spare: Callable[[str], bool]) -> List[str]:
        """Least recently used keys ``spare`` leaves, until they cover
        ``need`` bytes (fewer when too little is unprotected)."""
        out: List[str] = []
        freed = 0
        for key, (_, nbytes) in self.entries.items():
            if freed >= need:
                break
            if not spare(key):
                out.append(key)
                freed += nbytes
        return out

    def claim(self, key: str) -> Optional[Event]:
        """Start ``key``'s flight: ``None`` once the caller holds it, else
        the running flight to wait on."""
        running = self.flights.get(key)
        if running is None:
            self.flights[key] = self.env.event()
        return running

    def settle(self, key: str) -> None:
        """End the caller's flight of ``key``, waking its waiters."""
        self.flights.pop(key).succeed()

    def ensure(
        self, key: str, fetch: Callable[[str], Generator[Event, Any, Any]]
    ) -> Generator[Event, Any, Any]:
        """``key``'s value, fetched once however many ask: ``fetch(key)``
        runs under the flight and makes ``key`` resident; a waiter wakes
        to a hit, or to an entry evicted meanwhile and fetches anew."""
        while True:
            item = self.get(key)
            if item is not None:
                return item[0]
            running = self.claim(key)
            if running is None:
                break
            yield running
        try:
            return (yield from fetch(key))
        finally:
            self.settle(key)
