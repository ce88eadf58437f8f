"""Contention primitives beside the engine's Semaphore: Container, Store.

A :class:`Container` tracks a divisible quantity (memory bytes); a
:class:`Store` is a FIFO queue of Python objects (mailboxes, request
queues).  The k-slot FIFO station (device queue depths, worker pools) is
:class:`repro.sim.engine.Semaphore`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

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

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        evt = Event(self.env)
        self._putters.append((evt, item))
        self._settle()
        return evt

    def get(self) -> Event:
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
