"""Event loop, events and generator-based processes.

The design follows the classic DES structure: one binary heap
(``heapq``) of ``(time, seq, event)`` entries; an :class:`Event` fires
its callbacks when popped; a :class:`Process` wraps a generator whose
``yield``-ed events decide when it resumes.  ``return value`` inside a
process generator becomes the process's :attr:`~Event.value`.

Entries carry a monotonically increasing ``seq`` and compare
``(time, seq)``, so events scheduled for the same instant fire in
creation order (same-tick FIFO).

Delivery is one loop, ``Environment._deliver``: pop the heap's head,
advance the clock to it, run its callbacks, recycle it if it is a free
timeout.  :meth:`Environment.run` runs that loop itself in each of its
three modes — until the queue drains, until an event triggers, until a
deadline — and :meth:`Environment.step` runs it for one event, so no
event costs a call of its own.

The hot path is deliberately low-churn: ``Environment.timeout`` recycles
:class:`Timeout` objects through a free list (an event is returned to the
pool only when the loop can prove, by refcount, that nobody else holds
it); a process resuming on an already-processed event continues inline
instead of allocating a bridge event, and parks with the one bound
``_resume`` it made at its start; and the loop has no observability
branch at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from sys import getrefcount
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, InterruptError, SimulationError
from repro.obs.counters import Counters

_PENDING = object()
_INF = float("inf")


class Event:
    """A one-shot occurrence at a point in simulated time.

    Life cycle: *pending* → *triggered* (``succeed``/``fail`` called and the
    event scheduled) → *processed* (callbacks ran).  Callbacks receive the
    event itself.

    The ``_granted`` slot is :class:`Semaphore` bookkeeping: it marks a
    held slot on the event itself so granting/releasing never mutates a
    shared holder set on the common path.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_granted")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: ``None`` once the loop has delivered the event (*processed*).
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """Whether ``succeed`` or ``fail`` was called (it may not have
        been delivered yet)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded; raises before it is triggered."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or the failure's exception; raises before
        the event is triggered."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; schedules callback delivery now."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        """The class and its state: pending, ok or failed."""
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Prefer :meth:`Environment.timeout`, which recycles instances through
    the environment's free list; constructing ``Timeout`` directly always
    allocates.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env._schedule(self, delay)


class _Initialize(Event):
    """Internal: kicks a new process on the current tick."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._wake)
        env._schedule(self)


class Process(Event):
    """A running generator; also an event that triggers when it finishes."""

    __slots__ = ("_generator", "_target", "name", "_wake")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: ``_resume`` bound once: the callback every park appends.
        #: Dropped when the process ends, so a finished process holds
        #: no cycle through it.
        self._wake = self._resume
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not finished yet."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self.env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_evt = Event(self.env)
        interrupt_evt.callbacks.append(self._deliver_interrupt)
        interrupt_evt.fail(InterruptError(cause))

    def _deliver_interrupt(self, event: Event) -> None:
        # Delivery happens a tick step after interrupt() was called, so
        # the process may have started (acquiring a wait target) or even
        # finished in between.  Detach *now*, not at interrupt() time.
        if not self.is_alive:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        env._active_process = self
        # Trampoline: yielding an already-processed event (a finished
        # process, a triggered timeout held from earlier) resumes the
        # generator inline — no bridge event, no event-heap round-trip.
        while True:
            try:
                if event._ok:
                    next_evt = generator.send(event._value)
                else:
                    # Failed event: raise inside the generator.  If it
                    # propagates out of the generator, it fails this
                    # process instead.
                    next_evt = generator.throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                self._target = self._wake = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._target = self._wake = None
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            if not isinstance(next_evt, Event):
                env._active_process = None
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_evt!r}"
                )
                generator.close()
                self._target = self._wake = None
                self.fail(exc)
                return
            if next_evt.callbacks is None:
                # Already processed: continue on the current tick.
                event = next_evt
                continue
            self._target = next_evt
            next_evt.callbacks.append(self._wake)
            env._active_process = None
            return

    def __repr__(self) -> str:
        """The process's name and whether it is alive."""
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class AllOf(Event):
    """Triggers when every child event has been delivered (fails fast on
    error); its value maps each child to its value."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        for evt in self.events:
            if evt.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        for evt in self.events:
            if evt.callbacks is None:
                self._on_child(evt)
                if self.triggered:
                    break
            else:
                evt.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count: a Timeout carries its value from
        # creation, but it has not "happened" until the loop delivers it.
        return {e: e._value for e in self.events
                if e.callbacks is None and e._ok}

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Semaphore:
    """A counting semaphore over plain events: a k-slot FIFO station.

    The one contention primitive for slots — device queue depths, NIC
    channels, RPC worker pools, ingest windows, bounded
    fan-out.  ``acquire()`` returns an event that fires once one of
    ``capacity`` slots is granted; ``release(evt)`` frees the slot and
    grants the next non-withdrawn waiter in FIFO order.  ``abandon(evt)``
    gives a slot request up whatever its state — releases if granted,
    withdraws if still queued — the safe cleanup when the acquiring
    process is interrupted at its ``yield`` (it cannot know whether the
    grant raced the interrupt).  ``use(duration)`` is acquire, hold,
    release.  ``high_water`` records the most slots ever held at once,
    the observable proof that overlap actually happened.

    Slot accounting is a plain held-count plus a per-event grant flag
    (``Event._granted``); the grant/release common path never mutates a
    shared holder set.  Withdrawn-but-queued entries are compacted away
    once they outnumber live waiters, so a semaphore that is never
    released again cannot pin abandoned events forever.
    """

    __slots__ = ("env", "capacity", "_held", "_queue", "_withdrawn",
                 "high_water")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(
                f"semaphore capacity must be >= 1, got {capacity}"
            )
        self.env = env
        self.capacity = capacity
        self._held = 0
        self._queue: deque[Event] = deque()
        self._withdrawn: set[Event] = set()
        self.high_water = 0

    @property
    def in_flight(self) -> int:
        """Slots currently held."""
        return self._held

    @property
    def queue_length(self) -> int:
        """Requests waiting, withdrawn-but-not-yet-compacted included."""
        return len(self._queue)

    def acquire(self) -> Event:
        """Event that fires once a slot is held (immediately if free)."""
        evt = Event(self.env)
        held = self._held
        if held < self.capacity:
            held += 1
            self._held = held
            if held > self.high_water:
                self.high_water = held
            evt._granted = True
            evt.succeed()
        else:
            self._queue.append(evt)
        return evt

    def release(self, evt: Event) -> None:
        """Free the slot ``evt`` holds, handing it straight to the next
        waiter still queued; raises if ``evt`` holds none."""
        if not getattr(evt, "_granted", False):
            raise SimulationError("releasing a slot that is not held")
        evt._granted = False
        queue = self._queue
        withdrawn = self._withdrawn
        while queue:
            nxt = queue.popleft()
            if withdrawn and nxt in withdrawn:
                withdrawn.discard(nxt)
                continue
            # Hand the slot straight over: held count is unchanged.
            nxt._granted = True
            nxt.succeed()
            return
        self._held -= 1

    def abandon(self, evt: Event) -> None:
        """Give a slot request up whatever its state."""
        if getattr(evt, "_granted", False):
            self.release(evt)
        else:
            self._withdrawn.add(evt)
            # A withdrawn entry stays in _queue until a release walks past
            # it; if the semaphore is never released again that pins the
            # event forever.  Compact once withdrawals dominate.
            if len(self._withdrawn) * 2 > len(self._queue):
                self._compact()

    def _compact(self) -> None:
        withdrawn = self._withdrawn
        self._queue = deque(e for e in self._queue if e not in withdrawn)
        withdrawn.clear()

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire one slot, hold it for ``duration``, release it."""
        slot = self.acquire()
        try:
            yield slot
        except BaseException:
            self.abandon(slot)
            raise
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(slot)


def fan_out(
    env: "Environment",
    gens: Iterable[Generator[Event, Any, Any]],
    limit: int,
    name: str = "fan_out",
    watermark: Optional[Callable[[int], None]] = None,
) -> Generator[Event, Any, list]:
    """Scatter-gather: run generators concurrently, at most ``limit`` at once.

    A generator function — drive it with ``yield from``.  Each of
    ``gens`` runs as its own process once a :class:`Semaphore` slot
    frees up, so at most ``limit`` are active at any simulated instant;
    returns their return values in input order.  The first failure
    interrupts every still-running worker (queued slot requests are
    withdrawn, so no slot leaks) and then propagates.  Interrupting the
    *calling* process mid-gather cancels the whole fan-out the same way.

    ``watermark``, if given, is called with the number of concurrently
    held slots as each worker starts — the hook callers use to record
    in-flight high-water marks into their stats.
    """
    gens = list(gens)
    if limit < 1:
        raise SimulationError(f"fan_out limit must be >= 1, got {limit}")
    results: list[Any] = [None] * len(gens)
    if not gens:
        return results
    sem = Semaphore(env, limit)

    def worker(index: int, gen: Generator[Event, Any, Any]):
        slot = sem.acquire()
        try:
            yield slot
        except BaseException:
            sem.abandon(slot)
            gen.close()
            raise
        if watermark is not None:
            watermark(sem.in_flight)
        try:
            results[index] = yield from gen
        finally:
            sem.release(slot)

    procs = [
        env.process(worker(i, gen), name=f"{name}[{i}]")
        for i, gen in enumerate(gens)
    ]
    try:
        yield AllOf(env, procs)
    except BaseException:
        for proc in procs:
            if proc.is_alive:
                proc.interrupt("fan_out aborted")
        raise
    return results


#: Free-list bound: recycled Timeout events kept per environment.
_TIMEOUT_POOL_MAX = 4096


class _Never:
    """The ``until`` of a delivery loop that no event stops: its value
    stays pending."""

    __slots__ = ()
    _value = _PENDING


_NEVER = _Never()


@dataclass(slots=True)
class EngineStats(Counters):
    """Kernel throughput snapshot; ``events_per_sec`` is derived."""

    sim_events: int
    run_wall_s: float
    events_per_sec: float = field(init=False)
    peak_occupancy: int

    def __post_init__(self) -> None:
        """Derive ``events_per_sec`` (0 when no wall time was spent)."""
        wall = self.run_wall_s
        self.events_per_sec = self.sim_events / wall if wall > 0 else 0.0


#: The tally ``repro.bench.harness.timer`` has open — [events, run wall
#: seconds, queue peak] over every :meth:`Environment.run` call since —
#: or ``None`` (nobody is counting).
_run_tally: Optional[list] = None


def tally_runs(counting: bool) -> Optional[EngineStats]:
    """Open a fresh tally (``True``) or stop counting (``False``); returns
    what the one open until now counted (``None``: no environment ran)."""
    global _run_tally
    tally, _run_tally = _run_tally, [0, 0.0, 0] if counting else None
    if tally is None or not tally[0]:
        return None
    return EngineStats(*tally)


class Environment:
    """The simulation kernel: clock + event heap + process registry."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._seq = 0
        self._nevents = 0
        self._run_wall = 0.0
        self._active_process: Optional[Process] = None
        self._heap: list[tuple[float, int, Event]] = []
        #: Most entries ever queued at once.
        self._peak = 0
        self._tpool: list[Timeout] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process whose generator is running now, if any."""
        return self._active_process

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (self._now + delay, seq, event))
        if len(heap) > self._peak:
            self._peak = len(heap)

    # -- public factories -------------------------------------------------
    def event(self) -> Event:
        """A new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` from the free list (allocates only when the
        pool is dry)."""
        pool = self._tpool
        if not pool:
            return Timeout(self, delay, value)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        evt = pool.pop()
        evt.callbacks = []
        evt._value = value
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (self._now + delay, seq, evt))
        if len(heap) > self._peak:
            self._peak = len(heap)
        return evt

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start ``generator`` as a :class:`Process` on the current tick."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An :class:`AllOf` over ``events``."""
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------
    def _deliver(self, until: Any, deadline: float, once: bool = False) -> None:
        """The delivery loop: deliver the heap's head, in ``(time, seq)``
        order, while the queue holds one due by ``deadline`` and
        ``until`` has not triggered — one event only when ``once``.

        The head is re-read after *every* event: a callback may schedule
        new work at exactly the deadline, and it must still run.
        """
        heap = self._heap
        pool = self._tpool
        n = 0
        try:
            while heap and until._value is _PENDING and heap[0][0] <= deadline:
                t, _, event = heappop(heap)
                if t < self._now:
                    raise SimulationError("scheduled time is in the past")
                self._now = t
                n += 1
                callbacks = event.callbacks
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                # Recycle delivered timeouts nobody else holds: the only
                # live references are our local and getrefcount's argument.
                if (event.__class__ is Timeout and getrefcount(event) == 2
                        and len(pool) < _TIMEOUT_POOL_MAX):
                    event._value = None
                    pool.append(event)
                if once:
                    break
        finally:
            self._nevents += n

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise DeadlockError("event queue is empty")
        self._deliver(_NEVER, _INF, once=True)

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def engine_stats(self) -> EngineStats:
        """Throughput counters for this kernel (events processed, wall
        seconds inside :meth:`run`, peak event-heap occupancy)."""
        return EngineStats(
            sim_events=self._nevents,
            run_wall_s=self._run_wall,
            peak_occupancy=self._peak,
        )

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the loop.

        * ``until=None``: run until the queue drains; returns ``None``.
        * numeric ``until``: run until simulated time reaches it.
        * ``until=event``: run until the event triggers; returns/raises the
          event's value.  Raises :class:`DeadlockError` if the queue drains
          first.
        """
        t0 = perf_counter()
        n0 = self._nevents
        try:
            if until is None:
                self._deliver(_NEVER, _INF)
                return None
            if isinstance(until, Event):
                self._deliver(until, _INF)
                if until._value is _PENDING:
                    raise DeadlockError(
                        f"simulation ran dry before {until!r} triggered"
                    )
                if until._ok:
                    return until._value
                raise until._value
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self._now})"
                )
            self._deliver(_NEVER, deadline)
            if deadline == _INF:  # never reached: the queue ran dry first
                raise DeadlockError("event queue is empty")
            self._now = deadline
            return None
        finally:
            wall = perf_counter() - t0
            self._run_wall += wall
            tally = _run_tally
            if tally is not None:
                tally[0] += self._nevents - n0
                tally[1] += wall
                tally[2] = max(tally[2], self._peak)


def run_sync(
    env: Environment, generator: Generator[Event, Any, Any], name: str = ""
) -> Any:
    """Run ``generator`` as a process to completion and return its value.

    Convenience for tests and for the synchronous client facade: drives
    the environment until the process finishes (other concurrently
    scheduled processes advance too).
    """
    proc = env.process(generator, name=name)
    return env.run(until=proc)
