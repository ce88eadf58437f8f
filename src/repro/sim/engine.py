"""Event loop, events and generator-based processes.

The design follows the classic DES structure: a scheduler of
``(time, seq, event)`` entries; an :class:`Event` fires its callbacks when
popped; a :class:`Process` wraps a generator whose ``yield``-ed events
decide when it resumes.  ``return value`` inside a process generator
becomes the process's :attr:`~Event.value`.

Two schedulers sit behind the same ``_schedule``/``step``/``peek``/``run``
API (selectable per :class:`Environment`, default ``"calendar"``):

* ``"calendar"`` — a calendar queue (Brown 1988) with a small binary heap
  over the *current* bucket-year only.  Enqueue of a future event is a
  plain list append into its bucket; dequeue pops the active heap and
  harvests the next bucket-year when it drains.  Bucket count and width
  recalibrate automatically as the queue grows and shrinks, so both the
  dense near-term band and the sparse far tail of a bimodal delay
  distribution stay O(1)-ish.
* ``"heap"`` — the flat ``heapq`` of the original kernel, kept as the
  oracle of the scheduler differential tests.

Same-tick FIFO is identical under both: entries carry a monotonically
increasing ``seq`` and compare ``(time, seq)``, so events scheduled for
the same instant fire in creation order.

The hot path is deliberately low-churn: ``Environment.timeout`` recycles
:class:`Timeout` objects through a free list (an event is returned to the
pool only when ``step`` can prove, by refcount, that nobody else holds
it); a process resuming on an already-processed event continues inline
instead of allocating a bridge event; and ``step`` has no observability
branch at all — ``run`` pre-binds it once per call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
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

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_granted")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
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

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
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
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """A running generator; also an event that triggers when it finishes."""

    __slots__ = ("_generator", "_target", "name")

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
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
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
                target.callbacks.remove(self._resume)
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
        # generator inline — no bridge event, no scheduler round-trip.
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
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._target = None
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
                self._target = None
                self.fail(exc)
                return
            if next_evt.callbacks is None:
                # Already processed: continue on the current tick.
                event = next_evt
                continue
            self._target = next_evt
            next_evt.callbacks.append(self._resume)
            env._active_process = None
            return

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

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
        return {e: e._value for e in self.events if e._processed and e._ok}

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered (fails fast on error)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when the first child event triggers."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Semaphore:
    """A counting semaphore over plain events: a k-slot FIFO station.

    The one contention primitive for slots — device queue depths, NIC
    channels, RPC worker pools, prefetch and ingest windows, bounded
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


# --------------------------------------------------------------------------
# Schedulers.  Both hold (time, seq, Event) entries and expose the same
# push/pop/peek_time surface; ``seq`` ties same-tick FIFO order to event
# creation order under either implementation.
# --------------------------------------------------------------------------


class _HeapQueue:
    """The flat binary heap of the original kernel (A/B baseline)."""

    __slots__ = ("_heap", "peak")

    name = "heap"

    def __init__(self, anchor: float = 0.0) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self.peak = 0

    def push(self, t: float, seq: int, event: Event) -> None:
        heap = self._heap
        heappush(heap, (t, seq, event))
        if len(heap) > self.peak:
            self.peak = len(heap)

    def pop(self) -> tuple[float, int, Event]:
        return heappop(self._heap)

    def peek_time(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else _INF

    def __len__(self) -> int:
        return len(self._heap)


class _CalendarQueue:
    """Calendar queue with a heap over the current bucket-year only.

    Every entry is classified by its integer *year* ``int(t / width)``;
    the same expression everywhere, so no entry can straddle a year
    boundary through float rounding.  Invariants:

    * every entry whose year is ``<= _year`` lives in ``_active`` (a
      small binary heap; same ``(time, seq)`` ordering as the flat
      heap);
    * every other entry lives in bucket ``year % nbuckets`` as an
      unsorted list — enqueue is an append, O(1).

    When ``_active`` drains, the next non-empty bucket-year is split out,
    heapified (timsort-grade C work on a handful of entries) and becomes
    the new active heap.  A full fruitless revolution falls back to a
    direct minimum search and jumps the calendar there, so sparse far
    tails cannot spin the harvest loop.  Bucket count doubles/halves with
    occupancy and the bucket width recalibrates from the observed
    inter-event gaps at every resize.
    """

    __slots__ = ("_buckets", "_nbuckets", "_mask", "_width", "_inv_width",
                 "_year", "_active", "_count", "_grow_at",
                 "_shrink_at", "peak")

    name = "calendar"

    #: Bucket-count bounds; growth doubles within, shrink halves within.
    MIN_BUCKETS = 64
    MAX_BUCKETS = 1 << 17

    def __init__(
        self, anchor: float = 0.0, nbuckets: int = 256, width: float = 1e-3
    ) -> None:
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets: list[list[tuple[float, int, Event]]] = [
            [] for _ in range(nbuckets)
        ]
        #: Current bucket-year: ``_active`` holds every entry with
        #: ``int(t * _inv_width) <= _year``.
        self._year = int(anchor * self._inv_width)
        self._active: list[tuple[float, int, Event]] = []
        self._count = 0
        self._grow_at = nbuckets * 4
        self._shrink_at = nbuckets // 4
        self.peak = 0

    def push(self, t: float, seq: int, event: Event) -> None:
        count = self._count + 1
        self._count = count
        if count > self.peak:
            self.peak = count
        year = int(t * self._inv_width)
        if year <= self._year:
            heappush(self._active, (t, seq, event))
        else:
            self._buckets[year & self._mask].append((t, seq, event))
        if count > self._grow_at and self._nbuckets < self.MAX_BUCKETS:
            nb = self._nbuckets
            while count > nb * 4 and nb < self.MAX_BUCKETS:
                nb <<= 1
            self._rebuild(nb)

    def pop(self) -> tuple[float, int, Event]:
        active = self._active
        if not active:
            if not self._count:
                raise IndexError("pop from empty calendar queue")
            self._advance()
            active = self._active
        count = self._count - 1
        self._count = count
        if count < self._shrink_at and self._nbuckets > self.MIN_BUCKETS:
            entry = heappop(active)
            nb = self._nbuckets
            while count < nb // 4 and nb > self.MIN_BUCKETS:
                nb >>= 1
            self._rebuild(nb)
            return entry
        return heappop(active)

    def peek_time(self) -> float:
        active = self._active
        if not active:
            if not self._count:
                return _INF
            self._advance()
            active = self._active
        return active[0][0]

    def __len__(self) -> int:
        return self._count

    # -- internals --------------------------------------------------------
    def _harvest(self, k: int) -> bool:
        """Split year ``k``'s entries out of its bucket into ``_active``;
        returns whether any were found."""
        inv = self._inv_width
        i = k & self._mask
        bucket = self._buckets[i]
        due = [e for e in bucket if int(e[0] * inv) == k]
        if not due:
            return False
        if len(due) == len(bucket):
            bucket.clear()
        else:
            self._buckets[i] = [e for e in bucket if int(e[0] * inv) != k]
        heapify(due)
        self._active = due
        self._year = k
        return True

    def _advance(self) -> None:
        """Refill the active heap from the next non-empty bucket-year."""
        buckets = self._buckets
        mask = self._mask
        k = self._year
        for _ in range(self._nbuckets):
            k += 1
            if buckets[k & mask] and self._harvest(k):
                return
        # A full revolution found nothing due: the pending set is sparse
        # relative to the calendar span.  Jump straight to the earliest
        # entry's bucket-year.
        tmin = _INF
        for bucket in buckets:
            for e in bucket:
                if e[0] < tmin:
                    tmin = e[0]
        if tmin is _INF:
            raise IndexError("pop from empty calendar queue")
        self._harvest(int(tmin * self._inv_width))

    def _calibrate_width(
        self, entries: list[tuple[float, int, Event]]
    ) -> float:
        """Bucket width from observed inter-event gaps (Brown's rule,
        de-biased for stride sampling, targeting a handful of entries
        per bucket-year)."""
        n = len(entries)
        if n < 8:
            return self._width
        stride = max(1, n // 64)
        sample = sorted(entries[i][0] for i in range(0, n, stride))
        gaps = [b - a for a, b in zip(sample, sample[1:]) if b > a]
        if not gaps:
            return self._width
        gaps.sort()
        median = gaps[len(gaps) // 2] / stride
        return max(median * 8.0, 1e-9)

    def _rebuild(self, nbuckets: int) -> None:
        entries = self._active
        for bucket in self._buckets:
            if bucket:
                entries.extend(bucket)
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._grow_at = nbuckets * 4
        self._shrink_at = nbuckets // 4
        buckets: list[list[tuple[float, int, Event]]] = [
            [] for _ in range(nbuckets)
        ]
        self._buckets = buckets
        if not entries:
            # Keep the year (width is unchanged with nothing to sample);
            # the next push or advance re-anchors naturally.
            self._active = []
            return
        width = self._calibrate_width(entries)
        self._width = width
        inv = 1.0 / width
        self._inv_width = inv
        tmin = min(e[0] for e in entries)
        k = int(tmin * inv)
        self._year = k
        mask = self._mask
        active: list[tuple[float, int, Event]] = []
        append = active.append
        for e in entries:
            if int(e[0] * inv) <= k:
                append(e)
            else:
                buckets[int(e[0] * inv) & mask].append(e)
        heapify(active)
        self._active = active


_SCHEDULERS = {"calendar": _CalendarQueue, "heap": _HeapQueue}

#: Free-list bound: recycled Timeout events kept per environment.
_TIMEOUT_POOL_MAX = 4096


@dataclass(slots=True)
class EngineStats(Counters):
    """Kernel throughput snapshot; ``events_per_sec`` is derived."""

    scheduler: str
    sim_events: int
    run_wall_s: float
    events_per_sec: float = field(init=False)
    peak_occupancy: int

    def __post_init__(self) -> None:
        wall = self.run_wall_s
        self.events_per_sec = self.sim_events / wall if wall > 0 else 0.0


#: The tally ``repro.bench.harness.timer`` has open — [scheduler names,
#: events, run wall seconds, queue peak] over every
#: :meth:`Environment.run` call since — or ``None`` (nobody is counting).
_run_tally: Optional[list] = None


def tally_runs(counting: bool) -> Optional[EngineStats]:
    """Open a fresh tally (``True``) or stop counting (``False``); returns
    what the one open until now counted (``None``: no environment ran)."""
    global _run_tally
    tally, _run_tally = _run_tally, [set(), 0, 0.0, 0] if counting else None
    if tally is None or not tally[1]:
        return None
    return EngineStats("+".join(sorted(tally[0])), *tally[1:])


class Environment:
    """The simulation kernel: clock + scheduler + process registry.

    ``scheduler`` picks the queue implementation (``"calendar"`` or
    ``"heap"``).
    """

    def __init__(
        self, initial_time: float = 0.0, scheduler: str = "calendar"
    ) -> None:
        self._now = float(initial_time)
        self._seq = 0
        self._nevents = 0
        self._run_wall = 0.0
        self._active_process: Optional[Process] = None
        try:
            queue_cls = _SCHEDULERS[scheduler]
        except KeyError:
            raise SimulationError(
                f"unknown scheduler {scheduler!r} "
                f"(expected one of {sorted(_SCHEDULERS)})"
            ) from None
        q = queue_cls(anchor=self._now)
        self._q = q
        self._qpush = q.push
        self._qpop = q.pop
        self._qpeek = q.peek_time
        #: Which scheduler implementation this kernel runs on.
        self.scheduler: str = q.name
        self._tpool: list[Timeout] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._qpush(self._now + delay, seq, event)

    # -- public factories -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` from the free list (allocates only when the
        pool is dry)."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        pool = self._tpool
        if pool:
            evt = pool.pop()
        else:
            evt = Timeout.__new__(Timeout)
            evt.env = self
            evt._ok = True
        evt.callbacks = []
        evt._value = value
        evt._processed = False
        evt.delay = delay
        seq = self._seq
        self._seq = seq + 1
        self._qpush(self._now + delay, seq, evt)
        return evt

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event."""
        try:
            t, _, event = self._qpop()
        except IndexError:
            raise DeadlockError("event queue is empty") from None
        if t < self._now:
            raise SimulationError("scheduled time is in the past")
        self._now = t
        self._nevents += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for cb in callbacks:
            cb(event)
        # Recycle delivered timeouts nobody else holds: the only live
        # references are our local and getrefcount's argument.
        if event.__class__ is Timeout and getrefcount(event) == 2:
            pool = self._tpool
            if len(pool) < _TIMEOUT_POOL_MAX:
                event._value = None
                pool.append(event)

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none."""
        return self._qpeek()

    def engine_stats(self) -> EngineStats:
        """Throughput counters for this kernel (events processed, wall
        seconds inside :meth:`run`, peak scheduler occupancy)."""
        return EngineStats(
            scheduler=self.scheduler,
            sim_events=self._nevents,
            run_wall_s=self._run_wall,
            peak_occupancy=self._q.peak,
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
            step = self.step
            if until is None:
                pending = self._q.__len__
                while pending():
                    step()
                return None
            if isinstance(until, Event):
                sentinel = until
                pending = self._q.__len__
                while not sentinel.triggered:
                    if not pending():
                        raise DeadlockError(
                            f"simulation ran dry before {sentinel!r} triggered"
                        )
                    step()
                if sentinel._ok:
                    return sentinel._value
                raise sentinel._value
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self._now})"
                )
            peek = self._qpeek
            # Re-check the queue head after *every* step: a callback in
            # the final step may schedule new work at exactly the
            # deadline, and it must still run before the clock pins.
            while peek() <= deadline:
                step()
            self._now = deadline
            return None
        finally:
            wall = perf_counter() - t0
            self._run_wall += wall
            tally = _run_tally
            if tally is not None:
                tally[0].add(self.scheduler)
                tally[1] += self._nevents - n0
                tally[2] += wall
                tally[3] = max(tally[3], self._q.peak)


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
