"""The §4.3 chunk window and its plan-driven read-ahead, on one
:class:`~repro.sim.resources.Residency` of chunks.

* **Budget:** ``capacity()`` chunks: the shuffle group, plus ``depth``
  while a :class:`ChunkPrefetcher` runs — a working set of at most
  ``(group_size + depth) × chunk_size``.
* **Admission:** always; demand reads and read-ahead share one flight
  per chunk.
* **Protection:** chunks read ahead that the consumer has not reached
  (:meth:`ChunkPrefetcher.protects`); the oldest goes when all are.

The pipeline follows its plan as drawn.  A cache membership change does
not re-steer it: each fetch resolves against whoever owns the chunk
when it is issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.core.shuffle import EpochPlan
from repro.errors import DieselError, InterruptError
from repro.obs.counters import Counters, hwm
from repro.sim.engine import Environment, Event, Process
from repro.sim.resources import Residency

#: Serving one file out of a window-resident chunk: an in-memory
#: extraction, negligible but non-zero.
WINDOW_HIT_S = 2e-7


@dataclass(slots=True)
class WindowStats(Counters):
    """The counters a window moves, for owners without a ``ClientStats``."""

    #: Fetches the pipeline started.
    prefetch_issued: int = 0
    #: First accesses that found the chunk resident or in flight thanks
    #: to the pipeline.
    prefetch_hits: int = 0
    #: First accesses that had to demand-fetch: the pipeline was too far
    #: behind, or never scheduled the chunk in time.
    prefetch_misses: int = 0
    #: Prefetched chunks evicted or cancelled before any read.
    prefetch_wasted: int = 0
    #: Most fetches ever concurrently in flight.
    fetch_inflight_hwm: int = hwm()


class ChunkWindow:
    """A reader's resident chunks, LRU-bounded at the §4.3 working set.

    ``fetch(encoded_cid)`` is a generator returning whatever the owner
    keeps per chunk (never ``None``): :class:`~repro.core.client.DieselClient`
    fetches from a server or its task cache,
    :class:`~repro.dlt.readers.CacheReader` through
    :meth:`~repro.core.dist_cache.TaskCache.read_chunk`.  ``stats``
    takes the :class:`WindowStats` fields
    (:class:`~repro.core.client.ClientStats` carries them too).
    """

    def __init__(
        self,
        env: Environment,
        fetch: Callable[[str], Generator[Event, Any, Any]],
        group_size: int,
        stats: Any,
        name: str = "",
    ) -> None:
        self.env = env
        self._fetch = fetch
        self.group_size = group_size
        self.stats = stats
        self.name = name
        #: encoded cid -> (fetched value, 1): the budget counts chunks.
        self.chunks = Residency(env)
        self.prefetcher: Optional[ChunkPrefetcher] = None

    def capacity(self) -> int:
        """Chunk budget: the §4.3 bound, plus the pipeline's look-ahead
        while one is active."""
        pf = self.prefetcher
        return self.group_size + (
            pf.depth if pf is not None and pf.active else 0
        )

    def note_inflight(self, n: int) -> None:
        """Raise the ``fetch_inflight_hwm`` mark to ``n`` fetches."""
        if n > self.stats.fetch_inflight_hwm:
            self.stats.fetch_inflight_hwm = n

    def access(self, encoded: str) -> Any:
        """The consumer is about to read a file of chunk ``encoded``:
        scores the pipeline, refreshes recency; returns the resident
        value, or ``None`` when the caller has to :meth:`ensure` it."""
        chunks = self.chunks
        item = chunks.entries.get(encoded)
        pf = self.prefetcher
        if pf is not None and encoded in pf.unscored:
            pf.on_access(encoded, item is not None, encoded in chunks.flights)
        if item is None:
            return None
        chunks.entries.move_to_end(encoded)
        return item[0]

    def ensure(self, encoded: str) -> Generator[Event, Any, Any]:
        """Resolve one chunk into the window, one transfer however many
        demand reads and read-ahead fetches ask for it."""
        return self.chunks.ensure(encoded, self._load)

    def _load(self, encoded: str) -> Generator[Event, Any, Any]:
        chunks = self.chunks
        self.note_inflight(len(chunks.flights))
        value = yield from self._fetch(encoded)
        pf = self.prefetcher
        spare = pf.protects if pf is not None else (lambda key: False)
        while chunks.bytes >= self.capacity():
            victims = chunks.victims(1, spare)
            victim = victims[0] if victims else next(iter(chunks.entries))
            chunks.pop(victim)
            if pf is not None:
                pf.on_evict(victim)
        chunks.add(encoded, value, 1)
        return value

    def start(
        self, plan: EpochPlan, depth: int, recorder: Any = None,
        then: Optional[EpochPlan] = None,
    ) -> "ChunkPrefetcher":
        """(Re)start the read-ahead pipeline over ``plan``; ``recorder``
        receives its lead-time spans.  ``then`` is the plan expected
        next: the pipeline reads on into it, and a later ``start`` on
        that very plan keeps what was read instead of restarting."""
        pf = self.prefetcher
        if pf is None or not pf.active or pf.then is not plan:
            if pf is not None:
                pf.cancel()
            pf = self.prefetcher = ChunkPrefetcher(self, plan, depth)
        pf.recorder = recorder
        pf.roll(then)
        return pf

    def cancel(self) -> None:
        """Stop the pipeline, interrupt its in-flight fetches and drop
        the least recently used chunks past the idle budget."""
        if self.prefetcher is not None:
            self.prefetcher.cancel()
            self.prefetcher = None
            chunks = self.chunks
            while chunks.bytes > self.capacity():
                chunks.pop(next(iter(chunks.entries)))


def _chunk_order(plan: Optional[EpochPlan]) -> List[str]:
    """``plan``'s chunks, deduplicated keeping first occurrence: group
    after group, exactly the order the consumer drains them."""
    groups = plan.groups if plan is not None else ()
    return list(dict.fromkeys(c.encode() for g in groups for c in g.chunk_ids))


class ChunkPrefetcher:
    """Keeps the next ``depth`` chunks of an epoch plan fetched ahead.

    A new instance holds ``plan`` as its continuation; each
    :meth:`roll` serves the continuation and takes the plan that comes
    next as the new one.  :meth:`ChunkWindow.start` on any other plan
    replaces the instance, cancelling whatever it still had in flight.
    """

    def __init__(
        self, window: ChunkWindow, plan: EpochPlan, depth: int
    ) -> None:
        if depth < 1:
            raise DieselError("prefetch depth must be >= 1")
        self.window = window
        self.env = window.env
        self.depth = depth
        #: Receives the lead-time spans (set by :meth:`ChunkWindow.start`).
        self.recorder: Any = None
        #: Issue timestamps for the issue→consume lead-time histogram
        #: (only populated while a recorder is attached).
        self._issue_ts: Dict[str, float] = {}
        self._procs: Dict[str, Process] = {}
        #: False once cancelled.
        self.active = True
        # ``plan`` enters as a continuation nothing was read from yet.
        self.then, self._then_order = plan, _chunk_order(plan)
        self._ahead: Set[str] = set()
        self._ahead_n = 0
        self._outstanding: Set[str] = set()
        #: Planned chunks whose first access is not scored yet: the
        #: window calls :meth:`on_access` for these only.
        self.unscored: Set[str] = set()

    # ----------------------------------------------------------- pipeline
    def roll(self, then: Optional[EpochPlan]) -> None:
        """Serve the continuation: what was read of it becomes the
        epoch's issued-but-unconsumed chunks, and ``then`` the next one."""
        self._waste(len(self._outstanding - self._ahead))
        self._schedule = self._then_order
        self.unscored = set(self._schedule)
        self._next = self._ahead_n  # next schedule index to issue
        #: Issued but not yet consumed (bounds the pipeline window).
        self._outstanding = self._ahead
        self.then, self._then_order = then, _chunk_order(then)
        #: Continuation chunks issued and not evicted; ``_ahead_n`` of
        #: them were issued, a prefix of ``_then_order``.
        self._ahead = set()
        self._ahead_n = 0
        self._top_up()

    def _top_up(self) -> None:
        """Issue fetches while fewer than ``depth`` chunks are ahead of
        the consumer and fewer than the window's ``capacity()`` are in
        flight, demand fetches included."""
        window = self.window
        while (
            self.active
            and len(self._outstanding) + len(self._ahead) < self.depth
            and len(window.chunks.flights) < window.capacity()
        ):
            if self._next < len(self._schedule):
                encoded = self._schedule[self._next]
                self._next += 1
                if encoded not in self.unscored:
                    continue  # demand path beat us to it
                self._outstanding.add(encoded)
            elif self._ahead_n < len(self._then_order):
                # The epoch is issued in full: read on into the next.
                encoded = self._then_order[self._ahead_n]
                self._ahead_n += 1
                self._ahead.add(encoded)
            else:
                return
            window.stats.prefetch_issued += 1
            if self.recorder is not None:
                self._issue_ts[encoded] = self.env.now
            if encoded not in self._procs:  # else that fetch lands it
                self._procs[encoded] = self.env.process(
                    self._fetch(encoded), name=f"prefetch:{encoded[:8]}"
                )

    def _fetch(self, encoded: str) -> Generator[Event, Any, None]:
        try:
            yield from self.window.ensure(encoded)
        except InterruptError:
            return  # cancelled: single-flight cleanup already ran
        finally:
            self._procs.pop(encoded, None)
        self._top_up()  # a slot of the in-flight budget came free

    def protects(self, encoded: str) -> bool:
        """The window's protection rule: ``encoded`` was read ahead, for
        this epoch or the next, and the consumer has not reached it —
        plain LRU would evict exactly the chunks just paid for."""
        return self.active and (
            encoded in self._outstanding or encoded in self._ahead
        )

    # ------------------------------------------------------ window hooks
    def on_access(self, encoded: str, resident: bool, in_flight: bool) -> None:
        """Consumer is about to read a file of chunk ``encoded``, one of
        :attr:`unscored`: its first access in the plan.

        Called by :meth:`ChunkWindow.access` *before* the chunk is
        resolved, so ``resident``/``in_flight`` reflect what the
        pipeline achieved.  It scores the pipeline (hit vs miss) and
        frees one window slot.  Repeat and out-of-plan reads (e.g. a
        stray get()) and reads after :meth:`cancel` never get here.
        """
        self.unscored.discard(encoded)
        stats = self.window.stats
        if encoded in self._outstanding:
            self._outstanding.discard(encoded)
            rec = self.recorder
            if rec is not None:
                ts = self._issue_ts.pop(encoded, None)
                if ts is not None:
                    # Issue→consume lead: how far ahead of the consumer
                    # the pipeline ran for this chunk.
                    rec.record("prefetch", "lead", self.env.now - ts,
                               actor=self.window.name, chunk=encoded[:12],
                               hit=bool(resident or in_flight))
            if resident or in_flight:
                stats.prefetch_hits += 1
            else:
                # Issued but the fetch failed/was lost: the consumer
                # pays the full transfer after all.
                stats.prefetch_misses += 1
        elif not resident:
            # Scheduled but not yet issued: the consumer outran the
            # pipeline (depth too small for the compute/transfer ratio).
            stats.prefetch_misses += 1
        self._top_up()

    def on_evict(self, encoded: str) -> None:
        """A chunk fell out of the window before being consumed."""
        if encoded in self._outstanding or encoded in self._ahead:
            self._outstanding.discard(encoded)
            self._ahead.discard(encoded)
            self._issue_ts.pop(encoded, None)
            self._waste(1)
            self._top_up()

    def _waste(self, n: int) -> None:
        """``n`` chunks fetched ahead will never be read."""
        if n:
            self.window.stats.prefetch_wasted += n
            if self.recorder is not None:
                self.recorder.count("prefetch", "wasted", n)

    # ------------------------------------------------------------- cancel
    def cancel(self) -> None:
        """Stop the pipeline (idempotent).  Its fetches are interrupted —
        their flights end, and a demand read waiting on one fetches
        anew — and chunks issued but never consumed, the continuation's
        included, count as wasted."""
        if not self.active:
            return
        self.active = False
        for proc in list(self._procs.values()):
            if proc.is_alive:
                proc.interrupt("prefetch cancelled")
        self._procs.clear()
        self._waste(len(self._outstanding | self._ahead))
        self._outstanding.clear()
        self._ahead.clear()
        self._issue_ts.clear()
        self.unscored.clear()
