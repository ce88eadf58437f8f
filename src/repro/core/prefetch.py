"""The §4.3 chunk window: bounded working set + plan-driven read-ahead.

The whole point of chunk-wise shuffle is that an epoch's reads become
*sequential chunk reads whose latency hides behind compute* (Figs 12/14).
The :class:`~repro.core.shuffle.EpochPlan` makes the future explicit: the
concatenated per-group chunk lists are exactly the order in which the
consumer will need chunks.  :class:`ChunkPrefetcher` walks that schedule
ahead of the consumer, keeping up to ``depth`` chunks fetched-but-not-yet
-consumed at all times, so by the time the training loop asks for a file
its chunk is (usually) already resident in the window — or at least
already in flight, so the consumer waits only for the *remaining* part of
the transfer.

:class:`ChunkWindow` is the one residency implementation behind every
plan-ordered reader, parameterised only by a ``fetch(encoded_cid)``
generator: :class:`~repro.core.client.DieselClient` fetches from a server
(or its task cache), :class:`~repro.dlt.readers.CacheReader` through
:meth:`~repro.core.dist_cache.TaskCache.read_chunk`.  Demand reads and
read-ahead share its single-flight map, so a chunk is never transferred
twice, whoever asks first.  The window may grow by ``depth`` entries
beyond ``group_size`` while a pipeline is active, which bounds the
working set at ``(group_size + depth) × chunk_size``.  A window moves
the :class:`WindowStats` fields, which
:class:`~repro.core.client.ClientStats` carries under the same names.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.core.shuffle import EpochPlan
from repro.errors import DieselError, InterruptError
from repro.obs.counters import Counters, hwm
from repro.sim.engine import Environment, Event, Process, Semaphore

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
    keeps per chunk (never ``None``); ``node_name`` is where the reader
    runs — :meth:`ChunkPrefetcher.repin` drops chunks that moved there.
    """

    def __init__(
        self,
        env: Environment,
        fetch: Callable[[str], Generator[Event, Any, Any]],
        group_size: int,
        stats: Any,
        name: str = "",
        node_name: str = "",
    ) -> None:
        self.env = env
        self._fetch = fetch
        self.group_size = group_size
        self.stats = stats
        self.name = name
        self.node_name = node_name
        #: encoded cid -> fetched value, least recently used first.
        self.resident: "OrderedDict[str, Any]" = OrderedDict()
        #: In-flight fetches (single-flight): encoded cid -> Event.
        #: Shared by demand reads and the read-ahead pipeline.
        self.inflight: Dict[str, Event] = {}
        self.prefetcher: Optional[ChunkPrefetcher] = None

    def capacity(self) -> int:
        """Chunk budget: the §4.3 bound, plus the pipeline's look-ahead
        while one is active."""
        pf = self.prefetcher
        return self.group_size + (
            pf.depth if pf is not None and pf.active else 0
        )

    def note_inflight(self, n: int) -> None:
        if n > self.stats.fetch_inflight_hwm:
            self.stats.fetch_inflight_hwm = n

    def access(self, encoded: str) -> Any:
        """The consumer is about to read a file of chunk ``encoded``:
        scores the pipeline, refreshes recency; returns the resident
        value, or ``None`` when the caller has to :meth:`ensure` it."""
        value = self.resident.get(encoded)
        if self.prefetcher is not None:
            self.prefetcher.on_access(
                encoded, value is not None, encoded in self.inflight
            )
        if value is not None:
            self.resident.move_to_end(encoded)
        return value

    def ensure(self, encoded: str) -> Generator[Event, Any, Any]:
        """Resolve one chunk into the window (single-flight).

        Used by both demand reads and the read-ahead pipeline.  If
        another fetch of the same chunk is in flight, waits for it
        instead of duplicating the transfer; if the chunk was evicted
        while waiting, loops and re-fetches.
        """
        while True:
            value = self.resident.get(encoded)
            if value is not None:
                self.resident.move_to_end(encoded)
                return value
            pending = self.inflight.get(encoded)
            if pending is not None:
                yield pending
                continue  # re-check: hit, or evicted-while-waiting
            done = self.env.event()
            self.inflight[encoded] = done
            self.note_inflight(len(self.inflight))
            try:
                value = yield from self._fetch(encoded)
                self._admit(encoded, value)
            finally:
                del self.inflight[encoded]
                done.succeed()
            return value

    def _admit(self, encoded: str, value: Any) -> None:
        pf = self.prefetcher
        while len(self.resident) >= self.capacity():
            # LRU, but skip chunks the pipeline fetched ahead and the
            # consumer has not reached yet (evicting those would waste
            # the transfer and force a duplicate fetch).
            victim = next(
                (
                    key for key in self.resident
                    if pf is None or not pf.protects(key)
                ),
                next(iter(self.resident)),
            )
            del self.resident[victim]
            if pf is not None:
                pf.on_evict(victim)
        self.resident[encoded] = value

    def start(
        self, plan: EpochPlan, depth: int, recorder: Any = None
    ) -> "ChunkPrefetcher":
        """(Re)start the read-ahead pipeline over ``plan``; ``recorder``
        receives its lead-time spans."""
        self.cancel()
        self.prefetcher = ChunkPrefetcher(self, plan, depth, recorder)
        return self.prefetcher

    def cancel(self) -> None:
        """Stop the pipeline and interrupt its in-flight fetches."""
        if self.prefetcher is not None:
            self.prefetcher.cancel()
            self.prefetcher = None


class ChunkPrefetcher:
    """Keeps the next ``depth`` chunks of an epoch plan in flight.

    One instance serves one epoch plan; :meth:`ChunkWindow.start`
    replaces the previous instance (cancelling whatever it still had in
    flight) whenever a new plan is generated.
    """

    def __init__(
        self,
        window: ChunkWindow,
        plan: EpochPlan,
        depth: int,
        recorder: Any = None,
    ) -> None:
        if depth < 1:
            raise DieselError("prefetch depth must be >= 1")
        self.window = window
        self.env = window.env
        self.depth = depth
        self.recorder = recorder
        # The future chunk order, deduplicated keeping first occurrence:
        # group after group, exactly the order the consumer drains them.
        order: List[str] = []
        seen: Set[str] = set()
        for group in plan.groups:
            for cid in group.chunk_ids:
                encoded = cid.encode()
                if encoded not in seen:
                    seen.add(encoded)
                    order.append(encoded)
        self._schedule = order
        self._scheduled = seen
        self._next = 0  # next schedule index to issue
        #: Issue timestamps for the issue→consume lead-time histogram
        #: (only populated while a recorder is attached).
        self._issue_ts: Dict[str, float] = {}
        #: Issued but not yet consumed (bounds the pipeline window).
        self._outstanding: Set[str] = set()
        self._consumed: Set[str] = set()
        self._procs: Dict[str, Process] = {}
        #: Caps concurrent *transfers* at ``depth``.  The window can
        #: issue a replacement fetch while a consumed chunk's transfer
        #: is still finishing, so without this the pipeline could
        #: briefly exceed depth-K concurrency.
        self._sem = Semaphore(window.env, depth)
        self._active = True
        #: Elastic-membership steering (see :meth:`repin`).
        self.repins = 0
        self.repin_skipped = 0
        self._top_up()

    # ------------------------------------------------------------- status
    @property
    def active(self) -> bool:
        return self._active

    @property
    def in_flight(self) -> int:
        """Prefetch fetch processes currently running."""
        return len(self._procs)

    # ----------------------------------------------------------- pipeline
    def _top_up(self) -> None:
        """Issue fetches until ``depth`` chunks are ahead of the consumer."""
        while (
            self._active
            and len(self._outstanding) < self.depth
            and self._next < len(self._schedule)
        ):
            encoded = self._schedule[self._next]
            self._next += 1
            if encoded in self._consumed:
                continue  # demand path beat us to it
            self._outstanding.add(encoded)
            self.window.stats.prefetch_issued += 1
            if self.recorder is not None:
                self._issue_ts[encoded] = self.env.now
            self._procs[encoded] = self.env.process(
                self._fetch(encoded), name=f"prefetch:{encoded[:8]}"
            )

    def _fetch(self, encoded: str) -> Generator[Event, Any, None]:
        slot = self._sem.acquire()
        try:
            if not slot.triggered:
                yield slot
        except InterruptError:
            # Interrupted while queued (or racing the grant): give the
            # request up without ever holding a slot.
            self._sem.abandon(slot)
            self._procs.pop(encoded, None)
            return
        self.window.note_inflight(self._sem.in_flight)
        try:
            yield from self.window.ensure(encoded)
        except InterruptError:
            return  # cancelled: single-flight cleanup already ran
        finally:
            self._sem.release(slot)
            self._procs.pop(encoded, None)

    def repin(self, owner_of) -> int:
        """Drop not-yet-issued schedule entries that became node-local.

        After an elastic scale event moves chunk ownership, chunks the
        schedule planned to pull over the network may now live on the
        reader's own node — their demand read is already an intra-node
        memory copy, so spending a pipeline slot (and a transfer window)
        prefetching them is pure waste.  Issued and in-flight fetches
        are left alone; skipped chunks are unscheduled, so a later
        demand read neither scores a miss nor holds a window slot.
        ``owner_of`` maps an encoded chunk id to its owner node name.
        Returns how many entries were skipped.
        """
        if not self._active or self._next >= len(self._schedule):
            return 0
        local = self.window.node_name
        keep: List[str] = []
        skipped = 0
        for encoded in self._schedule[self._next:]:
            if encoded not in self._consumed and owner_of(encoded) == local:
                self._scheduled.discard(encoded)
                skipped += 1
            else:
                keep.append(encoded)
        if skipped:
            del self._schedule[self._next:]
            self._schedule.extend(keep)
            self.repin_skipped += skipped
        self.repins += 1
        return skipped

    def protects(self, encoded: str) -> bool:
        """True while ``encoded`` is prefetched-ahead but not yet consumed.

        The window's eviction loop skips protected chunks: a prefetched
        chunk sits at its insertion position in the LRU order while the
        consumer keeps refreshing the current group's chunks, so plain
        LRU would evict exactly the chunks the pipeline just paid to
        transfer — turning each prefetch into a wasted+duplicate read.
        """
        return self._active and encoded in self._outstanding

    # ------------------------------------------------------ window hooks
    def on_access(self, encoded: str, resident: bool, in_flight: bool) -> None:
        """Consumer is about to read a file of chunk ``encoded``.

        Called by :meth:`ChunkWindow.access` *before* the chunk is
        resolved, so ``resident``/``in_flight`` reflect what the
        pipeline achieved.  First access to each chunk scores the
        pipeline (hit vs miss) and frees one window slot.
        """
        if not self._active or encoded in self._consumed:
            return
        if encoded not in self._scheduled:
            return  # out-of-plan read (e.g. a stray get()); not ours
        self._consumed.add(encoded)
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
        if encoded in self._outstanding:
            self._outstanding.discard(encoded)
            self.window.stats.prefetch_wasted += 1
            if self.recorder is not None:
                self._issue_ts.pop(encoded, None)
                self.recorder.count("prefetch", "wasted")
            self._top_up()

    # ------------------------------------------------------------- cancel
    def cancel(self) -> None:
        """Stop the pipeline and interrupt in-flight fetches.

        Idempotent.  In-flight fetch processes are interrupted; their
        single-flight entries are cleaned up by ``ChunkWindow.ensure``'s
        ``finally`` so waiting demand readers simply re-fetch.  Chunks
        issued but never consumed count as wasted.
        """
        if not self._active:
            return
        self._active = False
        for proc in list(self._procs.values()):
            if proc.is_alive:
                proc.interrupt("prefetch cancelled")
        self._procs.clear()
        self.window.stats.prefetch_wasted += len(self._outstanding)
        if self.recorder is not None and self._outstanding:
            self.recorder.count(
                "prefetch", "wasted", len(self._outstanding)
            )
        self._outstanding.clear()
        self._issue_ts.clear()
