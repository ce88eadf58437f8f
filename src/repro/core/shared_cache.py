"""The node chunk tier: one :class:`SharedChunkCache` per node per
registry, which every task's :class:`~repro.core.dist_cache.CacheMaster`
on the node admits through and holds references into (§4.2's
task-grained cache is this tier with one task in it).  Its chunks and
their reference entries live in a
:class:`~repro.core.chunk_store.ChunkStore`'s two residencies.

* **Budget:** ``node.memory``, then the store's disk tier.
* **Admission:** a resident chunk is a warm ref-bump, a cold one is
  fetched once across tasks.
* **Protection:** a chunk any task references is never displaced; the
  refcount-0 warm pool is displaced LRU-first, demoted to disk when the
  store has one, else evicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, Iterator, List, Optional, Sequence, Tuple

from repro.core.chunk import Chunk
from repro.core.chunk_store import ChunkStore, ChunkStoreStats
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event


@dataclass(slots=True)
class SharedCacheStats(Counters):
    """Shared-tier counters (the bench-reporting seam).

    Cumulative counters move as the cache runs; the gauge fields
    (``bytes_resident`` / ``chunks_resident`` / ``refs``) are read off
    the store on every :attr:`SharedChunkCache.stats` access.
    """

    #: Admissions that fetched the chunk from the object store.
    cold_admissions: int = 0
    #: Admissions satisfied by ref-bumping an already-resident chunk
    #: (another task — or a prior task — paid the fetch).
    warm_admissions: int = 0
    #: Admissions that joined another task's in-flight backend fetch
    #: (the cross-task single-flight map).
    coalesced_pulls: int = 0
    #: File reads served from a resident chunk held only by *other*
    #: tasks (the shared-tier read hit in the Fig 4 chain).
    cross_task_reads: int = 0
    #: Refcount-0 chunks reclaimed to make room for a new admission, off
    #: RAM or (the store's ``disk_evictions``) off the disk tier.
    evictions: int = 0
    #: Always 0: the tier has no quota.  Kept only because perfbench's
    #: ``core.shared_cache.quota_rejections`` row reads it
    #: (``perfbench/layers.py``); ROADMAP item 1 drops that row, then
    #: this field.
    quota_rejections: int = 0
    #: Admissions refused because the node's memory could not cover the
    #: chunk even after every evictable chunk was reclaimed.
    skipped_no_memory: int = 0
    #: Task refs dropped (deregistration / recovery re-homing).
    released_refs: int = 0
    #: Gauges (refreshed on stats access).
    bytes_resident: int = 0
    chunks_resident: int = 0
    refs: int = 0


@dataclass(slots=True)
class _Entry:
    """A resident chunk and who references it: the value the store's
    RAM or disk residency holds under ``"<dataset>/<encoded cid>"``."""

    chunk: Chunk
    #: Task keys currently holding a reference.
    tasks: set = field(default_factory=set)


class SharedChunkCache:
    """The chunk tier on one node (every task of its registry, all
    datasets)."""

    def __init__(self, env: Environment, node, registry: "SharedCacheRegistry") -> None:
        self.node = node
        self.registry = registry
        #: Where the chunks and their reference entries live; its
        #: ``ram.flights`` are this tier's admissions in flight.
        self.store = ChunkStore(
            env, node, registry.store, registry.disk_tier_bytes,
            registry.chunk_compression,
        )
        self._stats = SharedCacheStats()
        #: The registry's observability recorder (the store's too).
        self.recorder = None

    @staticmethod
    def _key(dataset: str, encoded_cid: str) -> str:
        return f"{dataset}/{encoded_cid}"

    def _resident(self) -> Iterator[Tuple[_Entry, int]]:
        """``(entry, nbytes)`` of every resident chunk, RAM then disk."""
        yield from self.store.ram.entries.values()
        for item, _ in self.store.disk.entries.values():
            yield item

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> SharedCacheStats:
        """Counters, the disk tier's evictions and the residency gauges."""
        store = self.store.stats
        return replace(
            self._stats,
            evictions=self._stats.evictions + store.disk_evictions,
            chunks_resident=store.chunks_ram + store.chunks_disk,
            bytes_resident=store.ram_bytes + store.disk_bytes,
            refs=sum(len(e.tasks) for e, _ in self._resident()),
        )

    def refcount(self, dataset: str, encoded_cid: str) -> int:
        """How many tasks reference the chunk (0 when not resident)."""
        got = self.store.lookup(self._key(dataset, encoded_cid))
        return len(got[0].tasks) if got is not None else 0

    def nbytes_of(self, dataset: str, encoded_cid: str) -> int:
        """Encoded size of a resident chunk (0 when not resident)."""
        got = self.store.lookup(self._key(dataset, encoded_cid))
        return got[1] if got is not None else 0

    def peek(self, dataset: str, encoded_cid: str) -> Optional[Chunk]:
        """The RAM-resident chunk, whoever admitted it: no ref taken, no
        cost charged, recency refreshed (the caller counts a cross-task
        hit, :meth:`note_cross_task_read`).  A disk-resident chunk is
        not returned — :meth:`read_resident` charges its read."""
        got = self.store.get(self._key(dataset, encoded_cid))
        return got[0].chunk if got is not None else None

    def disk_resident(self, dataset: str, encoded_cid: str) -> bool:
        """Whether the chunk is resident on the disk tier only."""
        return self.store.tier_of(self._key(dataset, encoded_cid)) == "disk"

    def read_resident(
        self, dataset: str, encoded_cid: str
    ) -> Generator[Event, Any, Optional[Chunk]]:
        """Read a resident chunk on either tier, charging a disk read
        (and promoting it when memory allows)."""
        got = yield from self.store.load(self._key(dataset, encoded_cid))
        return got[0].chunk if got is not None else None

    def note_cross_task_read(self) -> None:
        """Count one file read served from a chunk only other tasks
        reference (after a :meth:`peek` hit)."""
        self._stats.cross_task_reads += 1

    # -------------------------------------------------------------- admission
    def _place(
        self, key: str, entry: _Entry, nbytes: int
    ) -> Generator[Event, Any, Optional[str]]:
        """Find a home for a cold admission; returns its tier or ``None``.

        Memory pressure displaces RAM chunks the protection rule leaves,
        LRU-first — all of them or none — and the store overflows the
        admission itself to disk when RAM still cannot cover it.  A
        refusal counts as ``skipped_no_memory``.
        """
        store, rec = self.store, self.recorder

        def spare(e: _Entry) -> bool:
            return bool(e.tasks)

        room = self.node.memory.level
        if room < nbytes:
            ram = store.ram
            victims = ram.victims(
                nbytes - room, lambda k: spare(ram.entries[k][0])
            )
            if sum(ram.entries[k][1] for k in victims) >= nbytes - room:
                for vkey in victims:
                    outcome = yield from store.displace(vkey, spare)
                    if outcome == "evicted":
                        self._stats.evictions += 1
                        if rec is not None:
                            rec.count("shared_evict", "shared_tier")
        tier = yield from store.put(key, entry, nbytes, spare)
        if tier is None:
            self._stats.skipped_no_memory += 1
        return tier

    def admit(
        self, holder, cids: Sequence[str], fetch
    ) -> Generator[Event, Any, Dict[str, int]]:
        """Admit ``cids`` for ``holder``'s task — the one way a chunk
        becomes resident on this node.

        ``holder`` is the admitting
        :class:`~repro.core.dist_cache.CacheMaster` (``dataset`` and
        ``task``; its ``stats.coalesced_pulls`` moves with the tier's).
        ``fetch(cold_cids)`` yields one ``(chunk, nbytes)`` per cold cid,
        in order: it only says where the bytes come from.  Each round, a
        resident cid is ref-bumped, a cid another fetch is bringing is
        waited for and looked at again, and the cold ones are fetched
        together, then placed (:meth:`_place`).  Returns ``{cid:
        nbytes}`` for the chunks the task now references; a refused cid
        stays server-resident (Fig 4).
        """
        task = holder.task
        keys = {cid: self._key(holder.dataset, cid) for cid in cids}
        store, rec = self.store, self.recorder
        ram = store.ram  # its flights are the admissions in flight
        held: Dict[str, int] = {}
        pending = list(cids)
        while pending:
            cold: List[str] = []
            waits: List[str] = []
            for cid in pending:
                key = keys[cid]
                got = store.lookup(key)
                if got is not None:
                    entry, nbytes = got
                    entry.tasks.add(task)
                    ram.get(key)
                    self._stats.warm_admissions += 1
                    if rec is not None:
                        rec.count("shared_warm_admit", "shared_tier")
                    held[cid] = nbytes
                elif ram.claim(key) is not None:
                    self._stats.coalesced_pulls += 1
                    holder.stats.coalesced_pulls += 1
                    waits.append(cid)
                else:
                    cold.append(cid)
            try:
                fetched = (yield from fetch(cold)) if cold else ()
                for cid, (chunk, nbytes) in zip(cold, fetched):
                    entry = _Entry(chunk)
                    tier = yield from self._place(keys[cid], entry, nbytes)
                    if tier is None:
                        continue
                    entry.tasks.add(task)
                    self._stats.cold_admissions += 1
                    if rec is not None:
                        rec.count("shared_cold_admit", "shared_tier")
                    held[cid] = nbytes
            finally:
                for cid in cold:
                    ram.settle(keys[cid])
            for cid in waits:
                racing = ram.flights.get(keys[cid])
                if racing is not None:
                    yield racing
            pending = waits
        return held

    # ---------------------------------------------------------------- release
    def release_task(self, task: str) -> int:
        """Drop every reference ``task`` holds; returns how many.  The
        chunks stay warm (refcount-0 chunks are reclaimed by eviction,
        not by release)."""
        released = 0
        for entry, _ in self._resident():
            if task in entry.tasks:
                entry.tasks.discard(task)
                released += 1
        self._stats.released_refs += released
        return released

    def clear(self) -> None:
        """Empty the tier: forget every chunk on every tier of the store
        and return its RAM to ``node.memory``.  For a tier whose only
        task is gone (the lifetime rule, see
        :class:`~repro.core.dist_cache.TaskCache`) — never for one other
        tasks still reference."""
        self.store.clear()

    def purge_crashed(self) -> int:
        """Node died: forget RAM residency without returning memory (the
        node's memory container died with it).  The *disk tier
        survives* the crash: disk-resident entries are kept with their
        refcounts cleared, so post-restore re-admissions warm from disk
        instead of re-fetching from the backend.  Returns entries
        dropped (RAM-only residents)."""
        if self.node.alive:
            return 0
        lost = self.store.crash()
        for entry, _ in self._resident():
            entry.tasks.clear()
        return lost


class SharedCacheRegistry:
    """The handle tasks are given: the per-node chunk tiers.

    The store keyword arguments say what every lazily created node
    tier keeps its chunks in; :class:`~repro.core.chunk_store.ChunkStore`
    validates them where the store is built.
    """

    def __init__(
        self,
        env: Environment,
        *,
        store: str = "ram",
        disk_tier_bytes: int = 0,
        chunk_compression: bool = False,
    ) -> None:
        self.env = env
        self.store = store
        self.disk_tier_bytes = disk_tier_bytes
        self.chunk_compression = chunk_compression
        self._caches: Dict[str, SharedChunkCache] = {}  # node name → cache
        self._next_task = 0
        self._recorder = None

    def for_node(self, node) -> SharedChunkCache:
        """The node's shared cache (created lazily on first use)."""
        cache = self._caches.get(node.name)
        if cache is None:
            cache = SharedChunkCache(self.env, node, self)
            cache.recorder = cache.store.recorder = self._recorder
            self._caches[node.name] = cache
        return cache

    @property
    def node_caches(self) -> List[SharedChunkCache]:
        """Every node tier created so far, in node-name order."""
        return [self._caches[k] for k in sorted(self._caches)]

    def next_task_id(self) -> str:
        """A deterministic unique key for a registering task."""
        self._next_task += 1
        return f"task{self._next_task}"

    # ------------------------------------------------------------------ stats
    @property
    def stats(self) -> SharedCacheStats:
        """Counters summed over every node cache (gauges included)."""
        return SharedCacheStats.total(c.stats for c in self._caches.values())

    @property
    def store_stats(self) -> ChunkStoreStats:
        """Tier counters summed over every node cache's chunk store."""
        return ChunkStoreStats.total(
            c.store.stats for c in self._caches.values()
        )

    @property
    def recorder(self):
        """Attached observability recorder (None = disabled)."""
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        """Attach ``value`` to the registry and every node tier."""
        self._recorder = value
        for cache in self._caches.values():
            cache.recorder = cache.store.recorder = value

    # --------------------------------------------------------------- recovery
    def purge_dead(self) -> int:
        """Clear the caches of crashed nodes; returns entries dropped.

        Idempotent — every recovering task calls it; only the first call
        after a crash finds anything.  Survivor caches are untouched, so
        recovery re-admissions warm from them instead of re-fetching.
        """
        return sum(c.purge_crashed() for c in self._caches.values())
