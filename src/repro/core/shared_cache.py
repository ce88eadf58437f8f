"""The node chunk tier: where every resident chunk lives.

DIESEL's task-grained cache (§4.2) gives each training job its own
cache; Hoard puts one cache layer under every job.  Here both are the
same thing: every node runs one :class:`SharedChunkCache` per registry,
and every task's :class:`~repro.core.dist_cache.CacheMaster` on that
node admits chunks *through* it and holds references into it.  Hand N
tasks one :class:`SharedCacheRegistry` and a sweep over one dataset
pays the backend fetch and the memory once; give a task none and it
builds a registry for itself — the same tier with one task in it.

* chunks are **reference-counted** per task — a cold admission fetches
  the chunk, every later admission of it is a warm ref-bump (no fetch,
  no extra memory);
* admission exists once (:meth:`SharedChunkCache.admit`, over
  ``(cids, fetch)``) and owns **single-flight** across tasks, the
  tenant quota, QoS-governed placement and the counters; ``fetch``
  only says where the bytes come from;
* a task letting go drops its refs; refcount-0 chunks stay resident
  as a **warm pool** (a later task re-warms from them) until eviction
  reclaims them for space — eviction never touches a referenced chunk.
  Only a tier whose one task built it is emptied outright
  (:meth:`SharedChunkCache.clear`, called by the lifetime rule in
  ``TaskCache._retire``);
* **per-tenant byte quotas** bound how many resident bytes one tenant
  may pin per node (0 = unlimited; admission at exactly the quota is
  allowed, one byte past it is rejected);
* two **QoS classes**: an ``interactive`` admission may evict any
  refcount-0 chunk to make room, a ``batch`` admission may only reclaim
  refcount-0 chunks last pinned by batch tasks;
* chunk *residency* is delegated to a
  :class:`~repro.core.chunk_store.ChunkStore`: ``ram`` keeps everything in
  node memory, ``tiered`` adds a simulated node-local NVMe tier —
  under memory pressure, refcount-0 chunks are **demoted** to disk
  (LRU-first) instead of dropped, promoted back on access, and the
  disk tier *survives a node crash* so recovery re-admits by reference
  instead of re-fetching from the backend.

:class:`SharedCacheRegistry` is the handle tasks are given: it lazily
creates the per-node tiers (each with its own store built from the
registry's arguments), owns the tenant quota table, hands out task keys,
and aggregates stats for benchmarks and ``dlcmd tenants`` / ``dlcmd
tiers``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.chunk import Chunk
from repro.core.chunk_store import ChunkStore, ChunkStoreStats
from repro.obs.counters import Counters, stats_row
from repro.sim.engine import Environment, Event

#: The two admission-priority classes (paper-less extension; see
#: DESIGN §11).  ``interactive`` outranks ``batch`` at eviction time.
QOS_CLASSES = ("interactive", "batch")
#: ``tier_rows`` columns after the node and store kind: residency
#: gauges, then read traffic.
_TIER_COLUMNS = (
    "chunks_ram", "chunks_disk", "ram_bytes", "disk_bytes",
    "disk_stored_bytes", "ram_hits", "disk_hits", "promotions", "demotions",
)


@dataclass(slots=True)
class SharedCacheStats(Counters):
    """Shared-tier counters (the bench-reporting seam).

    Cumulative counters move as the cache runs; the gauge fields
    (``bytes_resident`` / ``chunks_resident`` / ``refs``) are refreshed
    on every :attr:`SharedChunkCache.stats` access.
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
    #: Refcount-0 chunks reclaimed to make room for a new admission.
    evictions: int = 0
    #: Admissions refused because they would push the tenant past its
    #: byte quota on this node.
    quota_rejections: int = 0
    #: Batch admissions refused because the only reclaimable chunks
    #: were the interactive warm pool (QoS protection).
    qos_denied: int = 0
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
    """One resident chunk's cross-task reference bookkeeping.

    The payload itself lives in the node cache's chunk *store* (RAM or
    tiered, see :mod:`repro.core.chunk_store`) under the same key; this
    entry only tracks who references it."""

    nbytes: int
    #: Task keys currently holding a reference.
    tasks: set = field(default_factory=set)
    #: Tenant → number of that tenant's tasks referencing this chunk
    #: (quota is charged on the tenant's first ref, released on its
    #: last).
    tenants: Dict[str, int] = field(default_factory=dict)
    #: QoS class protecting this chunk at eviction time: the highest
    #: class that ever pinned it ("interactive" wins and sticks, so a
    #: batch task cannot reclaim an interactive task's warm pool).
    qos: str = "batch"


class SharedChunkCache:
    """The chunk tier on one node (every task of its registry, all
    datasets)."""

    def __init__(self, env: Environment, node, registry: "SharedCacheRegistry") -> None:
        self.env = env
        self.node = node
        self.registry = registry
        #: ``"<dataset>/<encoded cid>"`` → reference entry.  Residency
        #: (payload, tier, LRU recency) is owned by :attr:`store`.
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: Chunk residency backend (RAM or RAM+disk), shaped by the
        #: registry's store arguments; its ``on_evict`` hook drops our
        #: reference entry when the store sheds a chunk for capacity.
        self.store = ChunkStore(
            env, node, registry.store, registry.disk_tier_bytes,
            registry.chunk_compression, on_evict=self._forget,
        )
        #: Cross-task single-flight map: key → completion event of the
        #: backend fetch currently streaming that chunk.
        self._inflight: Dict[str, Event] = {}
        #: Tenant → resident bytes the tenant references on this node.
        self._tenant_usage: Dict[str, int] = {}
        self._stats = SharedCacheStats()
        self._recorder = None

    @property
    def recorder(self):
        """Attached observability recorder (propagated by the registry)."""
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value
        self.store.recorder = value

    @staticmethod
    def _key(dataset: str, encoded_cid: str) -> str:
        return f"{dataset}/{encoded_cid}"

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> SharedCacheStats:
        """Counters with the residency gauges refreshed."""
        s = self._stats
        s.chunks_resident = len(self._entries)
        s.bytes_resident = sum(e.nbytes for e in self._entries.values())
        s.refs = sum(len(e.tasks) for e in self._entries.values())
        return s

    def resident(self, dataset: str, encoded_cid: str) -> bool:
        return self._key(dataset, encoded_cid) in self._entries

    def refcount(self, dataset: str, encoded_cid: str) -> int:
        entry = self._entries.get(self._key(dataset, encoded_cid))
        return len(entry.tasks) if entry is not None else 0

    def nbytes_of(self, dataset: str, encoded_cid: str) -> int:
        """Encoded size of a resident chunk (0 when not resident)."""
        entry = self._entries.get(self._key(dataset, encoded_cid))
        return entry.nbytes if entry is not None else 0

    def tenant_usage(self, tenant: str) -> int:
        """Resident bytes ``tenant`` currently references on this node."""
        return self._tenant_usage.get(tenant, 0)

    def peek(self, dataset: str, encoded_cid: str) -> Optional[Chunk]:
        """RAM-resident chunk for a read, whoever admitted it (no ref
        taken, no cost charged).

        The shared-tier read hit: a task whose own master does not hold
        the chunk can still serve the file from another task's resident
        copy.  Touches LRU order; the caller counts the hit via
        :meth:`note_cross_task_read`.  Disk-resident chunks are *not*
        returned here — a free peek must not hide a disk read; use
        :meth:`read_resident` for those.
        """
        got = self.store.get(self._key(dataset, encoded_cid))
        return got[0] if got is not None else None

    def disk_resident(self, dataset: str, encoded_cid: str) -> bool:
        """Whether the chunk is resident on the disk tier only."""
        return self.store.tier_of(self._key(dataset, encoded_cid)) == "disk"

    def read_resident(
        self, dataset: str, encoded_cid: str
    ) -> Generator[Event, Any, Optional[Chunk]]:
        """Cost-charging read of a resident chunk on *any* tier.

        Disk-resident chunks pay the device read (+ decompress) and are
        promoted back to RAM when node memory allows — the tier hit that
        makes datasets larger than memory serveable without a backend
        round-trip.
        """
        got = yield from self.store.load(self._key(dataset, encoded_cid))
        return got[0] if got is not None else None

    def note_cross_task_read(self) -> None:
        self._stats.cross_task_reads += 1

    # -------------------------------------------------------------- admission
    def _quota_room(self, tenant: str, nbytes: int) -> bool:
        quota = self.registry.quota_of(tenant)
        if quota <= 0:
            return True
        return self._tenant_usage.get(tenant, 0) + nbytes <= quota

    def _charge_ref(self, entry: _Entry, task: str, tenant: str, qos: str) -> bool:
        """Add ``task``'s reference; False iff the tenant quota refuses."""
        if task in entry.tasks:
            return True
        first_for_tenant = tenant not in entry.tenants
        if first_for_tenant and not self._quota_room(tenant, entry.nbytes):
            self._stats.quota_rejections += 1
            return False
        entry.tasks.add(task)
        entry.tenants[tenant] = entry.tenants.get(tenant, 0) + 1
        if first_for_tenant:
            self._tenant_usage[tenant] = (
                self._tenant_usage.get(tenant, 0) + entry.nbytes
            )
        if qos == "interactive":
            entry.qos = "interactive"
        return True

    def _forget(self, key: str) -> None:
        """Drop the reference entry for a chunk the store no longer
        holds in RAM-or-disk (eviction); victims are refcount-0, so no
        tenant usage needs releasing."""
        if self._entries.pop(key, None) is None:
            return
        self._stats.evictions += 1
        rec = self.recorder
        if rec is not None:
            rec.count("shared_evict", "shared_tier")

    def _evictable_for(self, qos: str):
        """Predicate gating which chunks an admission may push out:
        referenced chunks never, and ``batch`` may not reclaim the
        interactive warm pool."""
        def ok(key: str) -> bool:
            entry = self._entries.get(key)
            if entry is None:
                return True
            if entry.tasks:
                return False
            return qos == "interactive" or entry.qos != "interactive"
        return ok

    def _pick_victims(self, needed: int, qos: str):
        """Refcount-0 RAM chunks to displace, LRU-first, honouring QoS
        (:meth:`_evictable_for`).
        Returns ``(victims, freed_bytes, blocked_by_qos)``."""
        allowed = self._evictable_for(qos)
        victims: List[str] = []
        blocked_by_qos = False
        freed = 0
        for key in self.store.ram_lru():
            entry = self._entries.get(key)
            if entry is None or entry.tasks:
                continue
            if not allowed(key):
                blocked_by_qos = True
                continue
            victims.append(key)
            freed += entry.nbytes
            if freed >= needed:
                break
        return victims, freed, blocked_by_qos

    def _place(
        self, key: str, chunk: Chunk, nbytes: int, qos: str
    ) -> Generator[Event, Any, Optional[str]]:
        """Find a home for a cold admission; returns its tier or ``None``.

        Memory pressure displaces refcount-0 RAM chunks LRU-first
        (QoS-governed): the RAM store evicts them outright, the tiered
        store *demotes* them to disk and overflows the admission itself
        to disk when RAM still cannot cover it.  A refusal moves the
        ``qos_denied`` / ``skipped_no_memory`` counter, exactly like
        the eviction scan it replaces.
        """
        room = self.node.memory.level
        blocked = False
        if room < nbytes:
            victims, freed, blocked = self._pick_victims(nbytes - room, qos)
            if freed >= nbytes - room:
                allowed = self._evictable_for(qos)
                for vkey in victims:
                    outcome = yield from self.store.displace(vkey, allowed)
                    if outcome == "evicted":
                        self._forget(vkey)
        tier = yield from self.store.put(
            key, chunk, nbytes, self._evictable_for(qos)
        )
        if tier is None:
            if blocked:
                self._stats.qos_denied += 1
            else:
                self._stats.skipped_no_memory += 1
        return tier

    def admit(
        self, holder, cids: Sequence[str], fetch
    ) -> Generator[Event, Any, Dict[str, int]]:
        """Admit ``cids`` on behalf of ``holder``'s task (ref-counted) —
        the one way a chunk becomes resident on this node.

        ``holder`` is the admitting
        :class:`~repro.core.dist_cache.CacheMaster`: its ``dataset``,
        ``task`` key, ``tenant`` and ``qos`` class say who is charged,
        and its ``stats.coalesced_pulls`` moves with the tier's, keeping
        the task-level counter.  ``fetch(cold_cids)`` is a generator
        returning one ``(chunk, nbytes)`` per cold cid, in order — the
        caller decides *where* the bytes come from (backend, or a donor
        peer with the backend behind it); everything else is decided
        here, once per round over the still-unresolved cids:

        * resident → warm ref-bump (quota-checked), no fetch;
        * in flight under any task → wait for that fetch (cross-task
          single-flight), then re-classify: a refused fetch leaves the
          chunk cold and this task retries it itself;
        * cold → one ``fetch`` for the whole cold subset, then per chunk
          the tenant quota check, QoS-governed placement
          (:meth:`_place`) and the reference entry.

        Returns ``{cid: nbytes}`` for the chunks ``holder``'s task now
        references; a cid the quota, QoS policy or node memory refused
        is absent (it stays server-resident; reads for it fall through,
        Fig 4).
        """
        task, tenant, qos = holder.task, holder.tenant, holder.qos
        keys = {cid: self._key(holder.dataset, cid) for cid in cids}
        rec = self.recorder
        held: Dict[str, int] = {}
        pending = list(cids)
        while pending:
            cold: List[str] = []
            waits: List[str] = []
            for cid in pending:
                key = keys[cid]
                entry = self._entries.get(key)
                if entry is not None:
                    if self._charge_ref(entry, task, tenant, qos):
                        self.store.touch(key)
                        self._stats.warm_admissions += 1
                        if rec is not None:
                            rec.count("shared_warm_admit", "shared_tier")
                        held[cid] = entry.nbytes
                elif key in self._inflight:
                    self._stats.coalesced_pulls += 1
                    holder.stats.coalesced_pulls += 1
                    waits.append(cid)
                else:
                    self._inflight[key] = self.env.event()
                    cold.append(cid)
            try:
                fetched = (yield from fetch(cold)) if cold else ()
                for cid, (chunk, nbytes) in zip(cold, fetched):
                    if not self._quota_room(tenant, nbytes):
                        self._stats.quota_rejections += 1
                        continue
                    tier = yield from self._place(
                        keys[cid], chunk, nbytes, qos
                    )
                    if tier is None:
                        continue
                    entry = _Entry(nbytes=nbytes, qos=qos)
                    entry.tasks.add(task)
                    entry.tenants[tenant] = 1
                    self._entries[keys[cid]] = entry
                    self._tenant_usage[tenant] = (
                        self._tenant_usage.get(tenant, 0) + nbytes
                    )
                    self._stats.cold_admissions += 1
                    if rec is not None:
                        rec.count("shared_cold_admit", "shared_tier")
                    held[cid] = nbytes
            finally:
                for cid in cold:
                    self._inflight.pop(keys[cid]).succeed()
            for cid in waits:
                racing = self._inflight.get(keys[cid])
                if racing is not None:
                    yield racing
            pending = waits
        return held

    # ---------------------------------------------------------------- release
    def release_task(self, task: str, tenant: str) -> int:
        """Drop every reference ``task`` holds; returns how many.  The
        chunks stay warm (refcount-0 chunks are reclaimed by eviction,
        not by release)."""
        released = 0
        for entry in self._entries.values():
            if task not in entry.tasks:
                continue
            entry.tasks.discard(task)
            left = entry.tenants.get(tenant, 0) - 1
            if left <= 0:
                entry.tenants.pop(tenant, None)
                self._tenant_usage[tenant] = max(
                    0, self._tenant_usage.get(tenant, 0) - entry.nbytes
                )
            else:
                entry.tenants[tenant] = left
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
        self._entries.clear()
        self._tenant_usage.clear()

    def purge_crashed(self) -> int:
        """Node died: forget RAM residency without returning memory (the
        node's memory container died with it).  The *disk tier
        survives* the crash: disk-resident entries are kept with their
        refcounts cleared, so post-restore re-admissions warm from disk
        instead of re-fetching from the backend.  Returns entries
        dropped (RAM-only residents)."""
        if self.node.alive:
            return 0
        before = len(self._entries)
        self.store.crash()
        kept: "OrderedDict[str, _Entry]" = OrderedDict()
        for key, entry in self._entries.items():
            if self.store.tier_of(key) == "disk":
                entry.tasks.clear()
                entry.tenants.clear()
                kept[key] = entry
        self._entries = kept
        self._tenant_usage.clear()
        return before - len(kept)


class SharedCacheRegistry:
    """The handle tasks are given: per-node chunk tiers + quotas.

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
        self._quotas: Dict[str, int] = {}  # tenant → per-node byte quota
        self._next_task = 0
        self._recorder = None

    def for_node(self, node) -> SharedChunkCache:
        """The node's shared cache (created lazily on first use)."""
        cache = self._caches.get(node.name)
        if cache is None:
            cache = SharedChunkCache(self.env, node, self)
            cache.recorder = self._recorder
            self._caches[node.name] = cache
        return cache

    @property
    def node_caches(self) -> List[SharedChunkCache]:
        return [self._caches[k] for k in sorted(self._caches)]

    def next_task_id(self) -> str:
        """A deterministic unique key for a registering task."""
        self._next_task += 1
        return f"task{self._next_task}"

    # ----------------------------------------------------------------- quotas
    def set_quota(self, tenant: str, quota_bytes: int) -> None:
        """Per-node resident-byte quota for ``tenant`` (0 = unlimited)."""
        if quota_bytes < 0:
            raise ValueError("tenant quota must be >= 0")
        self._quotas[tenant] = quota_bytes

    def quota_of(self, tenant: str) -> int:
        return self._quotas.get(tenant, 0)

    def tenants(self) -> List[str]:
        """Every tenant with a quota or resident usage, sorted."""
        names = set(self._quotas)
        for cache in self._caches.values():
            names.update(cache._tenant_usage)
        return sorted(names)

    def tenant_rows(self) -> List[dict]:
        """Per-tenant usage summary (``dlcmd tenants`` / bench rows).

        ``max_node_usage_bytes`` is the enforcement-relevant number:
        quotas bound each node independently, so the busiest node is the
        one that can violate them.
        """
        rows = []
        for tenant in self.tenants():
            usages = [c.tenant_usage(tenant) for c in self.node_caches]
            quota = self.quota_of(tenant)
            peak = max(usages, default=0)
            rows.append({
                "tenant": tenant,
                "quota_bytes": quota,
                "max_node_usage_bytes": peak,
                "total_usage_bytes": sum(usages),
                "within_quota": quota <= 0 or peak <= quota,
            })
        return rows

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

    def tier_rows(self) -> List[dict]:
        """Per-node tier residency summary (``dlcmd tiers`` / bench rows)."""
        return [
            {"node": c.node.name, "store": c.store.kind,
             **stats_row(c.store.stats, _TIER_COLUMNS)}
            for c in self.node_caches
        ]

    @property
    def recorder(self):
        """Attached observability recorder (None = disabled)."""
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        self._recorder = value
        for cache in self._caches.values():
            cache.recorder = value

    # --------------------------------------------------------------- recovery
    def purge_dead(self) -> int:
        """Clear the caches of crashed nodes; returns entries dropped.

        Idempotent — every recovering task calls it; only the first call
        after a crash finds anything.  Survivor caches are untouched, so
        recovery re-admissions warm from them instead of re-fetching.
        """
        return sum(c.purge_crashed() for c in self._caches.values())
