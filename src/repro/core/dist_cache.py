"""Task-grained distributed cache (paper §4.2, Fig 7).

Each DLT task caches *its own* dataset across *its own* worker nodes:

* every I/O process spawns a DIESEL client instance with a rank;
* the lowest-ranked client on each physical node is elected **master**;
  only masters hold cache partitions, so the connection mesh is
  p×(n−1) (clients × masters) instead of n×(n−1) (full client mesh);
* chunks are partitioned across masters deterministically — the
  ``hash`` policy round-robins over the sorted chunk list (the paper's
  consistent-hash spread), the ``locality`` policy gives each master a
  contiguous slice with capacity-aware spill to the ring, so the
  affinity scheduler can land each worker's reads on its own node's
  master and skip the network hop entirely;
* any client reaches any file in **one hop** via the owning master, and
  a chunk resident on the reader's *own* master is served as a local
  memory copy (no RPC) — per file (``read_file``) for unplanned reads,
  per whole chunk (``read_chunk``) behind a plan-ordered reader's §4.3
  chunk window, over one shared chain;
* residency has one model: every master admits chunks through its
  node's chunk tier (:mod:`repro.core.shared_cache`) and holds
  *references* into it —

      master ──_held refs──▶ node tier (refcounts, quota, QoS,
                              single-flight) ──▶ store (RAM | RAM+disk)

  A tier several tasks share makes admissions reference-counted
  *across tasks* (a second task registering the same dataset warms
  from the first task's resident chunks instead of the object store,
  reads can resolve from chunks other tasks admitted on the reader's
  node, per-tenant quotas / QoS classes govern admission); a
  task-private cache is the same tier with one task in it, built by
  the task and emptied when the task lets go (the lifetime rule,
  :meth:`TaskCache._retire` — the only place the two differ);
* concurrent pulls of one chunk coalesce into a single fetch (the
  tier's single-flight map), and chunks read remotely often enough
  (``hot_chunk_threshold``) are replicated onto the readers' local
  masters;
* cache policies (§4.2): ``oneshot`` prefetches the full partition in the
  background right after registration; ``on-demand`` pulls a chunk the
  first time one of its files misses;
* on a miss the *file* read falls through to the DIESEL server directly
  (read flow, Fig 4) — the cache never blocks the training loop;
* a node failure kills only this task's cache (containment); recovery
  re-partitions over the survivors and re-streams whole chunks, which is
  why Fig 11b's DIESEL reload is so much faster than a per-file cache
  fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.calibration import Calibration, DEFAULT
from repro.core.meta import FileRecord
from repro.core.server import DieselServer
from repro.core.chunk import Chunk
from repro.core.prefetch import WindowStats
from repro.core.shared_cache import SharedCacheRegistry
from repro.errors import (
    CachePeerDownError,
    CircuitOpenError,
    DeadlineExceededError,
    DieselError,
    NodeDownError,
)
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.obs.counters import Counters, hwm
from repro.rpc.connections import ConnectionTable
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment, Event, fan_out


#: Share of a node's free memory ``locality`` placement fills before
#: spilling the rest of the node's slice to the ring (§4.2).
LOCALITY_SPILL_RATIO = 0.9


@dataclass(frozen=True)
class CacheClient:
    """One DIESEL client instance participating in the task."""

    name: str
    node: Node
    rank: int


@dataclass(slots=True)
class CacheMasterStats(Counters):
    """Per-master cache counters (the bench-reporting seam)."""

    hits: int = 0
    misses: int = 0
    chunks_loaded: int = 0
    bytes_cached: int = 0
    #: Chunks left uncached because the node's memory budget ran out.
    skipped_no_memory: int = 0
    #: Most bulk pulls (warm-up, recovery, scale moves) ever concurrently
    #: in flight on this master — at most its node's ingress channels.
    pull_inflight_hwm: int = hwm()
    #: Pull requests that joined an in-flight fetch instead of issuing
    #: their own (the node tier's single-flight map).
    coalesced_pulls: int = 0
    #: Hot chunks replicated onto this master from another owner's
    #: partition (read-skew mitigation).
    replicated_chunks: int = 0


@dataclass(slots=True)
class TaskCacheStats(Counters):
    """Task-wide read-locality counters (the bench-reporting seam).

    The task cache moves its one instance directly; on every
    :attr:`TaskCache.stats` access the read-ahead fields are refreshed
    from the readers' shared :class:`WindowStats`, the hedge fields
    from the task's :class:`~repro.ft.hedge.HedgeStats`, and
    ``coalesced_pulls`` / ``replicated_chunks`` from every master the
    task has had, departed ones included.
    """

    #: Cache hits served from the reader's own node's master — a memory
    #: copy, no network hop.
    local_hits: int = 0
    #: Cache hits that paid the one-hop peer RPC.
    remote_hits: int = 0
    #: Reads served node-locally from a chunk in the node tier that the
    #: reader's own master does not hold — one another task admitted.
    shared_hits: int = 0
    #: Reads served from the node-local *disk* tier (device read +
    #: optional decompress; 0 on a RAM-store tier).
    disk_hits: int = 0
    #: Reads served by the server because the owning peer was down.
    degraded_reads: int = 0
    #: Chunk-granular path: whole chunks resolved by ``read_chunk``
    #: (each file read above is still credited to its chunk's tier),
    #: and the readers' §4.3 read-ahead — chunks found resident or in
    #: flight on first access / demand-fetched / fetched but never read.
    chunk_fetches: int = 0
    readahead_hits: int = 0
    readahead_misses: int = 0
    readahead_wasted: int = 0
    coalesced_pulls: int = 0
    replicated_chunks: int = 0
    #: Hedged-read counters (0 unless hedging is configured): backups
    #: launched, races the backup won, and losers that completed anyway
    #: (duplicate transfers actually paid).
    hedges_fired: int = 0
    hedge_wins: int = 0
    hedge_duplicates: int = 0
    #: Elastic-membership counters: live scale events survived and
    #: chunks drained peer-to-peer (scale-down) or warm-admitted from a
    #: peer instead of the backend (scale-up).
    scale_ups: int = 0
    scale_downs: int = 0
    drained_chunks: int = 0
    peer_warmed_chunks: int = 0


class CacheMaster:
    """The master client on one node: owns a chunk partition, held as
    references into the node's chunk tier.

    Residency lives in exactly one place — the node's
    :class:`~repro.core.shared_cache.SharedChunkCache` (``tier``) and
    the store behind it; the master only records which chunks its task
    references there (``_held``: encoded cid → nbytes).  ``task`` is
    the registry-issued key the tier refcounts under; ``tenant`` /
    ``qos`` govern quota charging and eviction priority.
    """

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        client: CacheClient,
        server: DieselServer,
        dataset: str,
        calibration: Calibration,
        tier,
        task: str,
        tenant: str = "default",
        qos: str = "batch",
    ) -> None:
        self.env = env
        self.client = client
        self.node = client.node
        self.server = server
        self.dataset = dataset
        self.cal = calibration
        self.tier = tier
        self.task = task
        self.tenant = tenant
        self.qos = qos
        self.assigned: List[str] = []  # encoded chunk ids
        self._held: Dict[str, int] = {}
        self.stats = CacheMasterStats()
        #: Observability recorder for this master's own spans
        #: (propagated by TaskCache; the tier's comes from its registry).
        self.recorder = None
        self.endpoint = RpcEndpoint(
            env,
            fabric,
            client.node,
            f"cache:{client.name}",
            handler=self._handle,
            service_s=calibration.diesel.peer_fetch_overhead_s,
            workers=16,
        )

    @property
    def up(self) -> bool:
        return self.endpoint.up

    @property
    def store(self):
        """The chunk store behind this master's node tier (read-only)."""
        return self.tier.store

    def has_chunk(self, encoded_cid: str) -> bool:
        return encoded_cid in self._held

    @property
    def cached_chunk_count(self) -> int:
        return len(self._held)

    def nbytes_of(self, encoded_cid: str) -> int:
        """Encoded size of a chunk this master can serve (0 = none) —
        what a peer's ``get_chunk`` reply weighs on the wire."""
        return self._held.get(encoded_cid) or self.tier.nbytes_of(
            self.dataset, encoded_cid
        )

    def _ram_chunk(self, encoded_cid: str) -> Optional[Chunk]:
        """This master's RAM-resident copy of a chunk (free to read);
        ``None`` when not held — or resident on the disk tier only,
        which must charge a device read (``tier.read_resident``)."""
        if encoded_cid not in self._held:
            return None
        return self.tier.peek(self.dataset, encoded_cid)

    def _handle(self, method: str, *args: Any) -> Any:
        if method in ("get_file", "get_chunk"):
            return self._serve(*args)
        if method == "has_chunk":
            return self.has_chunk(args[0])
        if method == "pull_chunk":
            return self._handle_pull(args)
        raise DieselError(f"unknown cache method {method!r}")

    def _serve(
        self, encoded_cid: str, path: Optional[str] = None
    ) -> Generator[Event, Any, Any]:
        """Answer a peer's ``get_file`` (one payload) or ``get_chunk``
        (the resident :class:`Chunk` itself, by reference — the caller
        sizes the reply from :meth:`nbytes_of`).

        RAM first; a disk-resident chunk charges its device read to the
        caller's RPC (Fig 4's chain gains a tier between RAM and
        server); a copy only other tasks reference serves too.  ``None``
        when not resident — the caller falls back to the backend.
        """
        tier = self.tier
        chunk = self._ram_chunk(encoded_cid)
        if chunk is None:
            if tier.disk_resident(self.dataset, encoded_cid):
                chunk = yield from tier.read_resident(
                    self.dataset, encoded_cid
                )
            else:
                chunk = tier.peek(self.dataset, encoded_cid)
                if chunk is not None:
                    tier.note_cross_task_read()
        if chunk is None or (path is not None and path not in chunk):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return chunk if path is None else chunk.payload(path, verify=False)

    def _fetch(
        self,
        cids: Sequence[str],
        donor: Optional["CacheMaster"],
        from_peer: List[str],
    ) -> Generator[Event, Any, List[Tuple[Chunk, int]]]:
        """Bring cold chunks to this node: from ``donor`` (a peer master
        still holding them — the elastic-membership source, so scale
        events never re-read the object store for resident data) with
        the backend behind it, else straight from the backend in one
        vectorized ``call_batch`` of ``get_chunk``s.  Cids the donor
        served are appended to ``from_peer``.
        """
        got: Dict[str, Tuple[Chunk, int]] = {}
        if donor is not None and donor.up:
            for cid in cids:
                nbytes = donor.nbytes_of(cid)
                try:
                    chunk = yield from donor.endpoint.call(
                        self.node, "get_chunk", cid,
                        response_bytes=nbytes or None,
                    )
                except (NodeDownError, CachePeerDownError):
                    break
                if chunk is not None:
                    got[cid] = (chunk, nbytes)
                    from_peer.append(cid)
        backend = [cid for cid in cids if cid not in got]
        if backend:
            blobs = yield from self.server.call_batch(
                self.node,
                [("get_chunk", self.dataset, cid) for cid in backend],
            )
            for cid, blob in zip(backend, blobs):
                got[cid] = (Chunk.decode(blob), len(blob))
        return [got[cid] for cid in cids]

    def pull(
        self, cids: Sequence[str], donor: Optional["CacheMaster"] = None
    ) -> Generator[Event, Any, Tuple[int, int]]:
        """Admit ``cids`` through the node tier and record the
        references granted — the one way this master comes to hold a
        chunk (warmup, recovery, on-demand fill, hot-chunk replication,
        scale-event warm/drain).

        The tier owns single-flight (n clients faulting a chunk at
        once, warmup racing an on-demand fill, another task's pull —
        late arrivals wait and count as ``coalesced_pulls``), quota,
        QoS and placement; a chunk it refuses stays server-resident
        (reads for it fall through, Fig 4) and counts as
        ``skipped_no_memory``.  Returns ``(held, from_peer)``: how many
        of ``cids`` are now held, and how many of those ``donor``
        supplied instead of the backend.
        """
        missing = [cid for cid in cids if cid not in self._held]
        if missing:
            from_peer: List[str] = []
            admitted = yield from self.tier.admit(
                self, missing,
                lambda cold: self._fetch(cold, donor, from_peer),
            )
            for cid, nbytes in admitted.items():
                if cid in self._held:
                    continue  # a concurrent pull of ours landed it first
                self._held[cid] = nbytes
                self.stats.chunks_loaded += 1
                self.stats.bytes_cached += nbytes
            self.stats.skipped_no_memory += len(missing) - len(admitted)
            held = len(cids) - len(missing) + len(admitted)
            return held, sum(cid in admitted for cid in from_peer)
        return len(cids), 0

    def _handle_pull(self, cids: Sequence[str]) -> Generator[Event, Any, int]:
        """A peer's ``pull_chunk`` (the on-demand fill); a dead node
        pulls nothing."""
        if not self.node.alive:
            return 0
        held, _ = yield from self.pull(cids)
        return held

    def _note_pull_inflight(self, n: int) -> None:
        if n > self.stats.pull_inflight_hwm:
            self.stats.pull_inflight_hwm = n

    def _bring(
        self, cid: str, donor: Optional["CacheMaster"], landed
    ) -> Generator[Event, Any, Tuple[int, int]]:
        """One :meth:`pull_all` worker.  A chunk that cannot be brought
        — this node, the donor and the backend behind it, or the server
        died — is simply not held: reads for it fall through (Fig 4)."""
        got = (0, 0)
        if self.node.alive:
            try:
                got = yield from self.pull([cid], donor)
            except (NodeDownError, CachePeerDownError, DieselError):
                pass
        if landed is not None:
            landed(cid)
        return got

    def pull_all(
        self,
        moves: Sequence[Tuple[str, Optional["CacheMaster"]]],
        op: str,
        width: Optional[int] = None,
        landed=None,
    ) -> Generator[Event, Any, Tuple[int, int]]:
        """The bulk-pull pipeline: bring ``moves`` — ``(cid, donor)``
        pairs, ``donor`` as in :meth:`pull` — to this node, as many in
        flight as the node can receive.  Warm-up, recovery and both
        scale moves all go through here.

        The width is this node's ingress channel count: a chunk more
        than that in flight would only queue at the NIC.  ``width``
        replaces it for a caller measuring the shape (the Fig 11b
        sweep).  ``landed(cid)`` runs after each chunk's own pull, held
        or not — the drain's per-chunk ownership flip.  Returns
        ``(held, from_peer)`` summed over ``moves``.
        """
        if not moves:
            return 0, 0
        if width is None:
            width = self.node.ingress.channels
        results = yield from fan_out(
            self.env,
            [self._bring(cid, donor, landed) for cid, donor in moves],
            min(width, len(moves)),
            name=f"{op}:{self.client.name}",
            watermark=self._note_pull_inflight,
        )
        return sum(r[0] for r in results), sum(r[1] for r in results)

    def fill(
        self, op: str, width: Optional[int] = None
    ) -> Generator[Event, Any, int]:
        """Pull every assigned chunk not yet held — the oneshot warm-up
        at registration (``op="warmup"``) and the re-stream at recovery
        (``op="recover"``).  Returns the number of chunks actually
        cached (refused chunks do not count).
        """
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        loaded, _ = yield from self.pull_all(
            [(cid, None) for cid in self.assigned if cid not in self._held],
            op, width,
        )
        if rec is not None:
            rec.record(op, "master", self.env.now - t0,
                       actor=self.client.name, chunks=loaded)
        return loaded

    def release(self) -> None:
        """Drop every reference this master holds.  The chunks stay
        resident at refcount 0; what becomes of them is the tier
        owner's call (``TaskCache._retire``)."""
        self.tier.release_task(self.task, self.tenant)
        self._held.clear()


class TaskCache:
    """The per-task distributed cache spanning all the task's clients."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        server: DieselServer,
        dataset: str,
        clients: Sequence[CacheClient],
        policy: str = "oneshot",
        calibration: Calibration = DEFAULT,
        placement: str = "hash",
        hot_chunk_threshold: int = 0,
        shared=None,
        tenant: str = "default",
        qos_class: str = "batch",
    ) -> None:
        if not clients:
            raise DieselError("a task cache needs at least one client")
        if policy not in ("oneshot", "on-demand"):
            raise DieselError(f"unknown cache policy {policy!r}")
        if placement not in ("hash", "locality"):
            raise DieselError(f"unknown cache placement {placement!r}")
        if qos_class not in ("interactive", "batch"):
            raise DieselError(f"unknown QoS class {qos_class!r}")
        if hot_chunk_threshold < 0:
            raise DieselError("hot_chunk_threshold must be >= 0")
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise DieselError("client names must be unique")
        self.env = env
        self.fabric = fabric
        self.server = server
        self.dataset = dataset
        self.policy = policy
        #: Chunk-placement policy: ``hash`` (round-robin ring) or
        #: ``locality`` (co-located contiguous slices, ring spill).
        self.placement = placement
        #: Remote reads of one chunk from one node before it is
        #: replicated onto that node's master (0 = off).
        self.hot_chunk_threshold = hot_chunk_threshold
        self.cal = calibration
        #: Node chunk-tier registry every master of this task admits
        #: through (:class:`~repro.core.shared_cache.SharedCacheRegistry`).
        #: A task given none builds its own — one tenant, one task, RAM
        #: store — and that is the whole of "task-private": the one
        #: difference is lifetime (:meth:`_retire`).  For a private
        #: tiered cache, pass a ``store="tiered"`` registry no other
        #: task uses.  ``tenant`` names the quota account this task's
        #: resident bytes charge; ``qos_class`` sets its admission
        #: priority (interactive admissions may evict the batch warm
        #: pool, not vice versa).
        self.shared = shared or SharedCacheRegistry(env)
        self._owns_tier = self.shared is not shared
        self.tenant = tenant
        self.qos_class = qos_class
        #: Registry-issued key the tier refcounts this task under
        #: (assigned at register()).
        self.task_key: Optional[str] = None
        #: The task's counters, moved in place (read :attr:`stats`), and
        #: the counters of the masters that have left the task.
        self._stats = TaskCacheStats()
        self._departed = CacheMasterStats()
        self.clients = list(clients)
        self.connections = ConnectionTable()
        self.masters: Dict[str, CacheMaster] = {}  # node name -> master
        self._owner_of: Dict[str, CacheMaster] = {}  # encoded cid -> master
        self._registered = False
        self._prefetch_procs: list = []
        self._recorder = None
        #: Fault-tolerance hooks (all optional; None = legacy behaviour).
        #: ``failure_listener.report_failure(master)`` is called when an
        #: in-flight peer call fails — the CacheSupervisor wires itself
        #: in here so detection does not wait for the next heartbeat.
        self.failure_listener = None
        self._retry_policy = None
        self._breakers: Dict[str, Any] = {}  # master client name -> breaker
        self._breaker_args: tuple = ()  # (threshold, reset_s) once configured
        self._rng = None
        #: The read-ahead accounting every reader's chunk window of this
        #: task shares.
        self.readahead = WindowStats()
        #: Remote-read tallies per (encoded cid, reader node) feeding
        #: hot-chunk replication, and the replication kicks in flight.
        self._remote_reads: Dict[tuple, int] = {}
        self._replicating: set = set()
        #: On-demand background pulls dropped because the master died.
        self.dropped_pulls = 0
        #: Elastic membership: bumped on every live scale_up/scale_down
        #: so epoch schedulers and prefetchers can re-pin their plans.
        self.membership_version = 0
        #: ``(time, event, names)`` for every live membership change.
        self.scale_events: List[tuple] = []
        self._membership_listeners: List[Any] = []
        #: Hedged-read machinery (None = single-attempt peer path; see
        #: ``configure_hedging``).
        self._hedge_delay_s = 0.0
        self._hedged_call = None
        self.peer_latency = None
        self.hedge_stats = None
        #: Which layer served the most recent read_file — published for
        #: the client's span attribution (only updated while a recorder
        #: is attached, so the bare hot path stays untouched).
        self.last_resolution = "task_cache"

    @property
    def stats(self) -> TaskCacheStats:
        """The task's counters with the derived fields refreshed
        (plugs into ``stats_row``)."""
        s = self._stats
        ra = self.readahead
        s.readahead_hits = ra.prefetch_hits
        s.readahead_misses = ra.prefetch_misses
        s.readahead_wasted = ra.prefetch_wasted
        hs = self.hedge_stats
        if hs is not None:
            s.hedges_fired = hs.hedges_fired
            s.hedge_wins = hs.backup_wins
            s.hedge_duplicates = hs.duplicate_transfers
        masters = self._master_totals()
        s.coalesced_pulls = masters.coalesced_pulls
        s.replicated_chunks = masters.replicated_chunks
        return s

    def _master_totals(self) -> CacheMasterStats:
        """Every master's counters since registration, departed ones
        included — cumulative counters never drop on a membership
        change."""
        return CacheMasterStats.total(
            [self._departed, *(m.stats for m in self.masters.values())]
        )

    @property
    def recorder(self):
        """Attached observability recorder (None = disabled)."""
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        """Propagate the recorder to every cache master and its
        endpoint — and to the node tiers when this task owns them; a
        registry passed in is attached on its own (it outlives, and is
        shared beyond, any one task)."""
        self._recorder = value
        if self._owns_tier:
            self.shared.recorder = value
        for m in self.masters.values():
            m.recorder = value
            m.endpoint.recorder = value

    # ------------------------------------------------------- fault tolerance
    def configure_ft(
        self,
        policy,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
    ) -> None:
        """Wrap every peer fetch in ``policy`` (a
        :class:`repro.ft.retry.RetryPolicy`) with per-master circuit
        breakers — ``ShardedKV.configure_ft``'s signature.  Without
        this call the peer path is a single attempt with no breaker;
        either way a mid-call peer death degrades to the server.
        """
        import random

        self._retry_policy = policy
        self._breaker_args = (breaker_threshold, breaker_reset_s)
        self._breakers.clear()
        # Seeded: retry jitter must not vary run to run.
        self._rng = random.Random(0xD1E5E1)

    def configure_hedging(self, delay_s: float = 0.0) -> None:
        """Enable hedged reads on the remote-peer path.

        Once a remote ``get_file`` outlives its hedge delay — fixed
        (``delay_s > 0``) or calibrated per peer from the EWMA latency
        tracker (``mean + 4·dev`` ≈ p95) — a backup request is
        fired to a replica master holding the chunk (steered to the
        fastest peer by EWMA) or to the backend, and whichever answers
        first wins; the loser is cancelled so its NIC channels and RPC
        worker slots drain through their ``finally`` blocks.  While a
        read is hedged it bypasses retry/breaker (the backup *is* the
        recovery path); local fast paths are never hedged.
        """
        from repro.ft.hedge import HedgeStats, PeerLatencyTracker, hedged_call

        self._hedge_delay_s = delay_s
        if self._hedged_call is None:
            self._hedged_call = hedged_call
            self.peer_latency = PeerLatencyTracker()
            self.hedge_stats = HedgeStats()

    # --------------------------------------------------- elastic membership
    def add_membership_listener(self, callback) -> None:
        """Register ``callback(event, names)`` fired on every live
        scale_up/scale_down (``event`` is the string, ``names`` the
        affected master client names / node names)."""
        self._membership_listeners.append(callback)

    def _notify_membership(self, event: str, names: Sequence[str]) -> None:
        self.scale_events.append((self.env.now, event, tuple(names)))
        rec = self._recorder
        if rec is not None:
            rec.count(f"cache_{event}", "task_cache")
        for cb in list(self._membership_listeners):
            cb(event, names)

    def _breaker_for(self, master: CacheMaster):
        breaker = self._breakers.get(master.client.name)
        if breaker is None:
            from repro.ft.breaker import CircuitBreaker

            breaker = CircuitBreaker(
                self.env, *self._breaker_args, name=master.client.name
            )
            self._breakers[master.client.name] = breaker
        return breaker

    def _note_peer_failure(self, master: CacheMaster) -> None:
        listener = self.failure_listener
        if listener is not None:
            listener.report_failure(master)
        rec = self._recorder
        if rec is not None:
            rec.count("ft_peer_failure", "task_cache")

    # ------------------------------------------------------------ lifecycle
    def register(
        self, fanout: Optional[int] = None
    ) -> Generator[Event, Any, dict]:
        """Register the task: elect masters, partition chunks, connect.

        Returns the server's registration summary.  Under the ``oneshot``
        policy, background prefetch processes are started (registration
        does not wait for them; see :meth:`wait_warm`), every master
        filling its partition through :meth:`CacheMaster.pull_all` at
        the width its node can receive; ``fanout`` replaces that width
        for this one warm-up.
        """
        if self._registered:
            raise DieselError("task cache already registered")
        # Any client can perform registration; use the global lowest rank.
        leader = min(self.clients, key=lambda c: (c.rank, c.name))
        summary = yield from self.server.call(
            leader.node, "register", self.dataset, leader.name,
            self.tenant, self.qos_class,
        )
        self.task_key = self.shared.next_task_id()
        self._elect_masters(self.clients)
        # Deterministic chunk partitioning over sorted masters.
        master_list = [self.masters[k] for k in sorted(self.masters)]
        chunk_ids = summary["chunk_ids"]
        if self.placement == "locality":
            self._partition_locality(
                chunk_ids, master_list, summary.get("chunk_sizes") or {}
            )
        else:
            # hash: round-robin ring (the consistent-hash spread).
            for i, encoded_cid in enumerate(chunk_ids):
                owner = master_list[i % len(master_list)]
                owner.assigned.append(encoded_cid)
                self._owner_of[encoded_cid] = owner
        # Every client connects to every master: p×(n−1) connections.
        for c in self.clients:
            for m in master_list:
                self.connections.connect(c.name, m.client.name)
        if self.policy == "oneshot":
            for m in master_list:
                proc = self.env.process(
                    m.fill("warmup", fanout),
                    name=f"prefetch:{m.client.name}",
                )
                self._prefetch_procs.append(proc)
        self._registered = True
        return summary

    def _elect_masters(
        self, clients: Sequence[CacheClient]
    ) -> List[CacheMaster]:
        """Master election (§4.2): on every node of ``clients`` that has
        no master yet, the lowest-ranked client becomes one, admitting
        through that node's chunk tier.  Returns the new masters in
        node order."""
        by_node: Dict[str, CacheClient] = {}
        for c in clients:
            if c.node.name in self.masters:
                continue
            cur = by_node.get(c.node.name)
            if cur is None or (c.rank, c.name) < (cur.rank, cur.name):
                by_node[c.node.name] = c
        elected = []
        for node_name in sorted(by_node):
            client = by_node[node_name]
            master = CacheMaster(
                self.env, self.fabric, client, self.server, self.dataset,
                self.cal, self.shared.for_node(client.node),
                self.task_key, self.tenant, self.qos_class,
            )
            if self._recorder is not None:
                master.recorder = self._recorder
                master.endpoint.recorder = self._recorder
            self.masters[node_name] = master
            elected.append(master)
        return elected

    def _retire(self, master: CacheMaster) -> None:
        """A master leaves (deregistration, scale-down): drop its
        references.  The lifetime rule — the one thing that tells a
        task-private cache from a shared one: a tier this task built
        for itself has no other user, so it is emptied and its memory
        returned to the node; a tier passed in keeps the chunks as its
        warm pool (refcount 0, reclaimed by eviction)."""
        master.release()
        if self._owns_tier:
            master.tier.clear()

    def _drop(self, master: CacheMaster) -> None:
        """Take a dead or departing master out of the task; its counters
        fold into the task's cumulative totals."""
        del self.masters[master.node.name]
        self.connections.drop_endpoint(master.client.name)
        self._departed = CacheMasterStats.total((self._departed, master.stats))

    def _partition_locality(
        self,
        chunk_ids: Sequence[str],
        master_list: Sequence[CacheMaster],
        chunk_sizes: Dict[str, int],
    ) -> None:
        """Locality placement: contiguous slices with capacity-aware spill.

        Master *k* owns slice *k* of the chunk list, so each node's
        partition forms one owner bucket the owner-bucketed shuffle and
        the affinity scheduler keep aligned with the co-located worker.
        A node only takes chunks up to ``LOCALITY_SPILL_RATIO`` of its
        free memory (budgeted in bytes via the registration summary's
        chunk sizes); overflow spills deterministically round-robin over
        the ring, to the first node with budget left.  When every budget
        is exhausted the plain ring assignment applies — memory pressure
        is then handled at pull time (``skipped_no_memory``, §4.2).
        """
        p = len(master_list)
        budgets = [
            int(m.node.memory.level * LOCALITY_SPILL_RATIO)
            for m in master_list
        ]
        fills = [0] * p
        per_slice = -(-len(chunk_ids) // p)  # ceil division

        def assign(k: int, encoded_cid: str) -> None:
            fills[k] += chunk_sizes.get(encoded_cid, 0)
            master_list[k].assigned.append(encoded_cid)
            self._owner_of[encoded_cid] = master_list[k]

        spilled: list[str] = []
        for k in range(p):
            for encoded_cid in chunk_ids[k * per_slice : (k + 1) * per_slice]:
                size = chunk_sizes.get(encoded_cid, 0)
                if fills[k] + size > budgets[k]:
                    spilled.append(encoded_cid)
                else:
                    assign(k, encoded_cid)
        for i, encoded_cid in enumerate(spilled):
            size = chunk_sizes.get(encoded_cid, 0)
            k = next(
                (
                    (i + j) % p
                    for j in range(p)
                    if fills[(i + j) % p] + size <= budgets[(i + j) % p]
                ),
                i % p,
            )
            assign(k, encoded_cid)

    def chunk_owner_node(self, chunk_id) -> Optional[str]:
        """Name of the node whose master owns ``chunk_id`` (or ``None``).

        Accepts a :class:`~repro.util.ids.ChunkId` or its encoded form —
        this is the ``owner_of`` hook the owner-bucketed shuffle
        (:func:`repro.core.shuffle.chunkwise_shuffle`) and the affinity
        scheduler consume.
        """
        encoded = chunk_id if isinstance(chunk_id, str) else chunk_id.encode()
        master = self._owner_of.get(encoded)
        return master.node.name if master is not None else None

    def wait_warm(self) -> Generator[Event, Any, int]:
        """Block until all oneshot prefetches finish; returns chunks loaded."""
        total = 0
        for proc in self._prefetch_procs:
            loaded = yield proc
            total += loaded
        return total

    def deregister(self) -> int:
        """Tear the task down: drop every tier reference it holds.

        Safe mid-epoch.  On a tier other tasks share, the chunks this
        task admitted stay resident as the warm pool at refcount 0, so
        concurrent tasks keep hitting them and a later task re-warms
        instead of re-fetching; a tier of the task's own is emptied
        (:meth:`_retire`).  Returns the number of chunks that were held.
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        held = 0
        for m in self.masters.values():
            held += m.cached_chunk_count
            self._retire(m)
        self._registered = False
        return held

    # ------------------------------------------------------------ accounting
    def connection_count(self) -> int:
        return self.connections.count()

    def expected_connection_count(self) -> int:
        """The paper's p×(n−1) (self-connections excluded)."""
        p = len(self.masters)
        n = len(self.clients)
        return p * n - p  # each master's self-connection is not counted

    def cached_chunks(self) -> int:
        return sum(m.cached_chunk_count for m in self.masters.values())

    def hit_ratio(self) -> float:
        m = self._master_totals()
        total = m.hits + m.misses
        return m.hits / total if total else 0.0

    def owner_of(self, encoded_cid: str) -> CacheMaster:
        try:
            return self._owner_of[encoded_cid]
        except KeyError:
            raise DieselError(
                f"chunk {encoded_cid} is not part of this task's dataset"
            ) from None

    # ------------------------------------------------------------- data path
    #: Span layer of each tier a read is credited to (else "server").
    _LAYER_OF = {
        "local_hits": "local_master",
        "disk_hits": "disk_tier",
        "shared_hits": "shared_tier",
        "remote_hits": "task_cache",
    }

    def credit_read(self, tier: str) -> None:
        """Count one file read against the tier its chunk resolved from
        (a hit-counter name; ``""`` = a clean miss the server served)."""
        if tier:
            s = self._stats
            setattr(s, tier, getattr(s, tier) + 1)

    def read_file(
        self, client: CacheClient, record: FileRecord
    ) -> Generator[Event, Any, bytes]:
        """:meth:`resolve_file`, payload only."""
        payload, _ = yield from self.resolve_file(client, record)
        return payload

    def resolve_file(
        self, client: CacheClient, record: FileRecord
    ) -> Generator[Event, Any, Tuple[bytes, str]]:
        """Read one file through the cache (one-hop peer fetch) — the
        path for unplanned single-file reads; plan-ordered readers take
        :meth:`read_chunk` behind a chunk window.  Returns ``(payload,
        tier)``: the tier the read was credited to (:meth:`credit_read`).

        Miss and peer-failure behaviour follows Fig 4: the file read falls
        through to the DIESEL server; under ``on-demand`` the owning
        master pulls the chunk in the background so later reads hit.
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        encoded_cid = record.chunk_id.encode()
        master = self.owner_of(encoded_cid)
        chunk, tier = yield from self._local_chunk(
            client, master, encoded_cid, record.path
        )
        if chunk is not None:
            payload = chunk.payload(record.path, verify=False)
            self.credit_read(tier)
            yield self.env.timeout(
                self.fabric.local_latency_s
                + len(payload) / self.fabric.local_bandwidth_bps
            )
        else:
            def from_server():
                return self.server.call(
                    client.node, "get_file", self.dataset, record.path,
                    response_bytes=record.length,
                )

            payload, tier = yield from self._ask_owner(
                client, master, "get_file", (encoded_cid, record.path),
                record.length, from_server,
            )
            self.credit_read(tier)
            if payload is None:
                payload = yield from from_server()
        if rec is not None:
            self.last_resolution = self._LAYER_OF.get(tier, "server")
            rec.record("cache_read", self.last_resolution,
                       self.env.now - t0, actor=client.name,
                       path=record.path)
        return payload, tier

    def read_chunk(
        self, client: CacheClient, encoded_cid: str
    ) -> Generator[Event, Any, Tuple[Chunk, str]]:
        """:meth:`read_file`'s chain at the granularity §4.2 caches and
        §4.3 schedules.  Returns ``(chunk, tier)``: the resident
        :class:`Chunk` itself (aliased, never copied) and the tier to
        :meth:`credit_read` for each file then served out of it.
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        self._stats.chunk_fetches += 1
        master = self.owner_of(encoded_cid)
        chunk, tier = yield from self._local_chunk(client, master, encoded_cid)
        if chunk is not None:
            yield self.env.timeout(
                self.fabric.local_latency_s
                + chunk.data_size / self.fabric.local_bandwidth_bps
            )
        else:
            def from_server():
                blob = yield from self.server.call(
                    client.node, "get_chunk", self.dataset, encoded_cid,
                    response_bytes=None,
                )
                return Chunk.decode(blob)

            chunk, tier = yield from self._ask_owner(
                client, master, "get_chunk", (encoded_cid,),
                master.nbytes_of(encoded_cid) or None, from_server,
            )
            if chunk is None:
                chunk = yield from from_server()
        if rec is not None:
            rec.record("chunk_fetch", self._LAYER_OF.get(tier, "server"),
                       self.env.now - t0, actor=client.name,
                       chunk=encoded_cid[:12])
        return chunk, tier

    def _local_chunk(
        self,
        client: CacheClient,
        master: CacheMaster,
        encoded_cid: str,
        path: Optional[str] = None,
    ) -> Generator[Event, Any, Tuple[Optional[Chunk], str]]:
        """The node-local head of the Fig 4 chain, RAM before disk.

        The reader's own node's master (its partition, or a hot-chunk
        replica) serves a chunk it holds from memory with no RPC hop;
        anything else resident in the node's tier — demoted to its
        disk tier (a device read + decompress, promoting when memory
        allows), or admitted by another task — serves from there.
        ``path`` restricts a hit to chunks holding that file.  Returns
        ``(chunk, tier)`` or ``(None, "")``; the caller charges the
        intra-node copy.
        """
        local = self.masters.get(client.node.name)
        serving = master
        if (
            local is not None
            and local is not master
            and local.up
            and local.has_chunk(encoded_cid)
        ):
            serving = local
        mine = (
            serving.node is client.node
            and serving.up
            and serving.has_chunk(encoded_cid)
        )
        if mine:
            chunk = serving._ram_chunk(encoded_cid)
            if chunk is not None and (path is None or path in chunk):
                serving.stats.hits += 1
                return chunk, "local_hits"
        if client.node.alive:
            node_tier = self.shared.for_node(client.node)
            chunk = node_tier.peek(self.dataset, encoded_cid)
            tier = "shared_hits"
            if chunk is None and node_tier.disk_resident(
                self.dataset, encoded_cid
            ):
                chunk = yield from node_tier.read_resident(
                    self.dataset, encoded_cid
                )
                tier = "disk_hits"
            if chunk is not None and (path is None or path in chunk):
                if mine:  # this task's own chunk, off the disk tier
                    serving.stats.hits += 1
                else:
                    node_tier.note_cross_task_read()
                return chunk, tier
        return None, ""

    def _ask_owner(
        self,
        client: CacheClient,
        master: CacheMaster,
        method: str,
        args: tuple,
        response_bytes: Optional[int],
        from_server,
    ) -> Generator[Event, Any, Tuple[Any, str]]:
        """The owner-peer leg: one ``method(*args)`` call (``args[0]``
        the encoded chunk id) hedged for remote owners, else under
        retry + breaker, else a single attempt.

        Returns ``(value, tier)``; tier is ``""`` when the backend won a
        hedge.  ``None`` sends the caller to the server: tier
        ``"degraded_reads"`` when the owner is down, died mid-call or
        its breaker is open (feeding the detector now collapses
        detection latency to the first read that noticed), ``""`` for a
        clean miss — ``on-demand`` then pulls the chunk in background.
        """
        value, source = None, "degraded"
        if master.up:
            try:
                if (
                    self._hedged_call is not None
                    and master.node is not client.node
                ):
                    value, source = yield from self._hedged_read(
                        client, master, method, args, response_bytes,
                        from_server,
                    )
                elif self._retry_policy is not None:
                    value = yield from master.endpoint.call_with_retry(
                        self._retry_policy, client.node, method, *args,
                        rng=self._rng, breaker=self._breaker_for(master),
                        response_bytes=response_bytes,
                    )
                    source = "peer"
                else:
                    value = yield from master.endpoint.call(
                        client.node, method, *args,
                        response_bytes=response_bytes,
                    )
                    source = "peer"
            except CircuitOpenError:
                # Known-bad peer: short-circuit straight to the server
                # without paying another attempt.
                pass
            except (NodeDownError, DeadlineExceededError):
                self._note_peer_failure(master)
        else:
            self._note_peer_failure(master)
        if source == "degraded":
            return None, "degraded_reads"
        if value is None:
            if self.policy == "on-demand" and master.up:
                # Kick a background chunk pull; don't wait for it.
                self.env.process(
                    self._background_pull(client, master, args[0]),
                    name=f"pull:{args[0][:8]}",
                )
            return None, ""
        if source == "server":
            return value, ""
        if source == "peer":
            if master.node is client.node:
                return value, "local_hits"
            self._note_remote_read(client, master, args[0])
        return value, "remote_hits"

    def _background_pull(
        self, client: CacheClient, master: CacheMaster, encoded_cid: str
    ) -> Generator[Event, Any, None]:
        """On-demand fill, decoupled from the read that triggered it.

        The read already fell through to the server, so this pull is
        pure opportunism: if the master (or the server behind it) dies
        mid-pull, log-and-drop — an orphaned failure must never
        propagate into the engine or stall the training loop.
        """
        try:
            yield from master.endpoint.call(
                client.node, "pull_chunk", encoded_cid
            )
        except (NodeDownError, CachePeerDownError):
            self.dropped_pulls += 1
            self._note_peer_failure(master)
            rec = self._recorder
            if rec is not None:
                rec.count("ft_dropped_pull", "task_cache")

    # ---------------------------------------------------------- hedged reads
    def _peer_attempt(
        self,
        client: CacheClient,
        master: CacheMaster,
        method: str,
        args: tuple,
        response_bytes: Optional[int],
    ) -> Generator[Event, Any, Any]:
        """One unprotected peer call, feeding the latency tracker —
        keyed by ``(peer, method)``: a ``get_file`` reply is KBs and a
        ``get_chunk`` reply MiBs, so one EWMA over both would calibrate
        a hedge delay that is wrong for each."""
        t0 = self.env.now
        value = yield from master.endpoint.call(
            client.node, method, *args, response_bytes=response_bytes
        )
        if self.peer_latency is not None:
            self.peer_latency.observe(
                (master.client.name, method), self.env.now - t0
            )
        return value

    def _hedge_backup_target(
        self, master: CacheMaster, method: str, encoded_cid: str
    ) -> Optional[CacheMaster]:
        """The replica master a hedge backup should hit: any other up
        master holding the chunk, steered to the peer with the lowest
        EWMA for ``method``."""
        candidates = [
            m
            for m in self.masters.values()
            if m is not master and m.up and m.has_chunk(encoded_cid)
        ]
        if not candidates:
            return None
        if len(candidates) == 1 or self.peer_latency is None:
            return candidates[0]
        by_key = {(m.client.name, method): m for m in candidates}
        return by_key[self.peer_latency.fastest(by_key)]

    def _hedge_backup_read(
        self,
        client: CacheClient,
        master: CacheMaster,
        method: str,
        args: tuple,
        response_bytes: Optional[int],
        from_server,
    ) -> Generator[Event, Any, Tuple[str, Any]]:
        """The backup leg of a hedge: replica master if one holds the
        chunk (EWMA-steered), else the backend."""
        replica = self._hedge_backup_target(master, method, args[0])
        if replica is not None:
            try:
                value = yield from self._peer_attempt(
                    client, replica, method, args, response_bytes
                )
            except (NodeDownError, CachePeerDownError):
                value = None
            if value is not None:
                return "replica", value
        value = yield from from_server()
        return "server", value

    def _hedged_read(
        self,
        client: CacheClient,
        master: CacheMaster,
        method: str,
        args: tuple,
        response_bytes: Optional[int],
        from_server,
    ) -> Generator[Event, Any, Tuple[Any, str]]:
        """Remote read with a hedge: race the owner against a delayed
        backup.  Returns ``(value, source)`` with source ``"peer"``
        (owner answered — value None means a clean miss), ``"replica"``
        or ``"server"`` (the backup won or the owner failed mid-race).

        Until the peer's latency tracker is calibrated (or with an
        uncalibratable fixed delay of 0), reads stay unhedged — they
        just feed the tracker.
        """
        delay = self._hedge_delay_s
        if delay <= 0.0:
            calibrated = self.peer_latency.hedge_delay(
                (master.client.name, method)
            )
            if calibrated is None:
                value = yield from self._peer_attempt(
                    client, master, method, args, response_bytes
                )
                return value, "peer"
            delay = calibrated
        outcome = yield from self._hedged_call(
            self.env,
            self._peer_attempt(client, master, method, args, response_bytes),
            lambda: self._hedge_backup_read(
                client, master, method, args, response_bytes, from_server
            ),
            delay,
            stats=self.hedge_stats,
            name=f"hedge:{args[0][:8]}",
        )
        err = outcome.primary_error
        if err is not None and isinstance(
            err, (NodeDownError, CachePeerDownError, DeadlineExceededError)
        ):
            # The owner failed while the backup saved the read: feed the
            # detector exactly like the unhedged failure path.
            self._note_peer_failure(master)
        if outcome.winner == "primary":
            return outcome.value, "peer"
        source, value = outcome.value
        return value, source

    # ------------------------------------------------- hot-chunk replication
    def _note_remote_read(
        self, client: CacheClient, master: CacheMaster, encoded_cid: str
    ) -> None:
        """Tally a cross-node hit; replicate the chunk once it runs hot.

        When one node keeps paying the RPC hop for the same chunk
        (``hot_chunk_threshold`` remote reads), the chunk is pulled onto
        that node's master in the background so later reads take the
        local fast path.  Replicas live in the master's chunk map but
        not in ``assigned`` — ownership, and therefore recovery, is
        unchanged.
        """
        if self.hot_chunk_threshold <= 0:
            return
        local = self.masters.get(client.node.name)
        if (
            local is None
            or local is master
            or not local.up
            or local.has_chunk(encoded_cid)
        ):
            return
        key = (encoded_cid, client.node.name)
        n = self._remote_reads.get(key, 0) + 1
        self._remote_reads[key] = n
        if n >= self.hot_chunk_threshold and key not in self._replicating:
            self._replicating.add(key)
            self.env.process(
                self._replicate(local, encoded_cid),
                name=f"replicate:{encoded_cid[:8]}",
            )

    def _replicate(
        self, local: CacheMaster, encoded_cid: str
    ) -> Generator[Event, Any, None]:
        """Background pull of a hot chunk onto the reader's master.

        Pure opportunism like :meth:`_background_pull`: failures are
        dropped (the owner keeps serving), and the tier's single-flight
        map already coalesces a concurrent warmup or on-demand fill of
        the same chunk.
        """
        try:
            cached, _ = yield from local.pull([encoded_cid])
        except (NodeDownError, CachePeerDownError, DieselError):
            return
        if cached:
            local.stats.replicated_chunks += 1
            rec = self._recorder
            if rec is not None:
                rec.count("hot_replicate", "task_cache")

    # -------------------------------------------------------------- recovery
    def dead_masters(self) -> list[CacheMaster]:
        return [m for m in self.masters.values() if not m.up]

    def recover(
        self, fanout: Optional[int] = None
    ) -> Generator[Event, Any, int]:
        """Re-partition dead masters' chunks over survivors and reload them.

        Chunk-granular recovery: survivors stream whole chunks from the
        object store, exploiting sequential bandwidth (Fig 11b).
        The survivors re-stream concurrently, each as wide as its node
        can receive (``fanout`` replaces that width for this one
        recovery), so recovery time scales with the *largest
        partition*, not the orphaned total.  Returns the number of
        chunks re-loaded.
        """
        dead = self.dead_masters()
        if not dead:
            return 0
        survivors = [m for m in self.masters.values() if m.up]
        if not survivors:
            raise CachePeerDownError("all cache masters are down")
        # Forget the crashed nodes' tier residency (their memory died
        # with them; a disk tier survives).  Survivors re-pull through
        # their own tiers: chunks another task already holds there
        # warm-admit — refcounts are rebuilt, chunks are not duplicated
        # and the backend is not re-read for them.
        self.shared.purge_dead()
        orphaned: list[str] = []
        for m in dead:
            orphaned.extend(m.assigned)
            m.assigned = []
            self._drop(m)
        survivors.sort(key=lambda m: m.node.name)
        if self.placement == "locality":
            # Policy-preserving re-home: survivors' own partitions are
            # untouched (their nodes keep reading locally); an orphaned
            # chunk goes to a survivor already holding a replica of it
            # when one exists, else deals round-robin over the ring —
            # the same deterministic spill rule as registration.
            rr = 0
            for encoded_cid in orphaned:
                owner = next(
                    (m for m in survivors if m.has_chunk(encoded_cid)), None
                )
                if owner is None:
                    owner = survivors[rr % len(survivors)]
                    rr += 1
                owner.assigned.append(encoded_cid)
                self._owner_of[encoded_cid] = owner
        else:
            for i, encoded_cid in enumerate(orphaned):
                owner = survivors[i % len(survivors)]
                owner.assigned.append(encoded_cid)
                self._owner_of[encoded_cid] = owner
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        per_master = yield from fan_out(
            self.env,
            [m.fill("recover", fanout) for m in survivors],
            len(survivors),
            name="recover",
        )
        reloaded = sum(per_master)
        if rec is not None:
            rec.record("recover", "total", self.env.now - t0,
                       chunks=reloaded, survivors=len(survivors))
        return reloaded

    # ---------------------------------------------------- elastic membership
    def scale_up(
        self, new_clients: Sequence[CacheClient], warm: bool = True
    ) -> Generator[Event, Any, dict]:
        """Grow the task's membership live (no cold restart).

        New clients join the mesh; nodes without a master elect one
        (lowest rank per node, as at registration); each new master
        takes an equal share of chunks stolen from the most-loaded
        donors' partition tails — minimal movement: everything else
        stays owned, resident, and serving throughout.  With ``warm``,
        the new masters then admit their share *peer-to-peer* from the
        donors still holding those chunks (falling back to the backend),
        so warm-up never re-reads the object store for resident data;
        the donor keeps its copy as a replica, exactly like hot-chunk
        replication.  Reads of a moved chunk before it lands simply fall
        through to the server (Fig 4) — never an error.

        Bumps :attr:`membership_version` and fires membership listeners
        so epoch plans re-pin on the fly.  Returns a summary dict.
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        new_clients = list(new_clients)
        if not new_clients:
            raise DieselError("scale_up needs at least one client")
        taken = {c.name for c in self.clients}
        for c in new_clients:
            if c.name in taken:
                raise DieselError(f"client name {c.name!r} already in task")
            taken.add(c.name)
        new_masters = self._elect_masters(new_clients)
        # Mesh growth: new clients ↔ all masters, old clients ↔ new masters.
        all_masters = [self.masters[k] for k in sorted(self.masters)]
        for c in new_clients:
            for m in all_masters:
                self.connections.connect(c.name, m.client.name)
        for c in self.clients:
            for m in new_masters:
                self.connections.connect(c.name, m.client.name)
        self.clients.extend(new_clients)
        # Rebalance: equal-share steal from the largest partitions.
        moves: Dict[CacheMaster, List[Tuple[str, CacheMaster]]] = {}
        moved = 0
        if new_masters:
            target = len(self._owner_of) // len(self.masters)
            donors = [m for m in all_masters if m not in new_masters]
            for nm in new_masters:
                items: List[Tuple[str, CacheMaster]] = []
                for _ in range(target):
                    donor = max(donors, key=lambda m: len(m.assigned))
                    if len(donor.assigned) <= target:
                        break
                    encoded_cid = donor.assigned.pop()
                    self._owner_of[encoded_cid] = nm
                    nm.assigned.append(encoded_cid)
                    items.append((encoded_cid, donor))
                if items:
                    moves[nm] = items
                    moved += len(items)
        self._stats.scale_ups += 1
        self.membership_version += 1
        self._notify_membership(
            "scale_up", [m.client.name for m in new_masters]
        )
        warmed = peer_warmed = 0
        if warm and moves:
            results = yield from fan_out(
                self.env,
                [nm.pull_all(items, "scale_up") for nm, items in moves.items()],
                len(moves),
                name="scale_up",
            )
            warmed = sum(r[0] for r in results)
            peer_warmed = sum(r[1] for r in results)
        self._stats.peer_warmed_chunks += peer_warmed
        return {
            "new_masters": [m.client.name for m in new_masters],
            "moved_chunks": moved,
            "warmed_chunks": warmed,
            "peer_warmed": peer_warmed,
            "membership_version": self.membership_version,
        }

    def scale_down(
        self, nodes: Sequence[Any], drain: bool = True
    ) -> Generator[Event, Any, dict]:
        """Shrink the task's membership live, draining owned chunks.

        ``nodes`` are :class:`~repro.cluster.node.Node`\\ s or node
        names.  Each departing master's chunks are re-homed to a
        successor — a survivor already holding a replica when one exists
        (the locality policy's replica machinery), else dealt
        round-robin — and with ``drain`` the successor pulls each chunk
        *from the departing master* before ownership flips, so at every
        instant the chunk is resident and owned somewhere: reads keep
        resolving against the old owner until the copy lands, then
        against the new one.  Zero lost chunks, zero failed reads, no
        cold restart.  Departing clients leave the mesh afterwards.

        Returns a summary dict including ``lost_chunks`` (chunks whose
        successor could not admit them, e.g. out of memory — those fall
        back to server reads, they are not errors).
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        names = {n.name if isinstance(n, Node) else str(n) for n in nodes}
        if not names:
            raise DieselError("scale_down needs at least one node")
        departing = [self.masters[n] for n in sorted(names) if n in self.masters]
        survivors = [
            self.masters[k] for k in sorted(self.masters) if k not in names
        ]
        if departing and not survivors:
            raise DieselError("scale_down would remove every cache master")
        # Successor plan: replica-holding survivor first, else round-robin.
        plan: Dict[CacheMaster, List[Tuple[str, CacheMaster]]] = {}
        rr = 0
        for m in departing:
            for encoded_cid in m.assigned:
                succ = next(
                    (s for s in survivors if s.has_chunk(encoded_cid)), None
                )
                if succ is None:
                    succ = survivors[rr % len(survivors)]
                    rr += 1
                plan.setdefault(succ, []).append((encoded_cid, m))
        drained = peer_drained = lost = 0
        if plan:
            if drain:
                # Ownership flips per chunk *after* that chunk's own
                # copy lands (or is given up: the chunk goes
                # server-resident), so reads in flight keep resolving
                # against whichever master currently holds the chunk.
                results = yield from fan_out(
                    self.env,
                    [
                        succ.pull_all(
                            items, "scale_down",
                            landed=partial(self._rehome, succ),
                        )
                        for succ, items in plan.items()
                    ],
                    len(plan),
                    name="scale_down",
                )
                drained = sum(r[0] for r in results)
                peer_drained = sum(r[1] for r in results)
                lost = sum(map(len, plan.values())) - drained
            else:
                # No drain: flip ownership only; chunks go server-resident.
                for succ, items in plan.items():
                    for encoded_cid, _donor in items:
                        self._rehome(succ, encoded_cid)
        # Remove the departing masters and clients from the mesh.
        for m in departing:
            m.assigned = []
            self._retire(m)
            self._drop(m)
            self._breakers.pop(m.client.name, None)
        master_names = {m.client.name for m in departing}
        for c in self.clients:
            if c.node.name in names and c.name not in master_names:
                self.connections.drop_endpoint(c.name)
        self.clients = [c for c in self.clients if c.node.name not in names]
        if not self.clients:
            raise DieselError("scale_down removed every client")
        self._stats.scale_downs += 1
        self._stats.drained_chunks += drained
        self.membership_version += 1
        self._notify_membership("scale_down", sorted(names))
        return {
            "removed_masters": sorted(master_names),
            "drained_chunks": drained,
            "peer_drained": peer_drained,
            "lost_chunks": lost,
            "membership_version": self.membership_version,
        }

    def _rehome(self, owner: CacheMaster, encoded_cid: str) -> None:
        """Scale-down's ownership flip of one chunk to its successor."""
        self._owner_of[encoded_cid] = owner
        owner.assigned.append(encoded_cid)
