"""Task-grained distributed cache (paper §4.2, Fig 7).

Each DLT task caches *its own* dataset across *its own* worker nodes,
behind one face, :class:`TaskCache`, with one module per decision:
:mod:`.master` (a master per node, holding references into the node's
chunk tier, :mod:`repro.core.shared_cache`), :mod:`.placement` (who
owns each chunk), :mod:`.membership` (who is in the task: election
and recovery, Fig 11b) and :mod:`.reads` (the Fig 4 read chain).
``oneshot`` warms every partition at registration; ``on-demand`` pulls
a chunk the first time one of its files misses.  A task-private cache
is a node tier with one task in it, emptied when the task lets go (the
lifetime rule, ``TaskCache._retire``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Sequence

from repro.core.dist_cache.master import CacheClient, CacheMaster, CacheMasterStats
from repro.core.dist_cache.membership import Membership
from repro.core.dist_cache.placement import Placement
from repro.core.dist_cache.reads import ReadChain
from repro.core.prefetch import WindowStats
from repro.core.server import DieselServer
from repro.core.shared_cache import SharedCacheRegistry
from repro.errors import DieselError
from repro.obs.counters import Counters
from repro.rpc.connections import ConnectionTable
from repro.sim.engine import Event


@dataclass(slots=True)
class TaskCacheStats(Counters):
    """Task-wide read-locality counters (the bench-reporting seam).

    The task cache moves its one instance directly; on every
    :attr:`TaskCache.stats` access the read-ahead fields are refreshed
    from the readers' shared :class:`WindowStats`, and
    ``coalesced_pulls`` from every master the task has had, departed
    ones included.
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


class TaskCache(ReadChain, Membership, Placement):
    """The per-task distributed cache spanning all the task's clients.

    The clock, fabric and calibration are ``server``'s.
    """

    def __init__(
        self,
        server: DieselServer,
        dataset: str,
        clients: Sequence[CacheClient],
        policy: str = "oneshot",
        shared=None,
    ) -> None:
        if not clients:
            raise DieselError("a task cache needs at least one client")
        if policy not in ("oneshot", "on-demand"):
            raise DieselError(f"unknown cache policy {policy!r}")
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise DieselError("client names must be unique")
        self.env = server.env
        self.fabric = server.fabric
        self.server = server
        self.dataset = dataset
        self.policy = policy
        #: Node chunk-tier registry every master of this task admits
        #: through (:class:`~repro.core.shared_cache.SharedCacheRegistry`).
        #: A task given none builds its own — one task, RAM store — and
        #: that is the whole of "task-private": the one difference is
        #: lifetime (:meth:`_retire`).  For a private tiered cache, pass
        #: a ``store="tiered"`` registry no other task uses.
        self.shared = shared or SharedCacheRegistry(server.env)
        self._owns_tier = self.shared is not shared
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
        #: The read-ahead accounting every reader's chunk window of this
        #: task shares.
        self.readahead = WindowStats()
        #: On-demand background pulls dropped because the master died.
        self.dropped_pulls = 0
        #: Bumped on every membership change (``recover``).
        self.membership_version = 0
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
        s.coalesced_pulls = self._master_totals().coalesced_pulls
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
            m.recorder = m.endpoint.recorder = value

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
        summary = yield from self.server.call(leader.node, "register", self.dataset)
        self.task_key = self.shared.next_task_id()
        master_list = self._elect_masters(self.clients)
        self._deal(summary["chunk_ids"], master_list)
        self._mesh()
        if self.policy == "oneshot":
            for m in master_list:
                proc = self.env.process(
                    m.fill("warmup", fanout),
                    name=f"prefetch:{m.client.name}",
                )
                self._prefetch_procs.append(proc)
        self._registered = True
        return summary

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
        """Live client→master connections."""
        return self.connections.count()

    def expected_connection_count(self) -> int:
        """The paper's p×(n−1) (self-connections excluded)."""
        p = len(self.masters)
        n = len(self.clients)
        return p * n - p  # each master's self-connection is not counted

    def cached_chunks(self) -> int:
        """Chunks held over every master."""
        return sum(m.cached_chunk_count for m in self.masters.values())

    def hit_ratio(self) -> float:
        """Master hits over master lookups since registration."""
        m = self._master_totals()
        total = m.hits + m.misses
        return m.hits / total if total else 0.0
