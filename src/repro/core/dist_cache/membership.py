"""Task membership (§4.2): master election (one per node, so the mesh
is p×(n−1) connections, not n×(n−1)) and the three live changes —
``scale_up``, ``scale_down`` and ``recover`` (Fig 11b).  The last two
share one successor rule (:mod:`.placement`) and one leave step
(:meth:`Membership._leave`); only where the references went differs.

A change is published in one place, :meth:`Membership._notify_membership`:
``membership_version`` bumps and the task's supervisor, if any, resyncs
its watches.  Nothing outside the cache follows a change: epoch plans
already drawn keep their order, and their reads resolve against
whoever owns each chunk at read time.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Collection, Dict, Generator, List, Optional, Sequence

from repro.cluster.node import Node
from repro.core.dist_cache.master import (
    CacheClient, CacheMaster, CacheMasterStats,
)
from repro.errors import CachePeerDownError, DieselError
from repro.sim.engine import Event, fan_out


class Membership:
    """The membership of :class:`~repro.core.dist_cache.TaskCache`."""

    def _notify_membership(self, event: str) -> None:
        """Publish a membership change: bump the version and tell the
        supervisor, which keeps its watches equal to the masters."""
        self.membership_version += 1
        rec = self._recorder
        if rec is not None:
            rec.count(f"cache_{event}", "task_cache")
        if self.supervisor is not None:
            self.supervisor.sync_watches()

    def _elect_masters(
        self, clients: Sequence[CacheClient]
    ) -> List[CacheMaster]:
        """Master election (§4.2): on every node of ``clients`` that has
        no master yet, the lowest-ranked client becomes one, admitting
        through that node's chunk tier.  Returns the new masters in
        node order."""
        by_node: Dict[str, CacheClient] = {}
        for c in sorted(clients, key=lambda c: (c.rank, c.name)):
            if c.node.name not in self.masters:
                by_node.setdefault(c.node.name, c)
        elected = []
        for node_name in sorted(by_node):
            client = by_node[node_name]
            master = CacheMaster(
                client, self.server, self.dataset,
                self.shared.for_node(client.node),
                self.task_key, self.tenant,
            )
            master.recorder = master.endpoint.recorder = self._recorder
            self.masters[node_name] = master
            elected.append(master)
        return elected

    def _mesh(self) -> None:
        """Every client connects to every master: p×(n−1) connections."""
        for c in self.clients:
            for m in self.masters.values():
                self.connections.connect(c.name, m.client.name)

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

    def _leave(
        self, event: str, leaving: Sequence[CacheMaster], nodes: Collection[str]
    ) -> None:
        """The one "masters leave" step, once their chunks have new
        owners: ``leaving`` and every client on ``nodes`` drop out of
        the task and the connection mesh, their counters fold into the
        task totals, and the change is published
        (``membership_version``, the supervisor).  The
        references are the caller's to settle first: a departing master
        releases its own (:meth:`_retire`); a dead one's went with its
        node (``purge_dead``)."""
        for m in leaving:
            del self.masters[m.node.name]
            self._departed = CacheMasterStats.total((self._departed, m.stats))
        for c in self.clients:
            if c.node.name in nodes:
                self.connections.drop_endpoint(c.name)
        self.clients = [c for c in self.clients if c.node.name not in nodes]
        self._notify_membership(event)

    def dead_masters(self) -> list[CacheMaster]:
        """The masters whose endpoint no longer answers."""
        return [m for m in self.masters.values() if not m.up]

    def recover(
        self, fanout: Optional[int] = None
    ) -> Generator[Event, Any, int]:
        """Re-partition dead masters' chunks over survivors and reload them.

        Chunk-granular recovery: survivors stream whole chunks from the
        object store, exploiting sequential bandwidth (Fig 11b).  The
        dead masters leave the task with their nodes' clients (a
        ``recover`` membership change), then the survivors re-stream
        concurrently, each as wide as its node can receive (``fanout``
        replaces that width for this one recovery), so recovery time
        scales with the *largest partition*, not the orphaned total.
        Returns the number of chunks re-loaded.
        """
        dead = self.dead_masters()
        if not dead:
            return 0
        survivors = sorted(
            (m for m in self.masters.values() if m.up),
            key=lambda m: m.node.name,
        )
        if not survivors:
            raise CachePeerDownError("all cache masters are down")
        # Forget the crashed nodes' tier residency (their memory died
        # with them; a disk tier survives).  Survivors re-pull through
        # their own tiers: chunks another task already holds there
        # warm-admit — refcounts are rebuilt, chunks are not duplicated
        # and the backend is not re-read for them.
        self.shared.purge_dead()
        self._rehome_all(self._successors(dead, survivors))
        self._leave("recover", dead, {m.node.name for m in dead})
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

    def scale_up(
        self, new_clients: Sequence[CacheClient]
    ) -> Generator[Event, Any, dict]:
        """Grow the task's membership live (no cold restart).

        New clients join the mesh; nodes without a master elect one
        (lowest rank per node, as at registration); each new master
        takes an equal share of chunks stolen from the most-loaded
        donors' partition tails — minimal movement: everything else
        stays owned, resident, and serving throughout.  The new masters
        then admit their share *peer-to-peer* from the donors still
        holding those chunks (falling back to the backend), so warm-up
        never re-reads the object store for resident data; the donor
        keeps its copy, which still serves its own node's reads.  Reads
        of a moved chunk before it lands simply fall through to the
        server (Fig 4) — never an error.

        Bumps :attr:`membership_version`; epoch plans already drawn are
        left alone.  Returns a summary dict.
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
        donors = [self.masters[k] for k in sorted(self.masters)]
        new_masters = self._elect_masters(new_clients)
        self.clients.extend(new_clients)
        self._mesh()
        moves = self._steal(new_masters, donors)
        self._stats.scale_ups += 1
        self._notify_membership("scale_up")
        warmed = peer_warmed = 0
        if moves:
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
            "moved_chunks": sum(map(len, moves.values())),
            "warmed_chunks": warmed,
            "peer_warmed": peer_warmed,
            "membership_version": self.membership_version,
        }

    def scale_down(
        self, nodes: Sequence[Any]
    ) -> Generator[Event, Any, dict]:
        """Shrink the task's membership live, draining owned chunks.

        ``nodes`` are :class:`~repro.cluster.node.Node`\\ s or node
        names.  Each departing master's chunks are re-homed by the
        successor rule recovery uses, and the successor pulls each chunk
        *from the departing master* before ownership flips, so at every
        instant the chunk is resident and owned somewhere: reads keep
        resolving against the old owner until the copy lands, then
        against the new one.  Zero lost chunks, zero
        failed reads, no cold restart.  Departing clients leave the mesh
        afterwards.

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
        plan = self._successors(departing, survivors)
        drained = peer_drained = lost = 0
        if plan:
            # Ownership flips per chunk *after* that chunk's own copy
            # lands (or is given up: the chunk goes server-resident), so
            # reads in flight keep resolving against whichever master
            # currently holds the chunk.
            results = yield from fan_out(
                self.env,
                [
                    succ.pull_all(items, "scale_down",
                                  landed=partial(self._rehome, succ))
                    for succ, items in plan.items()
                ],
                len(plan),
                name="scale_down",
            )
            drained = sum(r[0] for r in results)
            peer_drained = sum(r[1] for r in results)
            lost = sum(map(len, plan.values())) - drained
        for m in departing:
            self._retire(m)
        self._stats.scale_downs += 1
        self._stats.drained_chunks += drained
        self._leave("scale_down", departing, names)
        return {
            "removed_masters": sorted(m.client.name for m in departing),
            "drained_chunks": drained,
            "peer_drained": peer_drained,
            "lost_chunks": lost,
            "membership_version": self.membership_version,
        }
