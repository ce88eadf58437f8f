"""Task membership (§4.2): master election (one per node, so the mesh
is p×(n−1) connections, not n×(n−1)) and the one membership change a
task sees in its lifetime, ``recover`` (Fig 11b): dead masters' chunks
go to survivors by the successor rule (:mod:`.placement`), the dead
leave (:meth:`Membership._leave`), and the survivors re-stream.

A change is published in one place, :meth:`Membership._notify_membership`:
``membership_version`` bumps.  Nothing outside the cache follows a
change: epoch plans already drawn keep their order, and their reads
resolve against whoever owns each chunk at read time.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.dist_cache.master import (
    CacheClient, CacheMaster, CacheMasterStats,
)
from repro.errors import CachePeerDownError
from repro.sim.engine import Event, fan_out


class Membership:
    """The membership of :class:`~repro.core.dist_cache.TaskCache`."""

    def _notify_membership(self) -> None:
        """Publish a membership change: bump the version."""
        self.membership_version += 1
        rec = self._recorder
        if rec is not None:
            rec.count("cache_recover", "task_cache")

    def _elect_masters(
        self, clients: Sequence[CacheClient]
    ) -> List[CacheMaster]:
        """Master election (§4.2): on every node of ``clients`` the
        lowest-ranked client becomes its master, admitting through that
        node's chunk tier.  Returns the masters in node order."""
        by_node: Dict[str, CacheClient] = {}
        for c in sorted(clients, key=lambda c: (c.rank, c.name)):
            by_node.setdefault(c.node.name, c)
        elected = []
        for node_name in sorted(by_node):
            client = by_node[node_name]
            master = CacheMaster(
                client, self.server, self.dataset,
                self.shared.for_node(client.node),
                self.task_key,
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
        """A master leaves (deregistration): drop its
        references.  The lifetime rule — the one thing that tells a
        task-private cache from a shared one: a tier this task built
        for itself has no other user, so it is emptied and its memory
        returned to the node; a tier passed in keeps the chunks as its
        warm pool (refcount 0, reclaimed by eviction)."""
        master.release()
        if self._owns_tier:
            master.tier.clear()

    def _leave(self, dead: Sequence[CacheMaster]) -> None:
        """The "masters leave" step, once their chunks have new owners:
        ``dead`` and every client on their nodes drop out of the task
        and the connection mesh, their counters fold into the task
        totals, and the change is published (``membership_version``,
        the recorder).  Their tier references went with their nodes
        (``purge_dead``)."""
        nodes = {m.node.name for m in dead}
        for m in dead:
            del self.masters[m.node.name]
            self._departed = CacheMasterStats.total((self._departed, m.stats))
        for c in self.clients:
            if c.node.name in nodes:
                self.connections.drop_endpoint(c.name)
        self.clients = [c for c in self.clients if c.node.name not in nodes]
        self._notify_membership()

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
        self._leave(dead)
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
