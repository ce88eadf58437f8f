"""Self-healing supervisors: detector events drive recovery automatically.

The recovery mechanisms existed before this module — ``TaskCache.recover``
re-partitions a dead master's chunks over survivors (Fig 11b) and
``recovery.rebuild_dataset`` replays KV metadata from chunk headers
(§4.1.2) — but both only ran when an experiment called them by hand.
The supervisors close the loop:

* :class:`CacheSupervisor` watches every cache master through a
  :class:`~repro.ft.detector.FailureDetector`; a DEAD transition spawns
  one healing process that calls ``TaskCache.recover()`` (repeating
  while further masters die mid-recovery).  It is the cache's one
  listener, ``TaskCache.supervisor``: in-flight reads that hit the
  dying master report straight into the detector through it, collapsing
  detection latency to the first failed call, and every membership
  change resyncs its watches to the masters.
* :class:`KVSupervisor` watches every KV shard.  On DEAD it records the
  shard's last-known-good probe time, restarts the node + instance
  after :data:`RESTART_DELAY_S` (an in-memory store restarts
  *empty*), and once **all** shards answer again replays
  ``rebuild_dataset(from_timestamp=last_good)`` for each supervised
  dataset — scenario (a)'s incremental rescan, with no operator call.

Both record their work through the ``repro.obs`` span layer under
``ft_*`` op tags when a recorder is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.recovery import rebuild_dataset
from repro.errors import CachePeerDownError
from repro.ft.detector import DEAD, FailureDetector

if TYPE_CHECKING:  # pragma: no cover - the task cache imports repro.ft
    from repro.core.dist_cache import CacheMaster, TaskCache
    from repro.core.server import DieselServer
    from repro.kvstore.sharded import ShardedKV

#: Seconds a dead KV shard stays down before its node and instance
#: restart.
RESTART_DELAY_S = 0.05


class CacheSupervisor:
    """Automatically re-partitions a task cache when a master dies."""

    def __init__(
        self,
        detector: FailureDetector,
        cache: TaskCache,
        recorder=None,
    ) -> None:
        self.detector = detector
        self.cache = cache
        self.env = cache.env
        self.recorder = recorder
        #: One dict per completed recovery (see :meth:`_heal`).
        self.recoveries: List[dict] = []
        self._healing = False
        #: Watch names of this cache's masters (a detector may be shared
        #: by several supervisors and KV shards).
        self._watching: Dict[str, CacheMaster] = {}
        self.sync_watches()
        detector.on_transition(self._on_transition)
        cache.supervisor = self

    @staticmethod
    def _watch_name(master: CacheMaster) -> str:
        return f"cache:{master.client.name}"

    def report_failure(self, master: CacheMaster) -> None:
        """Called by ``TaskCache`` when an in-flight peer call failed:
        reads that hit a dead master mid-flight report here instead of
        waiting for the next heartbeat."""
        self.detector.report_failure(self._watch_name(master))

    def sync_watches(self) -> None:
        """Keep the detector's watches equal to the cache's masters:
        at construction, and on every membership change (``recover``),
        after which the departed masters stop being probed — a dead
        master that left must not linger as a phantom DEAD entry that
        trips healing again.  Watches other supervisors hold on a
        shared detector are left alone."""
        live = {self._watch_name(m): m for m in self.cache.masters.values()}
        for wname in self._watching.keys() - live.keys():
            self.detector.unwatch(wname)
        for wname, master in live.items():
            if wname not in self._watching:
                self.detector.watch(wname, master)
        self._watching = live

    def _on_transition(self, name: str, state: str, at: float) -> None:
        if state != DEAD or not name.startswith("cache:"):
            return
        if self._healing or not self.cache.dead_masters():
            return
        self._healing = True
        self.env.process(self._heal(), name="ft:heal-cache")

    def _heal(self):
        try:
            while True:
                dead = self.cache.dead_masters()
                if not dead:
                    return
                t0 = self.env.now
                before = self.cache.shared.stats
                try:
                    reloaded = yield from self.cache.recover()
                except CachePeerDownError as exc:
                    # No survivors: nothing to re-partition onto.  Leave
                    # the record so experiments can report the outage.
                    self.recoveries.append({
                        "at": t0, "elapsed_s": 0.0, "chunks_reloaded": 0,
                        "masters": sorted(m.client.name for m in dead),
                        "error": str(exc),
                    })
                    return
                record = {
                    "at": t0,
                    "elapsed_s": self.env.now - t0,
                    "chunks_reloaded": reloaded,
                    "masters": sorted(m.client.name for m in dead),
                }
                # Layer attribution for the re-pull: warm admissions
                # rebuilt refcounts onto surviving residents, cold ones
                # actually re-fetched from the object store.
                # Registry-wide deltas over this heal's window — when
                # several tasks heal concurrently the windows overlap
                # and each record sees the union of their admissions
                # (the backend-fetch count is still deduplicated by the
                # cross-task single-flight map).
                after = self.cache.shared.stats
                record["shared_warm_admissions"] = (
                    after.warm_admissions - before.warm_admissions
                )
                record["shared_cold_admissions"] = (
                    after.cold_admissions - before.cold_admissions
                )
                self.recoveries.append(record)
                rec = self.recorder
                if rec is not None:
                    rec.record("ft_recover", "task_cache",
                               self.env.now - t0, chunks=reloaded)
        finally:
            self._healing = False


class KVSupervisor:
    """Restarts dead KV shards and replays their lost metadata."""

    def __init__(
        self,
        detector: FailureDetector,
        server: DieselServer,
        kv: ShardedKV,
        datasets: Sequence[str],
        recorder=None,
    ) -> None:
        self.detector = detector
        self.server = server
        self.kv = kv
        self.env = server.env
        self.datasets = list(datasets)
        self.recorder = recorder
        #: One dict per completed rebuild (see :meth:`_rebuild`).
        self.rebuilds: List[dict] = []
        #: Dead shards awaiting rebuild: watch name → last-good sim time.
        self._pending: Dict[str, float] = {}
        self._by_name = {f"kv:{i.name}": i for i in kv.instances}
        for name, inst in self._by_name.items():
            detector.watch(name, inst)
        detector.on_transition(self._on_transition)

    def _on_transition(self, name: str, state: str, at: float) -> None:
        inst = self._by_name.get(name)
        if inst is None:
            return
        if state == DEAD:
            # The last successful probe is the "known timestamp" of
            # §4.1.2 scenario (a): everything ingested before it is
            # safely in other shards' memories or on storage.
            self._pending[name] = self.detector.last_alive(name)
            self.env.process(
                self._restart(inst), name=f"ft:restart-{inst.name}"
            )
        elif name in self._pending and all(i.up for i in self.kv.instances):
            # The last missing shard answered again; replay from the
            # earliest loss so every restarted shard is covered.
            from_ts = int(min(self._pending.values()))
            shards = sorted(self._pending)
            self._pending.clear()
            self.env.process(
                self._rebuild(from_ts, shards), name="ft:rebuild-kv"
            )

    def _restart(self, inst):
        yield self.env.timeout(RESTART_DELAY_S)
        if not inst.node.alive:  # else another shard's restart got there
            inst.node.restore()
        if not inst.up:
            inst.restart()
            # The next heartbeat probe flips the shard back to ALIVE,
            # which triggers the rebuild once all shards answer.

    def _rebuild(self, from_ts: int, shards: List[str]):
        t0 = self.env.now
        scanned = 0
        for ds in self.datasets:
            n = yield from rebuild_dataset(
                self.server, ds, from_timestamp=from_ts
            )
            scanned += n
        self.rebuilds.append({
            "at": t0,
            "elapsed_s": self.env.now - t0,
            "from_timestamp": from_ts,
            "chunks_scanned": scanned,
            "shards": shards,
        })
        rec = self.recorder
        if rec is not None:
            rec.record("ft_rebuild", "kv", self.env.now - t0,
                       chunks=scanned)
