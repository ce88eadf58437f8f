"""The scenario kit: the one place a scenario is put together.

Every table and figure of §6 runs one recipe on one testbed (Table 4):
deploy, load the dataset, connect clients, register the task cache,
measure a closed loop.  The recipe's steps live here once —
:func:`deploy` (fabric + DIESEL + fixture dataset), :func:`make_task` /
:func:`warm` / :func:`warmed_task` (snapshot clients → task cache →
registration → warm-up, several tasks racing when asked) and
:meth:`Testbed.timed` (a run-to-completion loop on the sim clock) — so
an experiment is a kit call, a measurement and its rows.  Population is
*zero-cost*: writing the fixture dataset happens outside measured time,
exactly like the paper's data preparation step, so only the measured
phase spends simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.lustre import LustreFS
from repro.baselines.memcached import MemcachedCluster
from repro.calibration import Calibration, DEFAULT
from repro.core.chunk import Chunk
from repro.core.chunk_builder import ChunkBuilder
from repro.core.client import DieselClient
from repro.core.config import DieselConfig
from repro.core.server import DieselServer, object_key
from repro.core.snapshot import SnapshotIndex
from repro.cluster.devices import Device
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.dlt.sweep import SweepTask, build_sweep_task, register_sweep
from repro.kvstore import KVInstance, ShardedKV
from repro.objectstore import ObjectStore
from repro.sim import Environment
from repro.util.ids import sim_id_generator


@dataclass
class Testbed:
    """One wired experiment environment."""

    __test__ = False  # not a pytest test class despite the name

    env: Environment
    fabric: NetworkFabric
    cal: Calibration
    storage_nodes: List[Node]
    compute_nodes: List[Node]
    ssd_pool: Device
    lustre: Optional[LustreFS] = None
    memcached: Optional[MemcachedCluster] = None
    kv: Optional[ShardedKV] = None
    store: Optional[object] = None  # ObjectStore or TieredStore
    diesel_servers: List[DieselServer] = field(default_factory=list)
    config_store: Optional[object] = None  # core.config.ConfigStore
    #: The fixture dataset :func:`deploy` loaded, in written order.
    chunks: List[Chunk] = field(default_factory=list)

    @property
    def diesel(self) -> DieselServer:
        return self.diesel_servers[0]

    def run(self, gen):
        proc = self.env.process(gen)
        return self.env.run(until=proc)

    def run_all(self, gens) -> None:
        procs = [self.env.process(g) for g in gens]
        self.env.run(until=self.env.all_of(procs))

    def timed(self, gens) -> float:
        """Run ``gens`` to completion; the simulated seconds that took."""
        t0 = self.env.now
        self.run_all(gens)
        return self.env.now - t0


def make_testbed(
    n_compute: int = 10,
    n_storage: int = 6,
    cal: Calibration = DEFAULT,
    scheduler: str = "calendar",
) -> Testbed:
    """Wire the shared fabric; ``scheduler`` picks the DES queue."""
    env = Environment(scheduler=scheduler)
    fabric = NetworkFabric(env, cal.network)
    storage = [
        fabric.add_node(Node(env, f"storage{i}", nic_channels=8))
        for i in range(n_storage)
    ]
    compute = [
        fabric.add_node(Node(env, f"compute{i}", nic_channels=8))
        for i in range(n_compute)
    ]
    ssd = Device(
        env, "ssd-pool", cal.nvme.per_op_s, cal.nvme.bandwidth_bps,
        cal.nvme.queue_depth,
    )
    return Testbed(env, fabric, cal, storage, compute, ssd)


def add_lustre(tb: Testbed, n_mds: int = 1, dne: str = "none") -> LustreFS:
    cal = tb.cal
    oss = Device(
        tb.env, "lustre-oss", cal.lustre.oss_per_op_s,
        cal.lustre.oss_bandwidth_bps, queue_depth=cal.lustre.oss_queue_depth,
    )
    mds_nodes = tb.storage_nodes[:n_mds]
    tb.lustre = LustreFS(tb.env, tb.fabric, mds_nodes, oss,
                         profile=cal.lustre, dne=dne)
    return tb.lustre


def add_memcached(tb: Testbed, n_servers: Optional[int] = None) -> MemcachedCluster:
    nodes = tb.compute_nodes[: n_servers or len(tb.compute_nodes)]
    tb.memcached = MemcachedCluster(tb.env, tb.fabric, nodes, profile=tb.cal.memcached)
    return tb.memcached


def add_diesel(
    tb: Testbed,
    n_servers: int = 1,
    n_kv: int = 16,
    config: DieselConfig | None = None,
    tiered: bool = False,
    ssd_cache_bytes: float = 64 * 2**30,
) -> List[DieselServer]:
    """Deploy DIESEL onto the testbed (Fig 2).

    ``tiered=True`` puts chunks on the HDD pool with the SSD pool as the
    server-side cache tier (the Fig 4 "fast object-storage" path);
    otherwise chunks live directly on the SSD pool.  The deployment's
    configuration is published through an ETCD-like config store, which
    servers read at startup.
    """
    from repro.cluster.devices import Device as _Device
    from repro.core.config import ConfigStore
    from repro.objectstore import TieredStore

    cal = tb.cal
    config = config or DieselConfig()
    # ETCD (Fig 2): system configuration all components read at startup.
    tb.config_store = ConfigStore()
    tb.config_store.put("diesel/config", config)
    tb.config_store.put("diesel/n_servers", n_servers)
    # Redis cluster: 16 instances across four storage nodes (Table 4).
    instances = []
    for i in range(n_kv):
        node = tb.storage_nodes[i % len(tb.storage_nodes)]
        instances.append(
            KVInstance(tb.env, tb.fabric, node, f"redis{i}",
                       qps=cal.redis.cluster_qps / n_kv)
        )
    tb.kv = ShardedKV(instances)
    if tiered:
        hdd = _Device(tb.env, "hdd-pool", cal.hdd.per_op_s,
                      cal.hdd.bandwidth_bps, cal.hdd.queue_depth)
        tb.store = TieredStore(tb.ssd_pool, hdd,
                               ssd_capacity_bytes=ssd_cache_bytes)
    else:
        tb.store = ObjectStore(tb.ssd_pool)
    tb.diesel_servers = [
        DieselServer(
            tb.env, tb.fabric, tb.storage_nodes[i % len(tb.storage_nodes)],
            tb.kv, tb.store,
            config=tb.config_store.get("diesel/config"),
            calibration=cal, name=f"diesel{i}",
        )
        for i in range(n_servers)
    ]
    return tb.diesel_servers


def deploy(
    n_compute: int = 10,
    dataset: Optional[str] = None,
    files: Optional[Dict[str, bytes]] = None,
    chunk_size: int = 4 * 1024 * 1024,
    n_storage: int = 6,
    **diesel,
) -> Testbed:
    """A testbed with DIESEL on it (``diesel``: :func:`add_diesel`'s
    keywords) and, when ``files`` is given, ``dataset`` loaded outside
    measured time — its chunks are ``tb.chunks``."""
    tb = make_testbed(n_compute=n_compute, n_storage=n_storage)
    add_diesel(tb, **diesel)
    if files is not None:
        tb.chunks = bulk_load_diesel(tb, dataset, files, chunk_size)
    return tb


# ---------------------------------------------------------------- population
def bulk_load_diesel(
    tb: Testbed,
    dataset: str,
    files: Dict[str, bytes],
    chunk_size: int = 4 * 1024 * 1024,
) -> List[Chunk]:
    """Populate DIESEL outside measured time (fixture setup)."""
    if tb.store is None:
        raise RuntimeError("call add_diesel() first")
    builder = ChunkBuilder(
        sim_id_generator(f"bulkload:{dataset}", clock=lambda: tb.env.now),
        chunk_size=chunk_size,
    )
    server = tb.diesel
    chunks = []
    for chunk in builder.build_stream(files.items()):
        blob = chunk.encode()
        # One copy per chunk: the returned chunk views the stored blob.
        chunk.data = memoryview(blob)[len(blob) - chunk.data_size:]
        tb.store.load([(object_key(dataset, chunk.chunk_id), blob)])
        server.ingest_metadata(dataset, chunk)
        chunks.append(chunk)
    return chunks


def bulk_load_lustre(tb: Testbed, files: Dict[str, bytes]) -> None:
    if tb.lustre is None:
        raise RuntimeError("call add_lustre() first")
    for path, data in files.items():
        tb.lustre.ns.create_file(path, data)


def bulk_load_memcached(tb: Testbed, files: Dict[str, bytes]) -> None:
    if tb.memcached is None:
        raise RuntimeError("call add_memcached() first")
    for path, data in files.items():
        tb.memcached.server_for(path)._data[path] = data


def diesel_client(
    tb: Testbed,
    dataset: str,
    node: Node,
    name: str,
    rank: int = 0,
    config: DieselConfig | None = None,
) -> DieselClient:
    """DL_connect: a client of the deployment on ``tb``, no snapshot yet."""
    return DieselClient(
        tb.env, node, tb.diesel_servers, dataset,
        name=name, rank=rank, config=config, calibration=tb.cal,
    )


def diesel_client_with_snapshot(
    tb: Testbed,
    dataset: str,
    node: Node,
    name: str,
    rank: int = 0,
    config: DieselConfig | None = None,
) -> DieselClient:
    """A client with the dataset snapshot pre-loaded (zero-cost fixture)."""
    client = diesel_client(tb, dataset, node, name, rank, config)
    client._index = SnapshotIndex(tb.diesel.build_snapshot(dataset))
    return client


# --------------------------------------------------------------- task caches
def make_task(
    tb: Testbed, dataset: str, nodes: Iterable[Node], name: str = "c", **cache
) -> SweepTask:
    """An unregistered task over ``nodes``: one snapshot client
    ``<name><i>`` of rank ``i`` per entry (a node may repeat), one
    :class:`TaskCache` spanning them with the caller's ``cache``
    keywords (:func:`build_sweep_task`'s: ``policy``, ``placement``,
    ``shared``, ``tenant``, ``qos_class``, ``hot_chunk_threshold``, …).
    ``task.clients`` / ``task.cache.clients`` are the DIESEL clients and
    their cache identities, in ``nodes`` order."""
    clients = [
        diesel_client_with_snapshot(tb, dataset, node, f"{name}{i}", rank=i)
        for i, node in enumerate(nodes)
    ]
    return build_sweep_task(
        name, tb.env, tb.fabric, tb.diesel, dataset, clients, **cache
    )


def warm(tb: Testbed, tasks: Sequence[SweepTask], wait_warm: bool = True) -> float:
    """Register ``tasks`` concurrently — their warm-ups race — and, with
    ``wait_warm``, run until every cache is warm.  Returns the simulated
    seconds that took."""
    return tb.timed([register_sweep(tb.env, tasks, wait_warm)])


def warmed_task(
    tb: Testbed, dataset: str, nodes: Iterable[Node], name: str = "c", **cache
) -> SweepTask:
    """:func:`make_task`, registered and warm — the common case."""
    task = make_task(tb, dataset, nodes, name, **cache)
    warm(tb, [task])
    return task
