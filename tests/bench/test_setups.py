"""Tests for the scenario kit (``repro.bench.setups``)."""

import ast
import gc
import weakref
from pathlib import Path

import pytest

from repro.bench import setups
from repro.bench.setups import (
    add_diesel,
    add_lustre,
    add_memcached,
    bulk_load_diesel,
    bulk_load_lustre,
    bulk_load_memcached,
    deploy,
    diesel_client_with_snapshot,
    make_task,
    make_testbed,
    warm,
    warmed_task,
)
from repro.cluster.node import Node
from repro.core.dist_cache import TaskCache
from repro.core.shared_cache import SharedCacheRegistry
from repro.objectstore import ObjectStore, TieredStore

ROOT = Path(__file__).resolve().parent.parent.parent
FILES = {f"/f{i:03d}": bytes([i]) * 900 for i in range(48)}


class TestMakeTestbed:
    def test_default_topology(self):
        tb = make_testbed()
        assert len(tb.compute_nodes) == 10  # Table 4
        assert len(tb.storage_nodes) == 6
        assert tb.ssd_pool.alive

    def test_nodes_registered_on_fabric(self):
        tb = make_testbed(n_compute=3, n_storage=2)
        nodes = tb.fabric.nodes
        assert tb.compute_nodes[2] in nodes and tb.storage_nodes[1] in nodes
        assert all(node.fabric is tb.fabric for node in nodes)

    def test_run_helpers(self):
        tb = make_testbed(n_compute=1)

        def proc():
            yield tb.env.timeout(1.5)
            return "ok"

        assert tb.run(proc()) == "ok"
        assert tb.env.now == 1.5
        tb.run_all(proc() for _ in range(3))
        assert tb.env.now == 3.0
        assert tb.timed(proc() for _ in range(2)) == 1.5
        assert tb.env.now == 4.5


class TestAddServices:
    def test_add_diesel_flat(self):
        tb = make_testbed(n_compute=1)
        servers = add_diesel(tb, n_servers=2)
        assert len(servers) == 2
        assert isinstance(tb.store, ObjectStore)
        assert tb.kv is not None
        assert len(tb.kv.instances) == 16  # Table 4's Redis cluster

    def test_add_diesel_tiered(self):
        assert isinstance(deploy(1, tiered=True).store, TieredStore)

    def test_config_handed_to_every_server(self):
        from repro.core.config import DieselConfig

        tb = deploy(1, n_servers=2, config=DieselConfig(shuffle_group_size=7))
        assert [s.config.shuffle_group_size for s in tb.diesel_servers] == [7, 7]

    def test_add_lustre_and_memcached(self):
        tb = make_testbed(n_compute=4)
        fs = add_lustre(tb)
        mc = add_memcached(tb, n_servers=3)
        assert tb.lustre is fs
        assert tb.memcached is mc
        assert len(mc.servers) == 3


class TestBulkLoads:
    def test_bulk_load_requires_services(self):
        tb = make_testbed(n_compute=1)
        with pytest.raises(RuntimeError):
            bulk_load_diesel(tb, "ds", {"/a": b"1"})
        with pytest.raises(RuntimeError):
            bulk_load_lustre(tb, {"/a": b"1"})
        with pytest.raises(RuntimeError):
            bulk_load_memcached(tb, {"/a": b"1"})

    def test_bulk_load_diesel_costs_no_time(self):
        tb = deploy(1, "ds", {f"/f{i}": b"x" * 100 for i in range(20)}, 512)
        assert tb.env.now == 0.0  # fixture setup, outside measured time
        assert len(tb.chunks) >= 3
        assert len(tb.store.list_keys()) == len(tb.chunks)

    def test_bulk_load_diesel_keeps_one_copy_per_chunk(self):
        from repro.core.server import object_key

        files = {f"/f{i}": bytes([i]) * 100 for i in range(20)}
        tb = deploy(1, "ds", files, chunk_size=512)
        assert sum(c.data_size for c in tb.chunks) == 20 * 100
        for chunk in tb.chunks:
            blob = tb.store.peek(object_key("ds", chunk.chunk_id))
            # The returned chunk's data section is a view of the stored
            # blob, not a second copy, and still decodes file by file.
            assert chunk.data.obj is blob
            assert chunk.encode() == blob
            for path in chunk.paths:
                assert chunk.payload(path) == files[path]

    @pytest.mark.parametrize("threshold,freed", [(1024, True), (1 << 30, False)])
    def test_a_large_load_frees_a_dropped_testbed(
        self, monkeypatch, threshold, freed
    ):
        # A testbed is cyclic: once dropped, only a full collection frees
        # it.  A load of at least the threshold runs one; a smaller does not.
        monkeypatch.setattr(setups, "COLLECT_BEFORE_LOAD_BYTES", threshold)
        gc.collect()
        gc.disable()
        try:
            store = weakref.ref(deploy(1, "old", FILES, 4096).store)
            assert store() is not None
            deploy(1, "new", FILES, 4096)
            assert (store() is None) is freed
        finally:
            gc.enable()

    def test_snapshot_client_preloaded(self):
        tb = deploy(1, "ds", {"/a": b"123"})
        client = diesel_client_with_snapshot(tb, "ds", tb.compute_nodes[0],
                                             "c0")
        assert client.index.file_count == 1


# ------------------------------------------------- the kit vs hand assembly
def _by_hand(tb, nodes, specs):
    """The assembly the kit replaced, kept as the reference: clients with
    snapshots, one TaskCache per spec, registrations then warm-ups racing,
    one epoch read by worker 0 of every task."""
    caches = []
    for name, kwargs in specs:
        clients = [
            diesel_client_with_snapshot(tb, "ds", node, f"{name}{i}", rank=i)
            for i, node in enumerate(nodes)
        ]
        caches.append(TaskCache(
            tb.diesel, "ds",
            [c.as_cache_client() for c in clients],
            policy="oneshot", **kwargs,
        ))
        index = clients[0].index
    for step in (TaskCache.register, TaskCache.wait_warm):
        tb.env.run(until=tb.env.all_of(
            [tb.env.process(step(c)) for c in caches]
        ))

    def epoch(cache):
        for path in index.all_paths():
            yield from cache.read_file(cache.clients[0], index.lookup(path))

    tb.run_all(epoch(c) for c in caches)
    return caches


def _by_kit(tb, nodes, specs):
    tasks = [make_task(tb, "ds", nodes, name, **kw) for name, kw in specs]
    warm(tb, tasks)
    tb.run_all(t.read(0, t.index.all_paths()) for t in tasks)
    return [t.cache for t in tasks]


def _books(tb, caches):
    return tb.env.now, tb.diesel.stats.chunk_reads, [
        (
            {cid: m.node.name for cid, m in c._owner_of.items()},
            c.stats.to_dict(),
            {name: list(m.assigned) for name, m in c.masters.items()},
        )
        for c in caches
    ]


def _compute(tb):
    return tb.compute_nodes


def _probe_nodes(tb):
    return [
        tb.fabric.add_node(Node(tb.env, f"probe{i}", memory_bytes=6000))
        for i in range(2)
    ]


@pytest.mark.parametrize("nodes_of, registry_kwargs, specs", [
    (_compute, None, [("c", {})]),
    (_compute, {}, [("c", {})]),
    (_probe_nodes, dict(store="tiered", chunk_compression=True), [("p", {})]),
    (_compute, {}, [("a", {}), ("b", {})]),
], ids=["hash", "registry", "probe-nodes", "racing"])
def test_kit_task_equals_hand_assembly(nodes_of, registry_kwargs, specs):
    books = []
    for build in (_by_hand, _by_kit):
        tb = deploy(3, "ds", FILES, chunk_size=4096, n_servers=1)
        shared = {}
        if registry_kwargs is not None:  # one passed-in registry for all tasks
            shared["shared"] = SharedCacheRegistry(tb.env, **registry_kwargs)
        tasks = [(name, {**kw, **shared}) for name, kw in specs]
        books.append(_books(tb, build(tb, nodes_of(tb), tasks)))
    assert books[0] == books[1]
    assert books[0][1] > 0 and all(b[1]["local_hits"] for b in books[0][2])


def test_warmed_task_is_registered_warm_and_attached():
    tb = deploy(2, "ds", FILES, chunk_size=4096)
    task = warmed_task(tb, "ds", tb.compute_nodes, "w")
    assert task.cache.cached_chunks() == len(tb.chunks)
    assert [c.name for c in task.clients] == ["w0", "w1"]
    assert tb.run(task.clients[1].get("/f007")) == FILES["/f007"]
    assert task.cache.stats.local_hits + task.cache.stats.remote_hits == 1


def test_one_assembly_site():
    """Outside the kit (and ``dlt/sweep.py`` under it), nothing constructs
    a ``TaskCache`` or pairs ``make_testbed`` with ``add_diesel`` itself."""
    kit = {ROOT / "src/repro/bench/setups.py", ROOT / "src/repro/dlt/sweep.py"}
    offenders = []
    for top in ("src", "examples", "benchmarks", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            calls = {
                getattr(n.func, "id", getattr(n.func, "attr", None))
                for n in ast.walk(ast.parse(path.read_text()))
                if isinstance(n, ast.Call)
            }
            if path not in kit and (
                "TaskCache" in calls or {"make_testbed", "add_diesel"} <= calls
            ):
                offenders.append(str(path.relative_to(ROOT)))
    assert offenders == []
