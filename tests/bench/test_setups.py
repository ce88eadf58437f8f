"""Tests for the experiment testbed builders."""

import pytest

from repro.bench.setups import (
    Testbed,
    add_diesel,
    add_lustre,
    add_memcached,
    bulk_load_diesel,
    bulk_load_lustre,
    bulk_load_memcached,
    diesel_client_with_snapshot,
    make_testbed,
)
from repro.objectstore import ObjectStore, TieredStore


class TestMakeTestbed:
    def test_default_topology(self):
        tb = make_testbed()
        assert len(tb.compute_nodes) == 10  # Table 4
        assert len(tb.storage_nodes) == 6
        assert tb.ssd_pool.alive

    def test_nodes_registered_on_fabric(self):
        tb = make_testbed(n_compute=3, n_storage=2)
        assert "compute2" in tb.fabric
        assert "storage1" in tb.fabric

    def test_run_helpers(self):
        tb = make_testbed(n_compute=1)

        def proc():
            yield tb.env.timeout(1.5)
            return "ok"

        assert tb.run(proc()) == "ok"
        assert tb.env.now == 1.5
        tb.run_all(proc() for _ in range(3))
        assert tb.env.now == 3.0


class TestAddServices:
    def test_add_diesel_flat(self):
        tb = make_testbed(n_compute=1)
        servers = add_diesel(tb, n_servers=2)
        assert len(servers) == 2
        assert isinstance(tb.store, ObjectStore)
        assert tb.kv is not None
        assert len(tb.kv.instances) == 16  # Table 4's Redis cluster

    def test_add_diesel_tiered(self):
        tb = make_testbed(n_compute=1)
        add_diesel(tb, tiered=True)
        assert isinstance(tb.store, TieredStore)

    def test_config_published_to_etcd(self):
        from repro.core.config import DieselConfig

        tb = make_testbed(n_compute=1)
        cfg = DieselConfig(shuffle_group_size=7)
        add_diesel(tb, config=cfg)
        assert tb.config_store.get("diesel/config").shuffle_group_size == 7
        assert tb.diesel.config.shuffle_group_size == 7

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
        tb = make_testbed(n_compute=1)
        add_diesel(tb)
        chunks = bulk_load_diesel(tb, "ds", {f"/f{i}": b"x" * 100
                                             for i in range(20)},
                                  chunk_size=512)
        assert tb.env.now == 0.0  # fixture setup, outside measured time
        assert len(chunks) >= 3
        assert len(tb.store.list_keys()) == len(chunks)

    def test_bulk_load_diesel_keeps_one_copy_per_chunk(self):
        from repro.core.server import object_key

        tb = make_testbed(n_compute=1)
        add_diesel(tb)
        files = {f"/f{i}": bytes([i]) * 100 for i in range(20)}
        chunks = bulk_load_diesel(tb, "ds", files, chunk_size=512)
        assert sum(c.data_size for c in chunks) == 20 * 100
        for chunk in chunks:
            blob = tb.store.peek(object_key("ds", chunk.chunk_id))
            # The returned chunk's data section is a view of the stored
            # blob, not a second copy, and still decodes file by file.
            assert chunk.data.obj is blob
            assert chunk.encode() == blob
            for path in chunk.paths:
                assert chunk.payload(path) == files[path]

    def test_snapshot_client_preloaded(self):
        tb = make_testbed(n_compute=1)
        add_diesel(tb)
        bulk_load_diesel(tb, "ds", {"/a": b"123"})
        client = diesel_client_with_snapshot(tb, "ds", tb.compute_nodes[0],
                                             "c0")
        assert client.index.file_count == 1
