"""End-to-end integration: the full DIESEL pipeline with verified bytes.

Drives the complete life of a dataset — generation with embedded
checksums, ingest through DL_put, snapshot distribution, task-grained
caching, chunk-wise shuffled epochs, FUSE reads, failures, recovery —
verifying content integrity at every hop (the paper's own methodology:
"each process reads files and checks the contents as well as the hash
code for correctness", §6.1).
"""

import pytest

from repro.bench.setups import deploy, diesel_client_with_snapshot, warmed_task
from repro.core.fuse import mount
from repro.workloads.filegen import generate_file, verify_file

N_FILES = 60


@pytest.fixture
def pipeline():
    files = {
        f"/ds/class{i % 5}/img{i:04d}.jpg": generate_file(f"img{i}", 2048 + i)
        for i in range(N_FILES)
    }
    return deploy(4, "ds", files, chunk_size=16 * 1024, n_servers=2), files


def cached_task(tb):
    """A warmed task of 8 clients over the 4 nodes."""
    return warmed_task(tb, "ds", [tb.compute_nodes[c % 4] for c in range(8)])


class TestFullPipeline:
    def test_every_hop_preserves_checksums(self, pipeline):
        tb, files = pipeline
        task = cached_task(tb)
        cache, clients = task.cache, task.clients
        fuse = mount([clients[0]])

        def verify_all():
            # Path 1: DL_get through the distributed cache.
            for path, expected in files.items():
                data = yield from clients[1].get(path)
                assert data == expected and verify_file(data)
            # Path 2: FUSE whole-file reads.
            for path, expected in list(files.items())[:10]:
                data = yield from fuse.read_file(path)
                assert data == expected and verify_file(data)
            # Path 3: server request executor (batched).
            batch = list(files)[:20]
            result = yield from tb.diesel.call(
                tb.compute_nodes[0], "get_files", "ds", batch
            )
            for p in batch:
                assert result[p] == files[p] and verify_file(result[p])

        tb.run(verify_all())
        assert cache.hit_ratio() == 1.0

    def test_shuffled_epoch_verifies(self, pipeline):
        tb, files = pipeline
        client = diesel_client_with_snapshot(tb, "ds", tb.compute_nodes[0], "c0")
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=42)
        assert sorted(plan.files) == sorted(files)

        def read_epoch():
            for path in plan.files:
                data = yield from client.get(path)
                assert data == files[path]
                assert verify_file(data)

        tb.run(read_epoch())
        # Bounded working set throughout.
        assert len(client._window.resident) <= 2

    def test_failure_then_recovery_preserves_integrity(self, pipeline):
        tb, files = pipeline
        task = cached_task(tb)
        tb.compute_nodes[0].kill()
        tb.run(task.cache.recover())
        survivor = next(c for c in task.clients if c.node.alive)

        def verify():
            for path, expected in files.items():
                data = yield from task.cache.read_file(
                    survivor.as_cache_client(), task.index.lookup(path)
                )
                assert data == expected and verify_file(data)

        tb.run(verify())

    def test_metadata_wipe_then_rebuild_preserves_integrity(self, pipeline):
        from repro.core import recovery

        tb, files = pipeline
        tb.kv.lose_all()
        tb.run(recovery.rebuild_dataset(tb.diesel, "ds"))

        def verify():
            for path, expected in list(files.items())[:20]:
                data = yield from tb.diesel.call(
                    tb.compute_nodes[0], "get_file", "ds", path
                )
                assert data == expected and verify_file(data)

        tb.run(verify())

    def test_multi_server_consistency(self, pipeline):
        tb, files = pipeline
        path = next(iter(files))

        def via(server_idx):
            data = yield from tb.diesel_servers[server_idx].call(
                tb.compute_nodes[0], "get_file", "ds", path
            )
            return data

        assert tb.run(via(0)) == tb.run(via(1)) == files[path]


class TestTieredServerCache:
    """The Fig 4 server cache: HDD base + SSD tier."""

    def _setup(self):
        files = {f"/t/f{i:03d}": generate_file(f"t{i}", 4096)
                 for i in range(40)}
        return deploy(1, "ds", files, chunk_size=32 * 1024, tiered=True), files

    def test_config_store_published(self):
        tb, _ = self._setup()
        assert tb.config_store.get("diesel/config") is not None
        assert tb.config_store.get("diesel/n_servers") == 1

    def test_second_epoch_hits_ssd_tier(self):
        tb, files = self._setup()
        node = tb.compute_nodes[0]

        def epoch():
            t0 = tb.env.now
            for path in files:
                data = yield from tb.diesel.call(node, "get_file", "ds", path)
                assert data == files[path]
            return tb.env.now - t0

        cold = tb.run(epoch())
        tb.env.run()  # the fills the misses left behind
        assert all(tb.store.in_ssd(k) for k in tb.store.list_keys())
        hits = tb.store.stats.ssd_hits
        warm = tb.run(epoch())
        # First epoch faulted chunks from HDD and filled the tier behind
        # the reads; the second is served from the SSD tier.
        assert warm < cold / 3
        assert tb.store.stats.promotions == len(tb.store)
        assert tb.store.stats.ssd_hits - hits == len(files)

    def test_correctness_through_tiers(self):
        tb, files = self._setup()
        node = tb.compute_nodes[0]

        def read_twice():
            for _ in range(2):
                for path, expected in files.items():
                    data = yield from tb.diesel.call(
                        node, "get_file", "ds", path
                    )
                    assert data == expected

        tb.run(read_twice())

    @staticmethod
    def _fill_tier(tb):
        """Offer every chunk to the tier's background fill path, one at
        a time; returns how many were installed."""
        cached = 0
        for key in tb.store.list_keys():
            fill = tb.store.fill(key)
            if fill is not None:
                cached += tb.env.run(until=fill)
        return cached

    def test_background_caching_process(self):
        tb, files = self._setup()
        tb.store.promote_on_miss = False  # isolate the background path
        n_chunks = len(tb.store.list_keys())
        assert self._fill_tier(tb) == n_chunks
        assert all(tb.store.in_ssd(k) for k in tb.store.list_keys())

        # Reads now hit the SSD tier without per-read promotion.
        node = tb.compute_nodes[0]

        def epoch():
            t0 = tb.env.now
            for path in files:
                yield from tb.diesel.call(node, "get_file", "ds", path)
            return tb.env.now - t0

        tb.run(epoch())
        assert tb.store.stats.ssd_hits >= len(files)

    def test_background_caching_stops_at_capacity(self):
        tb, _ = self._setup()
        keys = tb.store.list_keys()
        sizes = [tb.store.object_size(k) for k in keys]
        tb.store.ssd_capacity_bytes = sum(sizes[:3]) + 1
        # The first chunks that fit stay; later ones do not push them out.
        assert self._fill_tier(tb) == 3
        assert [k for k in keys if tb.store.in_ssd(k)] == keys[:3]
        assert tb.store.stats.evictions == 0
        assert tb.store.stats.rejections == len(keys) - 3
        assert tb.store.ssd.stats.write_bytes == sum(sizes[:3])

    def _warm_tier(self, tb):
        self._fill_tier(tb)
        assert tb.store.ssd_used_bytes() == tb.store.size_bytes() > 0

    def test_delete_dataset_returns_the_tiers_bytes(self):
        tb, _ = self._setup()
        self._warm_tier(tb)
        n = len(tb.store)
        node = tb.compute_nodes[0]
        assert tb.run(tb.diesel.call(node, "delete_dataset", "ds")) == n
        assert len(tb.store) == 0
        assert tb.store.ssd_used_bytes() == 0

    def test_purge_returns_the_tiers_bytes(self):
        tb, files = self._setup()
        self._warm_tier(tb)
        node = tb.compute_nodes[0]
        doomed = sorted(files)[::2]

        def delete_and_purge():
            for path in doomed:
                yield from tb.diesel.call(node, "delete_file", "ds", path)
            n = yield from tb.diesel.call(node, "purge", "ds")
            return n

        assert tb.run(delete_and_purge()) > 0
        # Every old chunk is gone from both tiers; the rewritten ones are
        # on the HDD only until somebody reads them.
        assert not any(tb.store.in_ssd(k) for k in tb.store.list_keys())
        assert tb.store.ssd_used_bytes() == 0

        def read_back():
            for path in sorted(set(files) - set(doomed)):
                data = yield from tb.diesel.call(node, "get_file", "ds", path)
                assert data == files[path]

        tb.run(read_back())
