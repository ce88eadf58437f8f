"""Tests for the trainer's storage readers (Lustre / DIESEL-FUSE)."""

from repro.bench.setups import (
    add_lustre,
    bulk_load_lustre,
    deploy,
    diesel_client_with_snapshot,
    make_testbed,
)
from repro.calibration import ModelProfile
from repro.core.config import DieselConfig
from repro.core.fuse import mount
from repro.dlt.readers import FuseReader, LustreReader
from repro.dlt.trainer import run_training

FILES = {f"/r/f{i:03d}": bytes([i]) * 1024 for i in range(30)}


def make_lustre_reader():
    tb = make_testbed(n_compute=1)
    fs = add_lustre(tb)
    bulk_load_lustre(tb, FILES)
    return tb, LustreReader(fs, tb.compute_nodes[0], list(FILES), seed=1)


def make_fuse_reader():
    tb = deploy(1, "ds", FILES, chunk_size=8 * 1024)
    client = diesel_client_with_snapshot(tb, "ds", tb.compute_nodes[0], "c0")
    client.enable_shuffle(group_size=2)
    return tb, FuseReader(mount([client]), seed=1)


class TestLustreReader:
    def test_epoch_order_is_permutation(self):
        tb, reader = make_lustre_reader()

        def proc():
            order = yield from reader.begin_epoch(0)
            return order

        order = tb.run(proc())
        assert sorted(order) == sorted(FILES)

    def test_epochs_differ(self):
        tb, reader = make_lustre_reader()

        def proc():
            o1 = yield from reader.begin_epoch(0)
            o2 = yield from reader.begin_epoch(1)
            return o1, o2

        o1, o2 = tb.run(proc())
        assert o1 != o2

    def test_read_returns_bytes(self):
        tb, reader = make_lustre_reader()

        def proc():
            data = yield from reader.read("/r/f005")
            return data

        assert tb.run(proc()) == FILES["/r/f005"]

    def test_shuffle_charges_time(self):
        tb, reader = make_lustre_reader()

        def proc():
            t0 = tb.env.now
            yield from reader.begin_epoch(0)
            return tb.env.now - t0

        assert tb.run(proc()) > 0


class TestFuseReader:
    def test_epoch_order_is_permutation(self):
        tb, reader = make_fuse_reader()

        def proc():
            order = yield from reader.begin_epoch(0)
            return order

        assert sorted(tb.run(proc())) == sorted(FILES)

    def test_chunkwise_order_groups_chunks(self):
        tb, reader = make_fuse_reader()
        client = reader.mount.clients[0]
        grouping = client.index.files_by_chunk()
        chunk_of = {f: cid for cid, fl in grouping.items() for f in fl}

        def proc():
            order = yield from reader.begin_epoch(0)
            return order

        order = tb.run(proc())
        # Consecutive same-chunk fraction far above a uniform shuffle's.
        same = sum(1 for a, b in zip(order, order[1:])
                   if chunk_of[a] == chunk_of[b])
        assert same / (len(order) - 1) > 0.2

    def test_read_through_fuse_verifies(self):
        tb, reader = make_fuse_reader()

        def proc():
            yield from reader.begin_epoch(0)
            data = yield from reader.read("/r/f010")
            return data

        assert tb.run(proc()) == FILES["/r/f010"]

    def test_cancelled_training_stops_read_ahead(self):
        # Chunks big enough that the read-ahead is mid-transfer at 1 ms.
        files = {f"/r/g{i:03d}": bytes([i]) * 100_000 for i in range(160)}
        tb = deploy(2, "ds", files, chunk_size=2 * 1024 * 1024)
        client = diesel_client_with_snapshot(
            tb, "ds", tb.compute_nodes[0], "c0",
            config=DieselConfig(shuffle_group_size=4, prefetch_depth=4),
        )
        client.enable_shuffle(group_size=4)
        reader = FuseReader(mount([client]), seed=1)
        proc = tb.env.process(run_training(
            tb.env, reader, ModelProfile("slow", 5e-3), epochs=1,
            batch_size=8))
        tb.env.run(until=tb.env.now + 1e-3)
        unread = len(client.prefetcher._outstanding)
        assert unread > 0
        proc.interrupt("job cancelled")
        reads = tb.diesel.stats.chunk_reads
        tb.env.run(until=tb.env.now + 1.0)
        assert not proc.ok
        # Nothing keeps fetching for a job that is gone ...
        assert tb.diesel.stats.chunk_reads == reads
        # ... and what it fetched ahead but never read is waste.
        assert client.stats.prefetch_wasted == unread
        assert client.prefetcher is None
