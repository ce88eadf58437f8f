"""Tests for the task-wide epoch scheduler and task-cache reader."""

import pytest

from repro.bench.setups import deploy, warmed_task
from repro.calibration import ModelProfile
from repro.dlt.readers import EpochScheduler
from repro.dlt.trainer import run_task_training
from repro.errors import DieselError
from repro.util.ids import ChunkIdGenerator

GEN = ChunkIdGenerator(machine=b"\x07" * 6, pid=7)

FILES = {f"/ds/f{i:03d}.jpg": bytes([i % 251]) * 1024 for i in range(48)}


def make_dataset(n_chunks=8, files_per_chunk=6):
    return {
        cid: [f"/c{ci:03d}/f{fi}" for fi in range(files_per_chunk)]
        for ci, cid in enumerate(GEN.take(n_chunks))
    }


def make_task(n_nodes=2, workers_per_node=1, group_size=2):
    """A warmed task cache plus scheduler and one reader per worker,
    ``workers_per_node`` workers on each of ``n_nodes`` nodes."""
    tb = deploy(n_nodes, "ds", FILES, chunk_size=8 * 1024, n_servers=1)
    nodes = [n for n in tb.compute_nodes for _ in range(workers_per_node)]
    task = warmed_task(tb, "ds", nodes, "tc", group_size=group_size, seed=11)
    readers = task.make_readers()
    return tb, task.cache, readers[0].scheduler, readers


class TestEpochScheduler:
    def test_shards_partition_the_dataset(self):
        data = make_dataset()
        sched = EpochScheduler(data, 2, 3)
        spread = [
            f for w in range(sched.n_workers)
            for f in sched.shard(0, w).files
        ]
        assert sorted(spread) == sorted(
            f for files in data.values() for f in files
        )

    def test_shard_is_cached_per_epoch(self):
        sched = EpochScheduler(make_dataset(), 2, 2)
        assert sched.shard(3, 0) is sched.shard(3, 0)

    def test_old_epochs_evicted(self):
        sched = EpochScheduler(make_dataset(), 2, 2)
        sched.shard(0, 0)
        sched.shard(1, 0)
        sched.shard(5, 0)
        assert 0 not in sched._shards and 1 not in sched._shards
        assert 5 in sched._shards

    def test_epochs_differ_but_are_deterministic(self):
        data = make_dataset()
        a = EpochScheduler(data, 2, 2, seed=3)
        b = EpochScheduler(data, 2, 2, seed=3)
        assert a.shard(0, 0).files == b.shard(0, 0).files
        assert a.shard(0, 0).files != a.shard(1, 0).files

    def test_validation(self):
        with pytest.raises(DieselError):
            EpochScheduler(make_dataset(), 0, 1)
        with pytest.raises(DieselError):
            EpochScheduler(make_dataset(), 2, 0)
        sched = EpochScheduler(make_dataset(), 2, 1)
        with pytest.raises(DieselError):
            sched.shard(0, 1)

    def test_every_epoch_reshuffles_every_worker(self):
        """§4.3's per-epoch contract: each epoch's shards partition the
        live files, and no worker reads the same file set two epochs in
        a row — a fresh chunk-wise shuffle every epoch, for every
        worker, not just a new order over a pinned slice."""
        data = make_dataset(n_chunks=24, files_per_chunk=5)
        data[next(iter(data))] = []  # every file of one chunk deleted
        live = sorted(f for files in data.values() for f in files)
        sched = EpochScheduler(data, 2, 4, seed=7)
        previous = None
        for epoch in range(6):
            shards = [sched.shard(epoch, w).files for w in range(4)]
            assert sorted(f for files in shards for f in files) == live
            sets = [frozenset(files) for files in shards]
            if previous is not None:
                for w in range(4):
                    assert sets[w] != previous[w], (epoch, w)
            previous = sets


class TestCacheReader:
    def test_begin_epoch_serves_the_shard(self):
        tb, cache, sched, readers = make_task()

        def proc():
            order = yield from readers[0].begin_epoch(0)
            return order

        order = tb.run(proc())
        assert order == sched.shard(0, 0).files
        assert readers[0].last_plan is sched.shard(0, 0)

    def test_read_resolves_through_the_cache(self):
        tb, cache, sched, readers = make_task()

        def proc():
            order = yield from readers[0].begin_epoch(0)
            data = yield from readers[0].read(order[0])
            return order[0], data

        path, data = tb.run(proc())
        assert data == FILES[path]
        assert cache.stats.local_hits + cache.stats.remote_hits == 1


class TestTaskTraining:
    def test_multi_worker_training_reads_everything_locally(self):
        tb, cache, sched, readers = make_task(n_nodes=1, workers_per_node=2)
        model = ModelProfile("toy", compute_s=1e-4)

        def proc():
            results = yield from run_task_training(
                tb.env, readers, model, epochs=2, batch_size=4
            )
            return results

        results = tb.run(proc())
        assert len(results) == len(readers)
        total_iters = sum(len(r.timings) for r in results)
        assert total_iters == 2 * len(FILES) / 4  # 2 epochs, batch 4
        # Both workers share their node's one master: every hit is a
        # node-local copy; nothing paid the cross-node hop.
        assert cache.stats.local_hits == 2 * len(FILES)
        assert cache.stats.remote_hits == 0

    def test_validation(self):
        tb, cache, sched, readers = make_task()
        model = ModelProfile("toy", compute_s=1e-4)

        def proc():
            yield from run_task_training(tb.env, [], model, 1, 4)

        with pytest.raises(ValueError):
            tb.run(proc())
