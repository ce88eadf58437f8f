"""Tests for the affinity epoch scheduler and task-cache reader."""

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


def make_locality_task(n_nodes=2, placement="locality", group_size=2):
    """A warmed multi-node task cache plus scheduler and per-node readers."""
    tb = deploy(n_nodes, "ds", FILES, chunk_size=8 * 1024, n_servers=1)
    task = warmed_task(
        tb, "ds", tb.compute_nodes, "tc", placement=placement,
        group_size=group_size, seed=11,
    )
    readers = task.make_readers()
    return tb, task.cache, readers[0].scheduler, readers


class TestEpochScheduler:
    def test_shards_partition_the_dataset(self):
        data = make_dataset()
        sched = EpochScheduler(data, 2, ["n0", "n1", "n2"])
        spread = [
            f for w in range(sched.n_workers)
            for f in sched.shard(0, w).files
        ]
        assert sorted(spread) == sorted(
            f for files in data.values() for f in files
        )

    def test_shard_is_cached_per_epoch(self):
        sched = EpochScheduler(make_dataset(), 2, ["n0", "n1"])
        assert sched.shard(3, 0) is sched.shard(3, 0)

    def test_old_epochs_evicted(self):
        sched = EpochScheduler(make_dataset(), 2, ["n0", "n1"])
        sched.shard(0, 0)
        sched.shard(1, 0)
        sched.shard(5, 0)
        assert 0 not in sched._shards and 1 not in sched._shards
        assert 5 in sched._shards

    def test_cached_plan_repins_after_membership_change(self):
        class FakeCache:
            def __init__(self, owners):
                self.owners = dict(owners)
                self.membership_version = 0
                self.affinity_owner_of = self.chunk_owner_node

            def chunk_owner_node(self, cid):
                return self.owners.get(cid)

        data = make_dataset(n_chunks=8)
        cids = sorted(data)
        cache = FakeCache({cid: "n0" for cid in cids})
        sched = EpochScheduler(data, 2, ["n0", "n1"], cache=cache)
        before = [sched.shard(0, w) for w in range(2)]
        assert sched.repins == 0
        # A scale event moves half the chunks to the new node n1.
        for cid in cids[::2]:
            cache.owners[cid] = "n1"
        cache.membership_version += 1
        after = [sched.shard(0, w) for w in range(2)]
        assert sched.repins == 1
        # Read order is committed — only the owner tags refresh.
        for b, a in zip(before, after):
            assert a.files == b.files
            assert [g.chunk_ids for g in a.groups] == [
                g.chunk_ids for g in b.groups
            ]
        owners = {
            g.owner for plan in after for g in plan.groups if g.owner
        }
        assert "n1" in owners
        # Same version: the re-pinned plan is served from cache.
        assert sched.shard(0, 0) is after[0]
        assert sched.repins == 1
        # A fresh epoch builds against the current map — no repin needed.
        sched.shard(1, 0)
        assert sched.repins == 1

    def test_plan_drawn_ahead_is_rebuilt_after_membership_change(self):
        class FakeCache:
            membership_version = 0

            def __init__(self):
                self.owners = {}

            def affinity_owner_of(self, cid):
                return self.owners.get(cid, "n0")

            chunk_owner_node = affinity_owner_of

        data = make_dataset(n_chunks=8)
        cache = FakeCache()
        sched = EpochScheduler(data, 2, ["n0", "n1"], cache=cache)
        sched.shard(0, 0)
        ahead = sched.shard(1, 0, ahead=True)
        assert sched.shard(1, 0, ahead=True) is ahead
        # A scale event moves half the chunks to n1 before epoch 1 begins.
        for cid in sorted(data)[::2]:
            cache.owners[cid] = "n1"
        cache.membership_version += 1
        begun = sched.shard(1, 0)
        fresh = EpochScheduler(data, 2, ["n0", "n1"], cache=cache)
        assert begun is not ahead and sched.repins == 0
        assert [g.chunk_ids for g in begun.groups] == [
            g.chunk_ids for g in fresh.shard(1, 0).groups]
        assert {g.owner for g in begun.groups} == {"n0"}
        # Begun, it is re-pinned, not redrawn, by the next change.
        cache.membership_version += 1
        assert sched.shard(1, 0).files == begun.files
        assert sched.repins == 1

    def test_epochs_differ_but_are_deterministic(self):
        data = make_dataset()
        a = EpochScheduler(data, 2, ["n0", "n1"], seed=3)
        b = EpochScheduler(data, 2, ["n0", "n1"], seed=3)
        assert a.shard(0, 0).files == b.shard(0, 0).files
        assert a.shard(0, 0).files != a.shard(1, 0).files

    def test_validation(self):
        with pytest.raises(DieselError):
            EpochScheduler(make_dataset(), 0, ["n0"])
        with pytest.raises(DieselError):
            EpochScheduler(make_dataset(), 2, [])
        sched = EpochScheduler(make_dataset(), 2, ["n0"])
        with pytest.raises(DieselError):
            sched.shard(0, 1)

    def test_affinity_shards_are_owner_aligned(self):
        tb, cache, sched, _ = make_locality_task()
        for w, node in enumerate(sched._worker_nodes):
            for g in sched.shard(0, w).groups:
                assert g.owner == node

    def test_hash_placement_shards_unaligned(self):
        """Under the hash ring the scheduler falls back to a plain split."""
        tb, cache, sched, _ = make_locality_task(placement="hash")
        groups = [g for w in range(2) for g in sched.shard(0, w).groups]
        assert all(g.owner is None for g in groups)


class TestCacheReader:
    def test_begin_epoch_serves_the_shard(self):
        tb, cache, sched, readers = make_locality_task()

        def proc():
            order = yield from readers[0].begin_epoch(0)
            return order

        order = tb.run(proc())
        assert order == sched.shard(0, 0).files
        assert readers[0].last_plan is sched.shard(0, 0)

    def test_read_resolves_through_the_cache(self):
        tb, cache, sched, readers = make_locality_task()

        def proc():
            order = yield from readers[0].begin_epoch(0)
            data = yield from readers[0].read(order[0])
            return order[0], data

        path, data = tb.run(proc())
        assert data == FILES[path]
        assert cache.stats.local_hits == 1  # affinity: the shard is co-located


class TestTaskTraining:
    def test_multi_worker_training_reads_everything_locally(self):
        tb, cache, sched, readers = make_locality_task()
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
        # Every hit in a locality-placed, affinity-scheduled task is
        # node-local; nothing paid the cross-node hop.
        assert cache.stats.local_hits == 2 * len(FILES)
        assert cache.stats.remote_hits == 0

    def test_validation(self):
        tb, cache, sched, readers = make_locality_task()
        model = ModelProfile("toy", compute_s=1e-4)

        def proc():
            yield from run_task_training(tb.env, [], model, 1, 4)

        with pytest.raises(ValueError):
            tb.run(proc())
