"""Tests for the PyTorch-style SimDataLoader."""

import re

import pytest

from repro.dlt.dataloader import SimDataLoader
from repro.errors import DieselError
from repro.sim import Environment, run_sync


class SlowReader:
    """Fixed per-file read time; echoes path-derived bytes."""

    def __init__(self, env, paths, read_s=1e-3, shuffle_s=0.0):
        self.env = env
        self.paths = list(paths)
        self.read_s = read_s
        self.shuffle_s = shuffle_s

    def begin_epoch(self, epoch):
        yield self.env.timeout(self.shuffle_s)
        # rotate deterministically per epoch so orders differ
        k = epoch % max(1, len(self.paths))
        return self.paths[k:] + self.paths[:k]

    def read(self, path):
        yield self.env.timeout(self.read_s)
        return path.encode()


class BatchReader(SlowReader):
    """A reader exposing the optional batched read path.

    One flat ``read_s`` per *batch* (instead of per file), the shape a
    DIESEL ``get_many()`` backend has: the loader workers must prefer
    ``read_batch`` over per-file ``read`` calls.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_calls = 0
        self.single_calls = 0

    def read(self, path):
        self.single_calls += 1
        return (yield from super().read(path))

    def read_batch(self, paths):
        self.batch_calls += 1
        yield self.env.timeout(self.read_s)
        return {p: p.encode() for p in paths}


def make_loader(n_files=20, batch=4, workers=2, read_s=1e-3, **kw):
    env = Environment()
    reader = SlowReader(env, [f"/f{i:02d}" for i in range(n_files)], read_s)
    return env, SimDataLoader(env, reader, batch_size=batch,
                              num_workers=workers, **kw)


class TestLoader:
    def test_validation(self):
        env = Environment()
        with pytest.raises(DieselError):
            SimDataLoader(env, None, batch_size=0)

    def test_batch_count_and_contents(self):
        env, loader = make_loader(n_files=10, batch=4)

        def proc():
            n = yield from loader.begin_epoch(0)
            batches = yield from loader.drain()
            return n, batches

        n, batches = run_sync(env, proc())
        assert n == 3  # 4+4+2
        assert [len(b.items) for b in batches] == [4, 4, 2]
        seen = [p for b in batches for p in b.paths]
        assert sorted(seen) == sorted(f"/f{i:02d}" for i in range(10))
        for b in batches:
            for path, data in b.items:
                assert data == path.encode()

    def test_drop_last(self):
        env, loader = make_loader(n_files=10, batch=4, drop_last=True)

        def proc():
            n = yield from loader.begin_epoch(0)
            yield from loader.drain()
            return n

        assert run_sync(env, proc()) == 2

    def test_next_before_epoch_raises(self):
        env, loader = make_loader()

        def proc():
            yield from loader.next_batch()

        with pytest.raises(DieselError):
            run_sync(env, proc())

    def test_new_epoch_before_drain_raises(self):
        env, loader = make_loader(n_files=8, batch=4)

        def proc():
            yield from loader.begin_epoch(0)
            yield from loader.begin_epoch(1)

        with pytest.raises(DieselError) as err:
            run_sync(env, proc())
        # Every method the message names exists on the loader.
        named = re.findall(r"(\w+)\(\)", str(err.value))
        assert named and all(hasattr(loader, m) for m in named)

    def test_epoch_orders_differ(self):
        env, loader = make_loader(n_files=8, batch=8)

        def proc():
            yield from loader.begin_epoch(0)
            (b0,) = yield from loader.drain()
            yield from loader.begin_epoch(1)
            (b1,) = yield from loader.drain()
            return b0.paths, b1.paths

        o0, o1 = run_sync(env, proc())
        assert o0 != o1 and sorted(o0) == sorted(o1)

    def test_prefetch_hides_io_behind_compute(self):
        env, loader = make_loader(n_files=24, batch=4, workers=4,
                                  read_s=1e-4)

        def train():
            yield from loader.begin_epoch(0)
            for _ in range(6):
                batch = yield from loader.next_batch()
                yield env.timeout(5e-3)  # compute dominates
            return loader.stats

        stats = run_sync(env, train())
        # After the cold start, waits are ~zero.
        assert stats.total_wait_s < stats.total_fetch_s
        assert stats.batches == 6

    def test_io_bound_consumer_stalls(self):
        env, loader = make_loader(n_files=24, batch=4, workers=1,
                                  read_s=2e-3)

        def train():
            yield from loader.begin_epoch(0)
            for _ in range(6):
                yield from loader.next_batch()
                yield env.timeout(1e-4)  # compute is trivial
            return loader.stats

        stats = run_sync(env, train())
        assert stats.total_wait_s / stats.batches > 1e-3  # real stalls

    def test_batched_reader_preferred(self):
        env = Environment()
        reader = BatchReader(env, [f"/f{i:02d}" for i in range(10)], 1e-3)
        loader = SimDataLoader(env, reader, batch_size=4, num_workers=2)

        def proc():
            yield from loader.begin_epoch(0)
            batches = yield from loader.drain()
            return batches

        batches = run_sync(env, proc())
        # One read_batch per mini-batch, zero per-file reads.
        assert reader.batch_calls == 3
        assert reader.single_calls == 0
        # Item order inside each delivered batch follows the path order.
        for b in batches:
            for path, data in b.items:
                assert data == path.encode()
        seen = [p for b in batches for p in b.paths]
        assert sorted(seen) == sorted(f"/f{i:02d}" for i in range(10))

    def test_stats_accumulate(self):
        env, loader = make_loader(n_files=8, batch=4)

        def proc():
            yield from loader.begin_epoch(0)
            yield from loader.drain()

        run_sync(env, proc())
        assert loader.stats.files == 8
        assert loader.stats.bytes == sum(len(f"/f{i:02d}") for i in range(8))
        assert loader.stats.total_fetch_s > 0
