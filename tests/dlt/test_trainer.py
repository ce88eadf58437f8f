"""Tests for the pipelined trainer."""

import pytest

from repro.calibration import ModelProfile
from repro.dlt.trainer import run_training
from repro.sim import Environment, run_sync


class FakeReader:
    """Deterministic reader: fixed per-file read time, full order."""

    def __init__(self, env, paths, read_s, shuffle_s=0.0):
        self.env = env
        self.paths = list(paths)
        self.read_s = read_s
        self.shuffle_s = shuffle_s
        self.reads = 0

    def begin_epoch(self, epoch):
        yield self.env.timeout(self.shuffle_s)
        return list(self.paths)

    def read(self, path):
        yield self.env.timeout(self.read_s)
        self.reads += 1
        return b"x"


class TestPipelinedTrainer:
    def run(self, read_s, compute_s, n_files=64, batch=8, workers=4, epochs=1,
            prefetch=2, shuffle_s=0.0):
        env = Environment()
        model = ModelProfile("toy", compute_s=compute_s)
        reader = FakeReader(env, [f"/f{i}" for i in range(n_files)], read_s,
                            shuffle_s)
        result = run_sync(
            env,
            run_training(env, reader, model, epochs=epochs, batch_size=batch,
                         io_workers=workers, prefetch_depth=prefetch),
        )
        return env, reader, result

    def test_all_files_read_every_epoch(self):
        env, reader, result = self.run(read_s=1e-4, compute_s=1e-3, epochs=2)
        assert reader.reads == 2 * 64
        assert len(result.timings) == 2 * 8

    def test_compute_bound_hides_io(self):
        """Fast I/O + slow compute → stalls only on the cold first batch."""
        env, reader, result = self.run(read_s=1e-5, compute_s=1e-2)
        steady = [t.data_time_s for t in result.timings if t.iteration > 0]
        assert max(steady) < 1e-4
        first = result.timings[0]
        assert first.data_time_s > 0  # pipeline fill is visible

    def test_io_bound_stalls_every_iteration(self):
        """Slow I/O + fast compute → every iteration pays the read time."""
        env, reader, result = self.run(read_s=1e-2, compute_s=1e-4, workers=1)
        steady = [t.data_time_s for t in result.timings[1:]]
        # one worker: batch of 8 reads ≈ 80 ms each iteration
        assert min(steady) > 0.05

    def test_more_workers_reduce_stall(self):
        _, _, slow = self.run(read_s=2e-3, compute_s=1e-3, workers=1)
        _, _, fast = self.run(read_s=2e-3, compute_s=1e-3, workers=8)
        assert fast.mean_data_time() < slow.mean_data_time() / 2

    def test_first_iteration_spike_per_epoch(self):
        """Fig 14 shape: the shuffle + cold pipeline spikes iteration 0."""
        env, reader, result = self.run(
            read_s=1e-4, compute_s=5e-3, epochs=3, shuffle_s=0.05
        )
        per_epoch = result.epoch_data_times()
        for epoch_times in per_epoch:
            assert epoch_times[0] > 3 * max(epoch_times[1:])

    def test_epoch_wall_times_accumulate(self):
        env, reader, result = self.run(read_s=1e-4, compute_s=1e-3, epochs=2)
        assert len(result.epoch_walls) == 2
        assert result.total_time_s == pytest.approx(env.now)

    def test_aggregates(self):
        env, reader, result = self.run(read_s=1e-3, compute_s=1e-3)
        assert result.total_compute_time() == pytest.approx(8 * 1e-3)
        assert result.mean_data_time(skip_first_iteration=True) <= \
            result.timings[0].data_time_s + result.mean_data_time()

    def test_validation(self):
        env = Environment()
        model = ModelProfile("toy", compute_s=1e-3)
        reader = FakeReader(env, ["/a"], 1e-4)
        with pytest.raises(ValueError):
            run_sync(env, run_training(env, reader, model, epochs=0,
                                       batch_size=1))
