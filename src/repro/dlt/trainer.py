"""Pipelined training loop in simulated time (Figs 14–15).

Reproduces the PyTorch dataloader execution model the paper measures
(§6.6): a compute process consumes mini-batches while ``io_workers``
worker processes prefetch the next batches through a storage reader.
"Data access time" per iteration is the stall the compute process
experiences waiting for its next ready batch — near zero when I/O keeps
up, the full read time when it does not, with a spike at each epoch's
first iteration where the shuffle + cold pipeline cannot be hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Sequence

from repro.calibration import ModelProfile
from repro.errors import InterruptError
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store


@dataclass(frozen=True)
class IterationTiming:
    epoch: int
    iteration: int
    #: Stall: time the compute process waited for its next ready batch.
    data_time_s: float
    compute_time_s: float
    #: Wall time an I/O worker spent fetching one batch (start→ready),
    #: whether or not it was hidden behind compute — the quantity a
    #: dataloader's internal instrumentation reports (Fig 14).
    fetch_time_s: float = 0.0


@dataclass
class TrainingResult:
    """Per-iteration timings plus aggregate views."""

    model_name: str
    timings: List[IterationTiming] = field(default_factory=list)
    epoch_walls: List[float] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return sum(self.epoch_walls)

    def mean_data_time(self, skip_first_iteration: bool = False) -> float:
        times = [
            t.data_time_s
            for t in self.timings
            if not (skip_first_iteration and t.iteration == 0)
        ]
        return sum(times) / len(times) if times else 0.0

    def mean_fetch_time(self, skip_first_iteration: bool = False) -> float:
        times = [
            t.fetch_time_s
            for t in self.timings
            if not (skip_first_iteration and t.iteration == 0)
        ]
        return sum(times) / len(times) if times else 0.0

    def epoch_data_times(self) -> list[list[float]]:
        """Per-epoch lists of per-iteration data access times (Fig 14)."""
        n_epochs = max((t.epoch for t in self.timings), default=-1) + 1
        out: list[list[float]] = [[] for _ in range(n_epochs)]
        for t in self.timings:
            out[t.epoch].append(t.data_time_s)
        return out

    def total_compute_time(self) -> float:
        return sum(t.compute_time_s for t in self.timings)


def run_training(
    env: Environment,
    reader,
    model: ModelProfile,
    epochs: int,
    batch_size: int,
    io_workers: int = 4,
    prefetch_depth: int = 2,
    model_name: str | None = None,
) -> Generator[Event, Any, TrainingResult]:
    """Run a pipelined training job; returns a :class:`TrainingResult`.

    ``reader`` is one of :mod:`repro.dlt.readers`: it yields the epoch
    file order (charging shuffle cost) and reads single files.
    """
    if epochs < 1 or batch_size < 1 or io_workers < 1 or prefetch_depth < 1:
        raise ValueError("epochs/batch_size/io_workers/prefetch_depth must be >= 1")
    result = TrainingResult(model_name or model.name)
    cancel_epoch = getattr(reader, "cancel_epoch", None)

    for epoch in range(epochs):
        epoch_start = env.now
        order = yield from reader.begin_epoch(epoch)
        batches = [
            order[i : i + batch_size] for i in range(0, len(order), batch_size)
        ]
        todo: Store = Store(env)
        ready: Store = Store(env, capacity=max(1, prefetch_depth))
        for b in batches:
            todo.put(b)
        for _ in range(io_workers):
            todo.put(None)  # one stop sentinel per worker

        read_batch = getattr(reader, "read_batch", None)

        def io_worker(env=env, todo=todo, ready=ready):
            while True:
                batch = yield todo.get()
                if batch is None:
                    return
                t0 = env.now
                if read_batch is not None:
                    # Single batched read per mini-batch (get_many()).
                    yield from read_batch(batch)
                else:
                    for path in batch:
                        yield from reader.read(path)
                yield ready.put(env.now - t0)

        workers = [
            env.process(io_worker(), name=f"io{w}") for w in range(io_workers)
        ]

        try:
            for iteration in range(len(batches)):
                t0 = env.now
                fetch_time = yield ready.get()
                data_time = env.now - t0
                yield env.timeout(model.compute_s)
                result.timings.append(
                    IterationTiming(
                        epoch, iteration, data_time, model.compute_s,
                        fetch_time,
                    )
                )
            # Workers drain their sentinels and exit.
            yield env.all_of(workers)
        except InterruptError:
            # Training cancelled mid-epoch: take the I/O workers and the
            # reader's read-ahead down too, nothing may keep fetching.
            for worker in workers:
                if worker.is_alive:
                    worker.interrupt("training cancelled")
            if cancel_epoch is not None:
                cancel_epoch()
            raise
        result.epoch_walls.append(env.now - epoch_start)
    # The job is done: stop reading ahead into an epoch it never runs.
    if cancel_epoch is not None:
        cancel_epoch()
    return result


def run_task_training(
    env: Environment,
    readers: Sequence,
    model: ModelProfile,
    epochs: int,
    batch_size: int,
    io_workers: int = 1,
    prefetch_depth: int = 2,
    model_name: str | None = None,
) -> Generator[Event, Any, List[TrainingResult]]:
    """Run one pipelined training job per task worker, concurrently.

    The multi-worker execution model behind task-wide epoch scheduling:
    each reader (typically a :class:`~repro.dlt.readers.CacheReader`
    bound to one worker's shard of the shared
    :class:`~repro.dlt.readers.EpochScheduler` plan) drives its own
    :func:`run_training` loop; all workers advance in parallel in
    simulated time.  Returns the per-worker results in reader order.
    """
    if not readers:
        raise ValueError("need at least one reader")
    procs = [
        env.process(
            run_training(
                env, reader, model, epochs, batch_size,
                io_workers, prefetch_depth, model_name,
            ),
            name=f"task-train{w}",
        )
        for w, reader in enumerate(readers)
    ]
    results: List[TrainingResult] = []
    for proc in procs:
        res = yield proc
        results.append(res)
    return results
