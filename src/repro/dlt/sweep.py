"""Multi-task sweep scheduling: N trainers over one shared dataset.

The model-selection workload (Hoard; cerebro-style sweeps): N training
tasks — hyperparameter candidates, ensemble members — all read the
*same* dataset concurrently.  Each task keeps its own
:class:`~repro.core.dist_cache.TaskCache` (its own masters, partitions
and epoch plans), but all of them admit chunks through one
:class:`~repro.core.shared_cache.SharedCacheRegistry`, so the dataset
is fetched from the object store once and held in memory once per node
no matter how many tasks run.

:func:`build_sweep_task` wires one task (cache + per-worker readers);
:func:`run_sweep` registers every task concurrently — cross-task
single-flight coalesces the racing warmups — and then drives one
pipelined training loop per task worker via
:func:`~repro.dlt.trainer.run_task_training`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Sequence

from repro.calibration import ModelProfile
from repro.core.dist_cache import TaskCache
from repro.dlt.readers import CacheReader, EpochScheduler
from repro.dlt.trainer import TrainingResult, run_task_training
from repro.errors import DieselError
from repro.sim.engine import Environment, Event

#: How :func:`run_sweep` trains every task: one epoch of ``BATCH_SIZE``
#: files per iteration, each worker with ``IO_WORKERS`` loader reading
#: ``PREFETCH_DEPTH`` batches ahead.
EPOCHS = 1
BATCH_SIZE = 8
IO_WORKERS = 1
PREFETCH_DEPTH = 2


@dataclass
class SweepTask:
    """One training task of a sweep: its cache and its worker clients."""

    name: str
    cache: TaskCache
    #: DieselClients in worker order (one per task worker/node).
    clients: List[Any]
    group_size: int = 2
    seed: int = 0
    readers: List[CacheReader] = field(default_factory=list)

    @property
    def index(self):
        """The dataset snapshot every worker of the task holds."""
        return self.clients[0].index

    def scheduler(self) -> EpochScheduler:
        """The task's epoch scheduler: one shard per worker per epoch,
        drawn afresh each epoch."""
        return EpochScheduler(
            self.index.files_by_chunk(), self.group_size,
            len(self.clients), self.seed,
        )

    def read(self, w: int, paths) -> Generator[Event, Any, None]:
        """Worker ``w`` reads ``paths``, in order, through the task cache."""
        cc, index = self.cache.clients[w], self.index
        for path in paths:
            yield from self.cache.read_file(cc, index.lookup(path))

    def make_readers(self) -> List[CacheReader]:
        """Build one :class:`CacheReader` per worker over the shared
        :meth:`scheduler`."""
        scheduler = self.scheduler()
        self.readers = [
            CacheReader(scheduler, self.cache, c.as_cache_client(), self.index, w)
            for w, c in enumerate(self.clients)
        ]
        return self.readers


def build_sweep_task(
    name: str,
    env: Environment,
    fabric,
    server,
    dataset: str,
    clients: Sequence[Any],
    *,
    group_size: int = 2,
    seed: int = 0,
    **cache,
) -> SweepTask:
    """Wire one sweep task: a TaskCache over ``clients`` plus readers.

    ``clients`` are :class:`~repro.core.client.DieselClient` instances
    with the dataset snapshot loaded (one per worker).  ``cache`` is
    passed to :class:`~repro.core.dist_cache.TaskCache` as is
    (``policy`` and ``shared`` — the sweep-wide
    :class:`~repro.core.shared_cache.SharedCacheRegistry`, None =
    task-private caches).  The cache is attached to
    every client so their ``DL_get`` path resolves through it.  ``env``
    and ``fabric`` are the ``server``'s, which the cache takes them
    from.
    """
    if not clients:
        raise DieselError("a sweep task needs at least one client")
    cache = TaskCache(
        server, dataset, [c.as_cache_client() for c in clients], **cache
    )
    for c in clients:
        c.attach_cache(cache)
    return SweepTask(
        name=name, cache=cache, clients=list(clients),
        group_size=group_size, seed=seed,
    )


def register_sweep(
    env: Environment, tasks: Sequence[SweepTask], wait_warm: bool = True
) -> Generator[Event, Any, int]:
    """Register every task concurrently; returns total chunks warmed.

    Concurrent registration is the point: all the oneshot warmups race,
    and with a shared tier attached the cross-task single-flight map
    collapses them onto one backend fetch per (node, chunk).
    """
    regs = [
        env.process(t.cache.register(), name=f"register:{t.name}")
        for t in tasks
    ]
    yield env.all_of(regs)
    if not wait_warm:
        return 0
    warms = [
        env.process(t.cache.wait_warm(), name=f"warm:{t.name}")
        for t in tasks
    ]
    results = yield env.all_of(warms)
    return sum(results.values())


def run_sweep(
    env: Environment,
    tasks: Sequence[SweepTask],
    model: ModelProfile,
) -> Generator[Event, Any, Dict[str, List[TrainingResult]]]:
    """Register every sweep task, then run their training concurrently;
    results by task.

    The registrations overlap in simulated time, and so do the
    per-task training loops — the contention pattern a real
    model-selection sweep puts on the storage tier.  Returns ``{task
    name: [TrainingResult per worker]}``, each job named after its task.
    """
    if not tasks:
        raise DieselError("run_sweep needs at least one task")
    yield from register_sweep(env, tasks)
    procs = []
    for t in tasks:
        readers = t.make_readers()
        procs.append(env.process(
            run_task_training(
                env, readers, model, EPOCHS, BATCH_SIZE,
                IO_WORKERS, PREFETCH_DEPTH, model_name=t.name,
            ),
            name=f"sweep:{t.name}",
        ))
    results: Dict[str, List[TrainingResult]] = {}
    for t, proc in zip(tasks, procs):
        results[t.name] = yield proc
    return results
