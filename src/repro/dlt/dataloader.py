"""A PyTorch-style DataLoader over simulated storage.

The paper's training jobs consume data through PyTorch's ``DataLoader``
(§6.6): N worker processes prefetch mini-batches through the filesystem
while the training loop iterates ready batches.  :class:`SimDataLoader`
reproduces that execution model over any :class:`repro.dlt.readers`
backend, exposing a generator-iterator the training loop drives in
simulated time::

    loader = SimDataLoader(env, reader, batch_size=32, num_workers=4)
    batches = yield from loader.begin_epoch(epoch)
    for _ in range(batches):
        batch = yield from loader.next_batch()
        # batch.items: list of (path, bytes); batch.wait_s: the stall

It reports both the stall (time the consumer waited) and the fetch time
(worker wall time per batch) — the two quantities Fig 14 is about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

from repro.core.shuffle import EpochPlan, chunkwise_shuffle
from repro.errors import DieselError
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store


@dataclass
class Batch:
    """One delivered mini-batch."""

    epoch: int
    index: int
    items: List[Tuple[str, bytes]]
    #: Worker wall time spent fetching this batch (hidden or not).
    fetch_s: float
    #: Time the consumer stalled waiting for this batch.
    wait_s: float

    @property
    def paths(self) -> List[str]:
        return [p for p, _ in self.items]

    @property
    def nbytes(self) -> int:
        return sum(len(d) for _, d in self.items)


@dataclass(slots=True)
class LoaderStats(Counters):
    batches: int = 0
    files: int = 0
    bytes: int = 0
    total_wait_s: float = 0.0
    total_fetch_s: float = 0.0


class EpochScheduler:
    """Task-wide affinity epoch scheduler (§4.3 meets §4.2 placement).

    A multi-worker task draws **one** chunk-wise plan per epoch and
    splits it into per-worker shards.  With a locality-placed
    :class:`~repro.core.dist_cache.TaskCache` attached, the plan is
    owner-bucketed and each shuffle group is pinned to the worker
    co-located with the master owning its chunks — so steady-state
    reads are node-local memory copies — while the group order inside
    every shard is still permuted per epoch (the Fig 13 shuffle
    contract).  Without a cache (or under hash placement) shards are
    dealt least-loaded, reproducing a plain balanced split.

    Shards are built lazily per epoch and cached, so workers may call
    :meth:`shard` out of order; ``worker_nodes[i]`` names the node
    worker *i* runs on (the affinity key).
    """

    def __init__(
        self,
        files_by_chunk: Mapping,
        group_size: int,
        worker_nodes: Sequence[str],
        cache=None,
        seed: int = 0,
    ) -> None:
        if group_size < 1:
            raise DieselError("group_size must be >= 1")
        if not worker_nodes:
            raise DieselError("need at least one worker node")
        self._files_by_chunk = dict(files_by_chunk)
        self._group_size = group_size
        self._worker_nodes = list(worker_nodes)
        self._cache = cache
        self._seed = seed
        self._shards: Dict[int, List[EpochPlan]] = {}
        #: Cache membership version each cached epoch was built against.
        self._shard_versions: Dict[int, int] = {}
        #: Epochs whose cached shards were re-pinned after a scale event.
        self.repins = 0

    @property
    def n_workers(self) -> int:
        return len(self._worker_nodes)

    @property
    def group_size(self) -> int:
        """Chunks per shuffle group — a reader's §4.3 working set."""
        return self._group_size

    def affinity(self) -> Dict[str, int]:
        """Owner-node → worker-index map for ``EpochPlan.partition``."""
        return {name: i for i, name in enumerate(self._worker_nodes)}

    def _membership_version(self) -> int:
        return getattr(self._cache, "membership_version", 0) if (
            self._cache is not None) else 0

    def shard(self, epoch: int, worker: int) -> EpochPlan:
        """This worker's slice of the epoch's shared plan."""
        if not 0 <= worker < self.n_workers:
            raise DieselError(f"worker index {worker} out of range")
        if epoch not in self._shards:
            self._shards[epoch] = self._build(epoch)
            self._shard_versions[epoch] = self._membership_version()
            # Bound memory: workers only ever straddle two epochs.
            for old in [e for e in self._shards if e < epoch - 1]:
                del self._shards[old]
                self._shard_versions.pop(old, None)
        elif self._shard_versions.get(epoch) != self._membership_version():
            # Elastic membership changed under a cached plan: re-pin the
            # shards' owner tags to the new chunk→master map without
            # reshuffling (the epoch's read order is already committed;
            # a reshuffle would re-read some files and drop others).
            owner_of = getattr(self._cache, "chunk_owner_node", None)
            if owner_of is not None:
                self._shards[epoch] = [
                    plan.repin(owner_of) for plan in self._shards[epoch]
                ]
                self.repins += 1
            self._shard_versions[epoch] = self._membership_version()
        return self._shards[epoch][worker]

    def _build(self, epoch: int) -> List[EpochPlan]:
        # Seed mixing mirrors DieselClient._epoch_seed: the epoch
        # sequence is reproducible, successive epochs differ.
        rng = random.Random(hash((self._seed, epoch)))
        owner_of = None
        affinity = None
        if (
            self._cache is not None
            and getattr(self._cache, "placement", "hash") == "locality"
        ):
            owner_of = self._cache.chunk_owner_node
            affinity = self.affinity()
        plan = chunkwise_shuffle(
            self._files_by_chunk, self._group_size, rng, owner_of=owner_of
        )
        return plan.partition(self.n_workers, rng, affinity=affinity)


class SimDataLoader:
    """Worker-pool prefetching loader over a :mod:`repro.dlt.readers` backend."""

    def __init__(
        self,
        env: Environment,
        reader,
        batch_size: int = 32,
        num_workers: int = 4,
        prefetch_depth: int = 2,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1 or num_workers < 1 or prefetch_depth < 1:
            raise DieselError(
                "batch_size, num_workers and prefetch_depth must be >= 1"
            )
        self.env = env
        self.reader = reader
        self.batch_size = batch_size
        self.num_workers = num_workers
        self.prefetch_depth = prefetch_depth
        self.drop_last = drop_last
        self.stats = LoaderStats()
        self._epoch: Optional[int] = None
        self._ready: Optional[Store] = None
        self._workers: list = []
        self._remaining = 0
        self._batch_index = 0

    # ------------------------------------------------------------ epochs
    def begin_epoch(self, epoch: int) -> Generator[Event, Any, int]:
        """Shuffle, partition into batches, start workers.

        Returns the number of batches this epoch will deliver.
        """
        if self._remaining:
            raise DieselError(
                f"epoch {self._epoch} still has {self._remaining} undelivered "
                f"batches; drain() them first"
            )
        order = yield from self.reader.begin_epoch(epoch)
        batches = [
            order[i : i + self.batch_size]
            for i in range(0, len(order), self.batch_size)
        ]
        if self.drop_last and batches and len(batches[-1]) < self.batch_size:
            batches.pop()
        self._epoch = epoch
        self._batch_index = 0
        self._remaining = len(batches)
        todo: Store = Store(self.env)
        self._ready = Store(self.env, capacity=self.prefetch_depth)
        for b in batches:
            todo.put(b)
        for _ in range(self.num_workers):
            todo.put(None)  # stop sentinel per worker

        read_batch = getattr(self.reader, "read_batch", None)

        def worker():
            while True:
                paths = yield todo.get()
                if paths is None:
                    return
                t0 = self.env.now
                if read_batch is not None:
                    # One batched read per mini-batch (DIESEL get_many()).
                    got = yield from read_batch(paths)
                    items = [(p, got[p]) for p in paths]
                else:
                    items = []
                    for path in paths:
                        data = yield from self.reader.read(path)
                        items.append((path, data))
                yield self._ready.put((items, self.env.now - t0))

        self._workers = [
            self.env.process(worker(), name=f"loader-w{w}")
            for w in range(self.num_workers)
        ]
        return len(batches)

    def next_batch(self) -> Generator[Event, Any, Batch]:
        """Block until the next prefetched batch is ready."""
        if self._ready is None or self._remaining == 0:
            raise DieselError("no batches pending; call begin_epoch first")
        t0 = self.env.now
        items, fetch_s = yield self._ready.get()
        wait_s = self.env.now - t0
        batch = Batch(self._epoch, self._batch_index, items, fetch_s, wait_s)
        self._batch_index += 1
        self._remaining -= 1
        self.stats.batches += 1
        self.stats.files += len(items)
        self.stats.bytes += batch.nbytes
        self.stats.total_wait_s += wait_s
        self.stats.total_fetch_s += fetch_s
        return batch

    def drain(self) -> Generator[Event, Any, List[Batch]]:
        """Deliver every remaining batch of the current epoch."""
        out: List[Batch] = []
        while self._remaining:
            batch = yield from self.next_batch()
            out.append(batch)
        yield self.env.all_of(self._workers)
        return out
