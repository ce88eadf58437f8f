"""Storage readers the pipelined trainer plugs into.

A reader provides (a) the epoch's file order — including the shuffle
generation work charged at epoch start, visible as the first-iteration
spike in Fig 14 — and (b) a per-file read path against one backend
(Lustre or DIESEL-FUSE): ``begin_epoch(epoch)`` and ``read(path)``, both
generators.

``read_batch(paths) -> {path: bytes}`` is an *optional* extra method:
backends that can resolve a whole mini-batch in one round trip (the
DIESEL ``get_many()`` path) provide it, and the trainer's I/O workers
prefer it over per-file ``read`` calls when present.
``cancel_epoch()`` is optional too: the trainer calls it when its
process is cancelled or its last epoch ends, so read-ahead stops.
:class:`EpochScheduler` deals the task-wide plan whose per-worker
shards :class:`CacheReader` serves.  Each epoch's plan is drawn once:
a cache membership change leaves it as drawn, and every chunk read
resolves against the chunk's owner at read time.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Mapping, Sequence

from repro.baselines.lustre import LustreFS
from repro.core.fuse import FuseMount
from repro.core.prefetch import WINDOW_HIT_S, ChunkWindow
from repro.core.shuffle import EpochPlan, chunkwise_shuffle, full_shuffle
from repro.cluster.node import Node
from repro.errors import DieselError
from repro.sim.engine import Event

#: CPU cost per file name when shuffling the name list at epoch start.
SHUFFLE_PER_FILE_S = 60e-9


class EpochScheduler:
    """Task-wide epoch scheduler (§4.3 over the §4.2 ring).

    A multi-worker task draws **one** chunk-wise plan per epoch and
    splits it into per-worker shards, dealt least-loaded: each epoch's
    shards partition the live files, and a fresh draw gives each worker
    a new file set every epoch (the Fig 13 shuffle contract).  Shards
    are built lazily per epoch and kept as drawn, so workers may call
    :meth:`shard` out of order.
    """

    def __init__(
        self,
        files_by_chunk: Mapping,
        group_size: int,
        n_workers: int,
        seed: int = 0,
    ) -> None:
        if group_size < 1:
            raise DieselError("group_size must be >= 1")
        if n_workers < 1:
            raise DieselError("need at least one worker")
        self._files_by_chunk = dict(files_by_chunk)
        self._group_size = group_size
        self.n_workers = n_workers
        self._seed = seed
        self._shards: Dict[int, List[EpochPlan]] = {}

    @property
    def group_size(self) -> int:
        """Chunks per shuffle group — a reader's §4.3 working set."""
        return self._group_size

    def shard(self, epoch: int, worker: int) -> EpochPlan:
        """This worker's slice of the epoch's shared plan, built the
        first time any worker asks for the epoch and kept as drawn."""
        if not 0 <= worker < self.n_workers:
            raise DieselError(f"worker index {worker} out of range")
        if epoch not in self._shards:
            self._shards[epoch] = self._build(epoch)
            # Bound memory: workers straddle two epochs and read one on.
            for old in [e for e in self._shards if e < epoch - 2]:
                del self._shards[old]
        return self._shards[epoch][worker]

    def _build(self, epoch: int) -> List[EpochPlan]:
        # Seed mixing mirrors DieselClient._epoch_seed: the epoch
        # sequence is reproducible, successive epochs differ.
        rng = random.Random(hash((self._seed, epoch)))
        plan = chunkwise_shuffle(self._files_by_chunk, self._group_size, rng)
        return plan.partition(self.n_workers, rng)


class CacheReader:
    """One task worker reading through the distributed task cache (§4.2).

    Epoch order comes from the shared
    :class:`EpochScheduler` — this worker's shard
    of the task-wide plan.  §4.2 and §4.3 compose here: files
    are served out of a :class:`~repro.core.prefetch.ChunkWindow` holding
    the current shuffle group's chunks plus one group of look-ahead
    (≤ 2 × group size chunks), filled through
    :meth:`TaskCache.read_chunk` — local master (memory copy), one-hop
    peer fetch, or the Fig 4 server fall-through, one chunk at a time —
    and read ahead in plan order, on into the next epoch's shard, so the
    worker's I/O processes stall only on the first epoch's first group.
    A ``read`` outside the plan (or before any ``begin_epoch``)
    demand-fetches its chunk.
    """

    def __init__(self, scheduler, cache, cache_client, index, worker: int):
        self.scheduler = scheduler
        self.cache = cache
        self.cache_client = cache_client
        self.index = index
        self.worker = worker
        #: Shard served by the most recent ``begin_epoch`` (for tests
        #: and working-set accounting).
        self.last_plan = None
        self._env = cache.env
        #: The task's counters :meth:`TaskCache.credit_read` moves,
        #: credited here in the read's own frame.
        self._tally = cache._stats
        #: ``encoded cid -> (chunk, tier)``, shared by the I/O workers.
        self.window = ChunkWindow(
            cache.env, self._fetch, scheduler.group_size, cache.readahead,
            name=cache_client.name,
        )

    def _fetch(self, encoded_cid: str):
        return self.cache.read_chunk(self.cache_client, encoded_cid)

    def begin_epoch(self, epoch: int) -> Generator[Event, Any, list[str]]:
        """Start serving this worker's shard of ``epoch``, reading ahead
        on into the next epoch's; returns the shard's file order after
        charging the shuffle's CPU cost."""
        plan = self.scheduler.shard(epoch, self.worker)
        self.last_plan = plan
        # Read on into the next shard: the next begin_epoch keeps what
        # was read ahead.
        then = self.scheduler.shard(epoch + 1, self.worker)
        self.window.start(plan, self.window.group_size, self.cache.recorder, then)
        yield self.cache.env.timeout(plan.file_count * SHUFFLE_PER_FILE_S)
        return plan.files

    def cancel_epoch(self) -> None:
        """Stop reading ahead, into the next epoch too; chunks fetched
        but never read are wasted."""
        self.window.cancel()

    def read(self, path: str) -> Generator[Event, Any, bytes]:
        """One file out of its chunk in the window, by the snapshot's
        extent, fetching the chunk through the task cache's read chain
        when it is not resident."""
        encoded_cid, offset, length = self.index.locate(path)
        entry = self.window.access(encoded_cid)
        if entry is not None:
            yield self._env.timeout(WINDOW_HIT_S)
        else:
            entry = yield from self.window.ensure(encoded_cid)
        chunk, tier = entry
        if tier:
            tally = self._tally
            setattr(tally, tier, getattr(tally, tier) + 1)
        return chunk.extent(offset, length)


class LustreReader:
    """Reads straight from the Lustre baseline with full dataset shuffle."""

    def __init__(
        self, fs: LustreFS, client_node: Node, paths: Sequence[str], seed: int = 0
    ) -> None:
        self.fs = fs
        self.node = client_node
        self.paths = list(paths)
        self._seed = seed

    def begin_epoch(self, epoch: int) -> Generator[Event, Any, list[str]]:
        """A full shuffle of every path, after charging its CPU cost."""
        yield self.fs.env.timeout(len(self.paths) * SHUFFLE_PER_FILE_S)
        return full_shuffle(self.paths, random.Random(self._seed + epoch))

    def read(self, path: str) -> Generator[Event, Any, bytes]:
        """One file straight from Lustre."""
        data = yield from self.fs.read_file(self.node, path)
        return data


class FuseReader:
    """Reads through DIESEL-FUSE in chunk-wise shuffle order (§4.3)."""

    def __init__(self, mount: FuseMount, seed: int = 0):
        self.mount = mount
        self._seed = seed

    def begin_epoch(self, epoch: int) -> Generator[Event, Any, list[str]]:
        """The mount client's chunk-wise shuffled order for ``epoch``,
        after charging the shuffle's CPU cost."""
        client = self.mount.clients[0]
        n = client.index.file_count
        yield self.mount.env.timeout(n * SHUFFLE_PER_FILE_S)
        return client.epoch_file_list(seed=self._seed + epoch).files

    def cancel_epoch(self) -> None:
        """Stop the read-ahead ``begin_epoch`` started on the client."""
        self.mount.clients[0].cancel_prefetch()

    def read(self, path: str) -> Generator[Event, Any, bytes]:
        """One file through the FUSE mount."""
        data = yield from self.mount.read_file(path)
        return data

    def read_batch(
        self, paths: Sequence[str]
    ) -> Generator[Event, Any, "dict[str, bytes]"]:
        """Fetch a whole mini-batch with one batched mount read."""
        payloads = yield from self.mount.read_files(paths)
        return payloads
