"""Storage readers the pipelined trainer plugs into.

A reader provides (a) the epoch's file order — including the shuffle
generation work charged at epoch start, visible as the first-iteration
spike in Fig 14 — and (b) a per-file read path against one backend
(Lustre or DIESEL-FUSE): ``begin_epoch(epoch)`` and ``read(path)``, both
generators.

``read_batch(paths) -> {path: bytes}`` is an *optional* extra method:
backends that can resolve a whole mini-batch in one round trip (the
DIESEL ``get_many()`` path) provide it, and the dataloader/trainer
workers prefer it over per-file ``read`` calls when present.
``cancel_epoch()`` is optional too: the trainer calls it when its
process is cancelled mid-epoch, so a backend that reads ahead stops.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Sequence

from repro.baselines.lustre import LustreFS
from repro.core.fuse import FuseMount
from repro.core.prefetch import WINDOW_HIT_S, ChunkWindow
from repro.core.shuffle import full_shuffle
from repro.cluster.node import Node
from repro.sim.engine import Event

#: CPU cost per file name when shuffling the name list at epoch start.
SHUFFLE_PER_FILE_S = 60e-9


class CacheReader:
    """One task worker reading through the distributed task cache (§4.2).

    Epoch order comes from the shared
    :class:`~repro.dlt.dataloader.EpochScheduler` — this worker's shard
    of the task-wide plan, affinity-pinned to the co-located cache
    master under locality placement.  §4.2 and §4.3 compose here: files
    are served out of a :class:`~repro.core.prefetch.ChunkWindow` holding
    the current shuffle group's chunks plus one group of look-ahead
    (≤ 2 × group size chunks), filled through
    :meth:`TaskCache.read_chunk` — local master (memory copy), one-hop
    peer fetch, or the Fig 4 server fall-through, one chunk at a time —
    and read ahead in plan order, so the worker's I/O processes stall
    only on an epoch's first group.  A ``read`` outside the plan (or
    before any ``begin_epoch``) demand-fetches its chunk.
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
        #: ``encoded cid -> (chunk, tier)``, shared by the I/O workers.
        self.window = ChunkWindow(
            cache.env, self._fetch, scheduler.group_size, cache.readahead,
            name=cache_client.name, node_name=cache_client.node.name,
        )
        cache.add_membership_listener(self._on_membership)

    def _fetch(self, encoded_cid: str):
        return self.cache.read_chunk(self.cache_client, encoded_cid)

    def _on_membership(self, event: str, names) -> None:
        prefetcher = self.window.prefetcher
        if prefetcher is not None:
            prefetcher.repin(self.cache.chunk_owner_node)

    def begin_epoch(self, epoch: int) -> Generator[Event, Any, list[str]]:
        plan = self.scheduler.shard(epoch, self.worker)
        self.last_plan = plan
        self.window.start(plan, self.window.group_size, self.cache.recorder)
        yield self.cache.env.timeout(plan.file_count * SHUFFLE_PER_FILE_S)
        return plan.files

    def cancel_epoch(self) -> None:
        """Stop reading ahead; chunks fetched but never read are wasted."""
        self.window.cancel()

    def read(self, path: str) -> Generator[Event, Any, bytes]:
        record = self.index.lookup(path)
        encoded_cid = record.chunk_id.encode()
        entry = self.window.access(encoded_cid)
        if entry is not None:
            yield self.cache.env.timeout(WINDOW_HIT_S)
        else:
            entry = yield from self.window.ensure(encoded_cid)
        chunk, tier = entry
        self.cache.credit_read(tier)
        return chunk.payload(record.path, verify=False)


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
        yield self.fs.env.timeout(len(self.paths) * SHUFFLE_PER_FILE_S)
        return full_shuffle(self.paths, random.Random(self._seed + epoch))

    def read(self, path: str) -> Generator[Event, Any, bytes]:
        data = yield from self.fs.read_file(self.node, path)
        return data


class FuseReader:
    """Reads through DIESEL-FUSE; chunk-wise or full shuffle per config."""

    def __init__(self, mount: FuseMount, chunk_wise: bool = True, seed: int = 0):
        self.mount = mount
        self.chunk_wise = chunk_wise
        self._seed = seed

    def begin_epoch(self, epoch: int) -> Generator[Event, Any, list[str]]:
        client = self.mount.clients[0]
        n = client.index.file_count
        yield self.mount.env.timeout(n * SHUFFLE_PER_FILE_S)
        if self.chunk_wise:
            return client.epoch_file_list(seed=self._seed + epoch).files
        return client.full_shuffle_list(seed=self._seed + epoch)

    def read(self, path: str) -> Generator[Event, Any, bytes]:
        data = yield from self.mount.read_file(path)
        return data

    def read_batch(
        self, paths: Sequence[str]
    ) -> Generator[Event, Any, "dict[str, bytes]"]:
        """Fetch a whole mini-batch with one batched mount read."""
        payloads = yield from self.mount.read_files(paths)
        return payloads
