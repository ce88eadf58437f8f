"""Shuffle strategies (paper §4.3, Fig 8).

``full_shuffle`` is the conventional shuffle-over-dataset: a uniform
permutation of all file names.  It is statistically ideal but turns every
epoch into random small reads.

``chunkwise_shuffle`` is the paper's method, in three steps:

1. shuffle the dataset's chunk IDs;
2. split the shuffled chunk list into groups of ``group_size`` chunks;
3. within each group, pool the groups' files and shuffle *them*.

The concatenated per-group file lists form the epoch order.  Reading in
this order touches chunks group by group, so a client only ever needs
``group_size × chunk_size`` bytes of cache (~2 GB for ImageNet-1K in the
paper vs the 150 GB dataset), while file order remains random within a
window large enough not to hurt SGD convergence (Fig 13).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from repro.util.ids import ChunkId


def shuffle(items: list, rng: random.Random) -> None:
    """Shuffle ``items`` in place exactly as ``rng.shuffle(items)`` does.

    It makes the same ``rng.getrandbits(k)`` calls in the same order, so
    the permutation and ``rng.getstate()`` afterwards are the same.
    ``Random.shuffle`` draws each index through ``_randbelow(i + 1)``, a
    Python frame per item that recomputes ``k = (i + 1).bit_length()``;
    here ``k`` is held over each run of bounds that share it.
    """
    getrandbits = rng.getrandbits
    n = len(items)  # the bound of the next draw: an index below n
    while n > 1:
        k = n.bit_length()
        low = 1 << (k - 1)  # the least bound of this bit length
        for i in range(n - 1, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        n = low - 1


def full_shuffle(paths: Sequence[str], rng: random.Random) -> list[str]:
    """Uniform permutation of all paths (the baseline *shuffle dataset*)."""
    order = list(paths)
    shuffle(order, rng)
    return order


@dataclass(frozen=True)
class ShuffleGroup:
    """One group of the epoch plan: its chunks and its shuffled files."""

    chunk_ids: tuple[ChunkId, ...]
    files: tuple[str, ...]


@dataclass(frozen=True)
class EpochPlan:
    """A full epoch order with its group structure.

    ``files`` is the flat read order handed to the training framework;
    ``groups`` drives the client's chunk prefetch/evict schedule.
    Only :func:`chunkwise_shuffle` and :meth:`partition` build one, and
    a drawn plan is never rewritten: each read resolves against whoever
    owns the chunk at read time.
    """

    groups: tuple[ShuffleGroup, ...]

    @cached_property
    def files(self) -> list[str]:
        """Flat epoch read order (memoized — built once per plan).

        The dataloader consumes this per batch, so rebuilding the flat
        list on every access was O(files) work in the hot loop.  The
        plan is frozen, so the cached list is computed at most once;
        treat it as read-only.
        """
        out: list[str] = []
        for g in self.groups:
            out.extend(g.files)
        return out

    @property
    def file_count(self) -> int:
        """Files the plan reads, over every group."""
        return sum(len(g.files) for g in self.groups)

    def partition(
        self, n_workers: int, rng: random.Random
    ) -> list["EpochPlan"]:
        """Split the epoch's groups across ``n_workers`` concurrent readers.

        Groups are dealt in plan order to the least-loaded worker (by
        file count, deterministic tie-break), and every worker's group
        order is then permuted with ``rng``.  The plan is drawn afresh
        each epoch, so each worker's shard is a new file set every epoch
        (the §4.3 shuffle contract).
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        shards: list[list[ShuffleGroup]] = [[] for _ in range(n_workers)]
        loads = [0] * n_workers
        for g in self.groups:
            w = min(range(n_workers), key=lambda i: (loads[i], i))
            shards[w].append(g)
            loads[w] += len(g.files)
        for shard in shards:
            shuffle(shard, rng)
        return [EpochPlan(tuple(shard)) for shard in shards]


def chunkwise_shuffle(
    files_by_chunk: Mapping[ChunkId, Sequence[str]],
    group_size: int,
    rng: random.Random,
) -> EpochPlan:
    """Generate one epoch's chunk-wise shuffled order (Fig 8).

    ``files_by_chunk`` maps each chunk to its *live* file paths (deleted
    files excluded by the caller).  Chunks with no live files are skipped.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    chunk_ids = [cid for cid, files in files_by_chunk.items() if files]
    chunk_ids.sort()  # deterministic base order before shuffling
    shuffle(chunk_ids, rng)  # step 1: shuffle chunk IDs
    groups: list[ShuffleGroup] = []
    for start in range(0, len(chunk_ids), group_size):  # step 2: split
        group_chunks = chunk_ids[start : start + group_size]
        pooled: list[str] = []
        for cid in group_chunks:
            pooled.extend(files_by_chunk[cid])
        shuffle(pooled, rng)  # step 3: shuffle files within the group
        groups.append(ShuffleGroup(tuple(group_chunks), tuple(pooled)))
    return EpochPlan(tuple(groups))


def shuffle_quality(
    order: Sequence[str], files_by_chunk: Mapping[ChunkId, Sequence[str]]
) -> float:
    """Mean normalized displacement of files vs their chunk-sequential order.

    1.0 ≈ fully random placement; 0.0 = untouched sequential order.  Note
    that even ``group_size=1`` scores near 1.0, because shuffling the
    *chunk* order already scatters files globally — use
    :func:`chunk_adjacency` to measure file-level mixing.
    """
    sequential: list[str] = []
    for cid in sorted(files_by_chunk):
        sequential.extend(files_by_chunk[cid])
    pos_seq = {p: i for i, p in enumerate(sequential)}
    n = len(order)
    if n < 2:
        return 0.0
    total = sum(abs(i - pos_seq[p]) for i, p in enumerate(order))
    # Expected |i - j| for two uniform positions is n/3.
    return (total / n) / (n / 3)


def chunk_adjacency(
    order: Sequence[str], files_by_chunk: Mapping[ChunkId, Sequence[str]]
) -> float:
    """Fraction of consecutive files in ``order`` that share a chunk.

    Sequential chunk order scores ≈1; a uniform shuffle of a balanced
    dataset with C chunks scores ≈1/C; chunk-wise shuffle with group size
    g scores ≈1/g — the knob Fig 13 turns when trading locality for
    shuffle randomness.
    """
    chunk_of = {f: cid for cid, files in files_by_chunk.items() for f in files}
    if len(order) < 2:
        return 0.0
    same = sum(
        1
        for a, b in zip(order, order[1:])
        if chunk_of[a] == chunk_of[b]
    )
    return same / (len(order) - 1)
