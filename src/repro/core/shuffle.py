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
from typing import Callable, Mapping, Optional, Sequence

from repro.util.ids import ChunkId


def full_shuffle(paths: Sequence[str], rng: random.Random) -> list[str]:
    """Uniform permutation of all paths (the baseline *shuffle dataset*)."""
    order = list(paths)
    rng.shuffle(order)
    return order


@dataclass(frozen=True)
class ShuffleGroup:
    """One group of the epoch plan: its chunks and its shuffled files.

    ``owner`` names the cache-master node holding every chunk of the
    group when the plan was built owner-bucketed (locality placement);
    ``None`` means the group spans owners (or ownership is unknown) and
    carries no scheduling affinity.
    """

    chunk_ids: tuple[ChunkId, ...]
    files: tuple[str, ...]
    owner: Optional[str] = None

    def working_set_bytes(self, chunk_sizes: Mapping[ChunkId, int]) -> int:
        return sum(chunk_sizes[c] for c in self.chunk_ids)


@dataclass(frozen=True)
class EpochPlan:
    """A full epoch order with its group structure.

    ``files`` is the flat read order handed to the training framework;
    ``groups`` drives the client's chunk prefetch/evict schedule.
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
        return sum(len(g.files) for g in self.groups)

    def repin(
        self, owner_of: Callable[[ChunkId], Optional[str]]
    ) -> "EpochPlan":
        """Same epoch content with refreshed group→owner tags.

        After an elastic membership change, chunk ownership moves but
        the epoch's read order must not: reshuffling mid-epoch would
        re-read some files and skip others.  ``repin`` keeps every
        group's chunks and file order bit-identical and only re-derives
        :attr:`ShuffleGroup.owner` from the current ownership map (the
        majority owner of the group's chunks; first-chunk owner breaks
        ties deterministically), so affinity scheduling and prefetch
        steering follow the chunks to their new masters.
        """
        groups = []
        for g in self.groups:
            owners = [owner_of(c) for c in g.chunk_ids]
            known = [o for o in owners if o is not None]
            if not known:
                owner = None
            else:
                counts: dict[str, int] = {}
                for o in known:
                    counts[o] = counts.get(o, 0) + 1
                best = max(counts.values())
                # First chunk whose owner hit the majority count wins.
                owner = next(o for o in known if counts[o] == best)
            groups.append(
                g if owner == g.owner
                else ShuffleGroup(g.chunk_ids, g.files, owner)
            )
        return EpochPlan(tuple(groups))

    def extended(self, new_groups: Sequence[ShuffleGroup]) -> "EpochPlan":
        """This plan plus ``new_groups`` appended at the tail.

        The online-ingest discipline mirrors :meth:`repin`: the already
        planned portion of the epoch stays bit-identical (committed
        reads must not move), and newly ingested data only ever joins
        at the end of the order.
        """
        if not new_groups:
            return self
        return EpochPlan(self.groups + tuple(new_groups))

    def partition(
        self,
        n_workers: int,
        rng: random.Random,
        affinity: Optional[Mapping[str, int]] = None,
    ) -> list["EpochPlan"]:
        """Split the epoch's groups across ``n_workers`` concurrent readers.

        ``affinity`` maps a group owner (cache-master node name) to a
        worker index: owned groups are pinned to that worker, so under
        locality placement each worker reads the chunks its own node's
        master holds.  Groups without a mapped owner are dealt to the
        least-loaded worker (by file count, deterministic tie-break).
        Every worker's group order is then permuted with ``rng`` — the
        per-epoch randomness that keeps the Fig 13 shuffle contract even
        though the group→worker mapping is ownership-driven.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        affinity = affinity or {}
        shards: list[list[ShuffleGroup]] = [[] for _ in range(n_workers)]
        loads = [0] * n_workers
        for g in self.groups:
            w = affinity.get(g.owner) if g.owner is not None else None
            if w is None or not 0 <= w < n_workers:
                w = min(range(n_workers), key=lambda i: (loads[i], i))
            shards[w].append(g)
            loads[w] += len(g.files)
        for shard in shards:
            rng.shuffle(shard)
        return [EpochPlan(tuple(shard)) for shard in shards]


def chunkwise_shuffle(
    files_by_chunk: Mapping[ChunkId, Sequence[str]],
    group_size: int,
    rng: random.Random,
    owner_of: Optional[Callable[[ChunkId], Optional[str]]] = None,
) -> EpochPlan:
    """Generate one epoch's chunk-wise shuffled order (Fig 8).

    ``files_by_chunk`` maps each chunk to its *live* file paths (deleted
    files excluded by the caller).  Chunks with no live files are skipped.

    ``owner_of`` (locality placement) maps a chunk to the cache-master
    node holding it.  When given, step 1 shuffles chunk IDs *within each
    owner's bucket* so every group's chunks share one owner (recorded as
    :attr:`ShuffleGroup.owner`), and the global group order is shuffled
    afterwards.  File order within groups and group order across the
    epoch stay random — only the group↔owner alignment is constrained,
    which is what lets the affinity scheduler land each group's reads on
    its local master.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    chunk_ids = [cid for cid, files in files_by_chunk.items() if files]
    chunk_ids.sort()  # deterministic base order before shuffling
    if owner_of is None:
        rng.shuffle(chunk_ids)  # step 1: shuffle chunk IDs
        buckets = [(None, chunk_ids)]
    else:
        by_owner: dict[Optional[str], list[ChunkId]] = {}
        for cid in chunk_ids:
            by_owner.setdefault(owner_of(cid), []).append(cid)
        # Deterministic bucket order (None last), shuffled within.
        keys = sorted((k for k in by_owner if k is not None))
        if None in by_owner:
            keys.append(None)
        buckets = []
        for key in keys:
            bucket = by_owner[key]
            rng.shuffle(bucket)  # step 1, per owner
            buckets.append((key, bucket))
    groups: list[ShuffleGroup] = []
    for owner, bucket in buckets:
        for start in range(0, len(bucket), group_size):  # step 2: split
            group_chunks = bucket[start : start + group_size]
            pooled: list[str] = []
            for cid in group_chunks:
                pooled.extend(files_by_chunk[cid])
            rng.shuffle(pooled)  # step 3: shuffle files within the group
            groups.append(
                ShuffleGroup(tuple(group_chunks), tuple(pooled), owner)
            )
    if owner_of is not None:
        rng.shuffle(groups)  # owner buckets must not imply epoch order
    return EpochPlan(tuple(groups))


def tail_extend(
    plan: EpochPlan,
    files_by_chunk: Mapping[ChunkId, Sequence[str]],
    group_size: int,
    rng: random.Random,
    owner_of: Optional[Callable[[ChunkId], Optional[str]]] = None,
) -> EpochPlan:
    """Fold newly ingested chunks into a live epoch, tail-only.

    ``files_by_chunk`` is the dataset's *current* grouping (e.g. from a
    delta-refreshed index).  Chunks already scheduled in ``plan`` are
    left untouched — their position, grouping and file order stay
    bit-identical, so everything a training client has committed to
    reading keeps its order.  Only chunks the plan has never seen are
    chunk-wise shuffled (same three steps as a fresh epoch) and appended
    as new tail groups.  Returns ``plan`` itself when nothing is new.
    """
    seen = {cid for g in plan.groups for cid in g.chunk_ids}
    fresh = {
        cid: files
        for cid, files in files_by_chunk.items()
        if cid not in seen and files
    }
    if not fresh:
        return plan
    tail = chunkwise_shuffle(fresh, group_size, rng, owner_of=owner_of)
    return plan.extended(tail.groups)


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
