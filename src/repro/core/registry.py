"""Sharded dataset registry: the namespace root at 1000× scale.

``DieselServer.datasets()`` used to be a single unbounded
``pscan("ds:")`` — fine for a handful of datasets, hopeless for the
millions a shared deployment accumulates (the FalconFS lesson: DL
pipelines live or die on namespace scaling).  The registry spreads the
dataset namespace over a fixed number of *registry shards*::

    reg:<shard, zero-padded>:<name>   ->  b""

Each shard is one contiguous, independently pageable key range; the
keys themselves still slot-hash across the KV instances, so shard
ranges are spread over the cluster.  ``list_page`` k-way merges the
per-shard streams into globally name-sorted pages without ever
materializing the whole namespace.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional, Tuple

from repro.kvstore.kv import check_limit
from repro.kvstore.sharded import ShardedKV
from repro.util.hashing import stable_hash

REG_PREFIX = "reg:"
#: Zero-pad width of the shard component (bounds shards at 10**4).
_SHARD_WIDTH = 4
MAX_REGISTRY_SHARDS = 10 ** _SHARD_WIDTH


def shard_prefix(shard: int) -> str:
    return f"{REG_PREFIX}{shard:0{_SHARD_WIDTH}d}:"


def registry_key(shard: int, name: str) -> str:
    return f"{shard_prefix(shard)}{name}"


class DatasetRegistry:
    """Paginated index of every dataset root."""

    def __init__(self, kv: ShardedKV, n_shards: int) -> None:
        if not 1 <= n_shards <= MAX_REGISTRY_SHARDS:
            raise ValueError(
                f"registry shards must be in [1, {MAX_REGISTRY_SHARDS}]"
            )
        self.kv = kv
        self.n_shards = n_shards

    def shard_of(self, name: str) -> int:
        return stable_hash(name, self.n_shards)

    # ----------------------------------------------------------- mutation
    def add(self, name: str) -> None:
        """Register a dataset root (idempotent)."""
        self.kv.local_put(registry_key(self.shard_of(name), name), b"")

    def remove(self, name: str) -> bool:
        """Unregister a dataset root; returns whether it was present."""
        key = registry_key(self.shard_of(name), name)
        if self.kv.local_get_or_none(key) is None:
            return False
        self.kv.local_delete(key)
        return True

    def __contains__(self, name: str) -> bool:
        key = registry_key(self.shard_of(name), name)
        return self.kv.local_get_or_none(key) is not None

    # ------------------------------------------------------------ listing
    def count(self) -> int:
        return self.kv.local_pcount(REG_PREFIX)

    def occupancy(self) -> list[int]:
        """Datasets per registry shard (``dlcmd meta``)."""
        return [
            self.kv.local_pcount(shard_prefix(s))
            for s in range(self.n_shards)
        ]

    def _shard_names(
        self, shard: int, cursor: Optional[str], page: int
    ) -> Iterator[str]:
        """Stream one shard's names after ``cursor``, page by page."""
        prefix = shard_prefix(shard)
        kv_cursor = prefix + cursor if cursor is not None else None
        while True:
            items, kv_cursor = self.kv.local_pscan_page(
                prefix, cursor=kv_cursor, limit=page
            )
            for key, _ in items:
                yield key[len(prefix):]
            if kv_cursor is None:
                return

    def list_page(
        self, cursor: Optional[str] = None, limit: Optional[int] = None
    ) -> Tuple[list[str], Optional[str]]:
        """One globally name-sorted page of dataset names.

        ``cursor`` is the last name of the previous page and ``limit``
        (at least 1; ``None`` = every name) the page size.  Each registry
        shard's stream fetches one KV page of at most ``limit`` names,
        which reads at most ``limit`` keys plus one per KV shard, and the
        streams are k-way merged lazily: a page over a million-dataset
        registry touches O(registry shards × (limit + KV shards)) keys.
        Returns ``(names, next_cursor)``.
        """
        page = check_limit(limit) or 1024
        streams = [
            self._shard_names(s, cursor, page) for s in range(self.n_shards)
        ]
        merged = heapq.merge(*streams)
        if limit is None:
            return list(merged), None
        names: list[str] = []
        for name in merged:
            names.append(name)
            if len(names) >= limit:
                break
        next_cursor = names[-1] if len(names) >= limit else None
        return names, next_cursor

    def dataset_names(self) -> list[str]:
        """Every dataset name, sorted (materializes: prefer list_page)."""
        return self.list_page()[0]
