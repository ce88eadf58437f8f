"""Stable hashing and a consistent-hash ring.

The Memcached baseline uses consistent hashing (via twemproxy in the
paper, Karger et al. STOC'97); the DIESEL metadata schema uses stable
directory hashes for prefix scans (§4.1.1).  Python's built-in ``hash``
is salted per process, so everything here is built on FNV-1a, which is
deterministic across runs — a requirement for reproducible experiments.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes | str, state: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash, deterministic across processes.

    ``state`` continues an earlier hash: ``fnv1a_64(a + b) ==
    fnv1a_64(b, fnv1a_64(a))``, so keys sharing a prefix hash it once.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = state
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def mix64(h: int) -> int:
    """splitmix64 finalizer: full-avalanche mixing of a 64-bit value.

    FNV-1a alone has weak high-bit avalanche on short ASCII keys, which
    clusters consistent-hash ring points badly; the finalizer fixes that.
    """
    h &= _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


def stable_hash(data: bytes | str, buckets: int | None = None) -> int:
    """Deterministic well-mixed hash, optionally reduced modulo ``buckets``."""
    h = mix64(fnv1a_64(data))
    if buckets is not None:
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        return h % buckets
    return h


class ConsistentHashRing:
    """A consistent-hash ring with virtual nodes.

    Keys map to the first node clockwise from their hash point.  Removing
    a node only remaps the keys it owned — the property the Memcached
    baseline depends on when a node fails (Fig 6: misses appear only for
    the dead node's share of the keyspace).
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 128) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self._replicas = replicas
        self._ring: list[tuple[int, str]] = []
        self._hashes: list[int] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node already in ring: {node!r}")
        self._nodes.add(node)
        for i in range(self._replicas):
            point = mix64(fnv1a_64(f"{node}#{i}"))
            idx = bisect.bisect(self._hashes, point)
            # Extremely unlikely 64-bit collision between distinct vnodes;
            # nudge deterministically rather than corrupt the ring.
            while idx < len(self._hashes) and self._hashes[idx] == point:
                point = (point + 1) & _MASK64
                idx = bisect.bisect(self._hashes, point)
            self._ring.insert(idx, (point, node))
            self._hashes.insert(idx, point)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node not in ring: {node!r}")
        self._nodes.remove(node)
        keep = [(h, n) for (h, n) in self._ring if n != node]
        self._ring = keep
        self._hashes = [h for h, _ in keep]

    def lookup(self, key: bytes | str) -> str:
        """Return the node owning ``key``."""
        if not self._ring:
            raise LookupError("consistent hash ring is empty")
        point = mix64(fnv1a_64(key))
        idx = bisect.bisect(self._hashes, point)
        if idx == len(self._ring):
            idx = 0
        return self._ring[idx][1]

    def partition(self, keys: Sequence[str]) -> dict[str, list[str]]:
        """Group ``keys`` by owning node (utility for tests/experiments)."""
        out: dict[str, list[str]] = {node: [] for node in self._nodes}
        for key in keys:
            out[self.lookup(key)].append(key)
        return out
