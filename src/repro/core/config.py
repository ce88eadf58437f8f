"""System configuration + the ETCD-like config store (Fig 2).

The paper stores system configuration in an ETCD server; DIESEL servers
and clients read it at startup.  :class:`ConfigStore` is a minimal
strongly-consistent key-value config service with watch callbacks;
:class:`DieselConfig` is the typed bundle the DIESEL components consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.core.chunk import DEFAULT_CHUNK_SIZE


@dataclass(frozen=True)
class DieselConfig:
    """Tunables for a DIESEL deployment."""

    #: Target chunk payload size; the paper mandates ≥ 4 MB.
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Chunk-wise shuffle group size (chunks per group, §4.3/Fig 13).
    shuffle_group_size: int = 100
    #: Chunks kept in flight ahead of the shuffle-mode consumer (§4.3's
    #: "sequential chunk reads hidden behind compute").  0 disables the
    #: pipeline: every group-cache miss stalls for a full chunk fetch.
    prefetch_depth: int = 0
    #: Sealed chunks DL_put keeps in flight across round-robin servers
    #: (§4.1.1's write overlap, the Fig 9 discipline).  1 = ship each
    #: chunk synchronously before packing the next.
    ingest_pipeline_depth: int = 1
    #: Concurrent chunk/file fetches a batched read (``get_many``)
    #: scatters across servers and cache masters.  1 = one at a time.
    read_fanout: int = 1

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.shuffle_group_size < 1:
            raise ValueError("shuffle_group_size must be >= 1")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.ingest_pipeline_depth < 1:
            raise ValueError("ingest_pipeline_depth must be >= 1")
        if self.read_fanout < 1:
            raise ValueError("read_fanout must be >= 1")


class ConfigStore:
    """A tiny ETCD stand-in: versioned keys + watch callbacks."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        self._watchers: Dict[str, List[Callable[[str, Any], None]]] = {}

    def put(self, key: str, value: Any) -> int:
        """Set a key; returns its new version; fires watchers."""
        self._data[key] = value
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        for cb in self._watchers.get(key, ()):
            cb(key, value)
        return version

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def version(self, key: str) -> int:
        return self._versions.get(key, 0)

    def delete(self, key: str) -> bool:
        if key not in self._data:
            return False
        del self._data[key]
        self._versions[key] = self._versions.get(key, 0) + 1
        for cb in self._watchers.get(key, ()):
            cb(key, None)
        return True

    def watch(self, key: str, callback: Callable[[str, Any], None]) -> None:
        self._watchers.setdefault(key, []).append(callback)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))
