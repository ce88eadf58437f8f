"""DIESEL core: the paper's primary contribution.

Subpackages/modules:

* :mod:`repro.core.chunk` — self-contained chunk layout (Fig 5a);
* :mod:`repro.core.chunk_builder` — client-side ≥4 MB aggregation (Fig 3);
* :mod:`repro.core.meta` — key-value metadata schema (Fig 5b);
* :mod:`repro.core.snapshot` — per-dataset metadata snapshots (§4.1.3);
* :mod:`repro.core.server` — the DIESEL server (ingest, request executor,
  server cache, housekeeping);
* :mod:`repro.core.recovery` — KV rebuild from chunks (§4.1.2);
* :mod:`repro.core.client` — libDIESEL (Table 3 API);
* :mod:`repro.core.dist_cache` — task-grained distributed cache (§4.2);
* :mod:`repro.core.shared_cache` — node-level cross-task shared chunk tier;
* :mod:`repro.core.chunk_store` — pluggable chunk residency: RAM tier +
  simulated-NVMe disk tier with optional transparent compression;
* :mod:`repro.core.shuffle` — chunk-wise shuffle (§4.3, Fig 8);
* :mod:`repro.core.prefetch` — pipelined chunk prefetch over epoch plans;
* :mod:`repro.core.fuse` — FUSE-style POSIX facade;
* :mod:`repro.core.config` — system configuration (Fig 2's ETCD).
"""

from repro.core.chunk import Chunk, ChunkFile
from repro.core.chunk_builder import ChunkBuilder
from repro.core.client import DieselClient
from repro.core.config import DieselConfig
from repro.core.dist_cache import TaskCache
from repro.core.fuse import FuseMount
from repro.core.prefetch import ChunkPrefetcher
from repro.core.server import DieselServer
from repro.core.shuffle import chunkwise_shuffle, full_shuffle
from repro.core.snapshot import MetadataSnapshot, SnapshotIndex

__all__ = [
    "Chunk",
    "ChunkBuilder",
    "ChunkFile",
    "ChunkPrefetcher",
    "DieselClient",
    "DieselConfig",
    "DieselServer",
    "FuseMount",
    "MetadataSnapshot",
    "SnapshotIndex",
    "TaskCache",
    "chunkwise_shuffle",
    "full_shuffle",
]
