"""System configuration (Fig 2's ETCD).

The paper stores system configuration in an ETCD server; DIESEL servers
and clients read it at startup.  Here that is one frozen
:class:`DieselConfig`, handed to every server at deploy and to each
client.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Reject an invalid value at construction, never later at use."""
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
