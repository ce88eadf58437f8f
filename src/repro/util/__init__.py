"""Shared utilities: chunk IDs, hashing, bitmaps, paths, size units."""

from repro.util.bitmap import Bitmap
from repro.util.hashing import ConsistentHashRing, fnv1a_64, stable_hash
from repro.util.ids import ChunkId, ChunkIdGenerator, decode_chunk_id
from repro.util.pathutil import (
    dirname,
    join,
    normalize,
    split,
)
from repro.util.units import format_bytes

__all__ = [
    "Bitmap",
    "ChunkId",
    "ChunkIdGenerator",
    "ConsistentHashRing",
    "decode_chunk_id",
    "dirname",
    "fnv1a_64",
    "format_bytes",
    "join",
    "normalize",
    "split",
    "stable_hash",
]
