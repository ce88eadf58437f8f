"""Self-verifying random file content.

§6.1: "we divide a list of file names evenly among MPI processes, and let
each process write random contents and a hash code to the files.  Then in
the reading tests, each process reads files and checks the contents as
well as the hash code for correctness."  This module reproduces that:
content is pseudorandom from (path, seed) and carries an embedded CRC so
any read path can be verified end to end.

Layout: ``crc32(body) (4 bytes BE) ‖ body``.  Minimum file size is 4.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.util.hashing import fnv1a_64

_CRC = struct.Struct(">I")
HEADER_BYTES = _CRC.size


def generate_file(path: str, size: int, seed: int = 0) -> bytes:
    """Deterministic pseudorandom content of exactly ``size`` bytes."""
    if size < HEADER_BYTES:
        raise ValueError(f"file size must be >= {HEADER_BYTES}, got {size}")
    body_len = size - HEADER_BYTES
    rng = np.random.default_rng(fnv1a_64(path) ^ seed)
    body = rng.integers(0, 256, size=body_len, dtype=np.uint8).tobytes()
    return _CRC.pack(zlib.crc32(body)) + body


def verify_file(data: bytes) -> bool:
    """Check the embedded checksum; False on any corruption/truncation."""
    if len(data) < HEADER_BYTES:
        return False
    (stored,) = _CRC.unpack_from(data, 0)
    return zlib.crc32(data[HEADER_BYTES:]) == stored
