"""Fixed-size bitmap used for chunk deletion tracking (§4.1.1).

Each data chunk carries a *deletion bitmap*: bit ``i`` set means the
``i``-th file in the chunk has been deleted (or superseded by a rewrite).
The bitmap is part of the chunk's key-value metadata and is serialized
into snapshot and recovery paths, so it must round-trip exactly.
"""

from __future__ import annotations


class Bitmap:
    """A compact fixed-length bitmap backed by a bytearray."""

    __slots__ = ("_bits", "_size")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("bitmap size must be non-negative")
        self._size = size
        self._bits = bytearray((size + 7) // 8)

    def __len__(self) -> int:
        return self._size

    def _check(self, idx: int) -> int:
        if idx < 0:
            idx += self._size
        if not 0 <= idx < self._size:
            raise IndexError(f"bit index {idx} out of range for size {self._size}")
        return idx

    def set(self, idx: int) -> None:
        idx = self._check(idx)
        self._bits[idx >> 3] |= 1 << (idx & 7)

    def get(self, idx: int) -> bool:
        idx = self._check(idx)
        return bool(self._bits[idx >> 3] & (1 << (idx & 7)))

    def count(self) -> int:
        """Number of set bits."""
        return sum(byte.bit_count() for byte in self._bits)

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> "Bitmap":
        expected = (size + 7) // 8
        if len(data) != expected:
            raise ValueError(
                f"bitmap payload is {len(data)} bytes; size {size} needs {expected}"
            )
        # Reject garbage in padding bits so round-trips are canonical.
        if size % 8 and data and data[-1] >> (size % 8):
            raise ValueError("bitmap has set bits beyond its declared size")
        bm = cls(size)
        bm._bits[:] = data
        return bm

    def copy(self) -> "Bitmap":
        bm = Bitmap(self._size)
        bm._bits[:] = self._bits
        return bm

    def __eq__(self, other: object) -> bool:
        # Defining __eq__ alone leaves __hash__ None: a mutable bitmap
        # is unhashable.
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._size == other._size and self._bits == other._bits

    def __repr__(self) -> str:
        return f"Bitmap(size={self._size}, set={self.count()})"
