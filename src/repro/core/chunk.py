"""Self-contained data chunk layout (paper §4.1, Fig 5a).

Small files are compacted into chunks of ≥4 MB.  Each chunk is
*self-contained*: its header carries everything needed to reconstruct all
key-value metadata pairs, which is what makes metadata recovery possible
by scanning chunks in ID order (§4.1.2).

Binary layout::

    magic            4  bytes  b"DSL1"
    chunk id        16  bytes  (Table 1 layout)
    file count       4  bytes  uint32 BE
    deletion bitmap  ceil(n/8) bytes (at-write state, normally all clear)
    file table       n entries:
        name length  2  bytes  uint16 BE
        name         var       UTF-8 full path
        offset       8  bytes  uint64 BE (into the data section)
        length       8  bytes  uint64 BE
        crc32        4  bytes  payload checksum
    header crc       4  bytes  crc32 of all bytes above
    data section     concatenated file payloads

The header checksum detects torn/corrupt chunks during recovery scans;
per-file checksums let clients verify payload integrity end to end.

A chunk is sealed once: :meth:`Chunk.pack` joins the header and the
payloads into one blob whose tail is the chunk's data section, a decoded
chunk keeps the blob it came from, and :meth:`Chunk.encode` returns that
blob instead of copying the data section into a new one.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ChunkChecksumError, ChunkFormatError
from repro.util.bitmap import Bitmap
from repro.util.ids import CHUNK_ID_BYTES, ChunkId
from repro.util.pathutil import normalize

MAGIC = b"DSL1"
#: Default minimum chunk payload size (§4: "large data chunks (>= 4MB)").
DEFAULT_CHUNK_SIZE = 4 * 1024 * 1024

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_ENTRY_TAIL = struct.Struct(">QQI")  # offset, length, crc32
#: Where the deletion bitmap starts: after magic, chunk id and file count.
_BITMAP_AT = len(MAGIC) + CHUNK_ID_BYTES + _U32.size


def _seal(
    chunk_id: ChunkId,
    bitmap: Bitmap,
    files: Sequence[ChunkFile],
    payloads: Sequence["bytes | memoryview"],
) -> tuple[bytes, int]:
    """``(blob, header size)``: the encoded chunk of a file table and the
    data section's parts, joined in one copy."""
    header = bytearray(MAGIC)
    header += chunk_id.raw
    header += _U32.pack(len(files))
    header += bitmap.to_bytes()
    u16, tail = _U16.pack, _ENTRY_TAIL.pack
    for f in files:
        name = f.path.encode("utf-8")
        if len(name) > 0xFFFF:
            raise ChunkFormatError(f"path too long: {f.path!r}")
        header += u16(len(name))
        header += name
        header += tail(f.offset, f.length, f.crc32)
    header += _U32.pack(zlib.crc32(header))
    return b"".join([header, *payloads]), len(header)


def _truncated(blob) -> ChunkFormatError:
    return ChunkFormatError(
        f"truncated chunk: header runs past its {len(blob)} bytes"
    )


@dataclass(frozen=True)
class ChunkFile:
    """One file's entry in a chunk's file table."""

    path: str
    offset: int
    length: int
    crc32: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ChunkFormatError(
                f"negative offset/length for {self.path!r}: "
                f"{self.offset}/{self.length}"
            )


class Chunk:
    """A decoded chunk: file table + data section, with integrity checks."""

    def __init__(
        self,
        chunk_id: ChunkId,
        files: Sequence[ChunkFile],
        data: "bytes | bytearray | memoryview",
        deletion_bitmap: Bitmap | None = None,
    ) -> None:
        self.chunk_id = chunk_id
        self.files = tuple(files)
        #: The encoded chunk ``data`` views, when it was packed or
        #: decoded from one (:meth:`encode` returns it).
        self._blob: bytes | None = None
        # Held as a memoryview so decode can alias the wire blob's data
        # section instead of copying 4 MB per chunk on the read hot path.
        self.data = data if isinstance(data, memoryview) else memoryview(data)
        self.deletion_bitmap = (
            deletion_bitmap if deletion_bitmap is not None else Bitmap(len(files))
        )
        if len(self.deletion_bitmap) != len(self.files):
            raise ChunkFormatError(
                f"bitmap size {len(self.deletion_bitmap)} != file count "
                f"{len(self.files)}"
            )
        self._by_path = {f.path: i for i, f in enumerate(self.files)}
        if len(self._by_path) != len(self.files):
            raise ChunkFormatError("duplicate paths within one chunk")
        for f in self.files:
            if f.offset + f.length > len(self.data):
                raise ChunkFormatError(
                    f"file {f.path!r} extends past data section "
                    f"({f.offset}+{f.length} > {len(self.data)})"
                )

    # -- construction --------------------------------------------------------
    @classmethod
    def build(
        cls, chunk_id: ChunkId, items: Iterable[tuple[str, bytes]]
    ) -> "Chunk":
        """Pack (path, payload) pairs into a chunk, normalising paths."""
        return cls.pack(chunk_id, ((normalize(p), d) for p, d in items))

    @classmethod
    def pack(
        cls, chunk_id: ChunkId, items: Iterable[tuple[str, bytes]]
    ) -> "Chunk":
        """:meth:`build` for paths that are canonical already (the chunk
        builder normalised them as they were added)."""
        files: list[ChunkFile] = []
        payloads: list[bytes] = []
        offset = 0
        for path, payload in items:
            payload = bytes(payload)
            files.append(
                ChunkFile(path, offset, len(payload), zlib.crc32(payload))
            )
            payloads.append(payload)
            offset += len(payload)
        if not files:
            raise ChunkFormatError("a chunk must contain at least one file")
        bitmap = Bitmap(len(files))
        blob, header_size = _seal(chunk_id, bitmap, files, payloads)
        return cls._viewing(blob, chunk_id, files, header_size, bitmap)

    @classmethod
    def _viewing(
        cls,
        blob: bytes,
        chunk_id: ChunkId,
        files: Sequence[ChunkFile],
        data_offset: int,
        bitmap: Bitmap,
    ) -> "Chunk":
        """The chunk whose data section is a view of ``blob`` from
        ``data_offset`` on; :meth:`encode` returns ``blob`` itself."""
        chunk = cls(chunk_id, files, memoryview(blob)[data_offset:], bitmap)
        if type(blob) is bytes:
            chunk._blob = blob
        return chunk

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.files)

    def __contains__(self, path: str) -> bool:
        return path in self._by_path

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(f.path for f in self.files)

    def index_of(self, path: str) -> int:
        try:
            return self._by_path[path]
        except KeyError:
            raise ChunkFormatError(f"path not in chunk: {path!r}") from None

    def entry(self, path: str) -> ChunkFile:
        return self.files[self.index_of(path)]

    def payload(self, path: str, verify: bool = True) -> bytes:
        """Extract one file's bytes, optionally verifying its checksum.

        Slices the data-section view, so only the file's own bytes are
        copied out — never the surrounding chunk.
        """
        f = self.entry(path)
        raw = bytes(self.data[f.offset : f.offset + f.length])
        if verify and zlib.crc32(raw) != f.crc32:
            raise ChunkChecksumError(
                f"payload checksum mismatch for {f.path!r} in chunk "
                f"{self.chunk_id.encode()}"
            )
        return raw

    def is_deleted(self, path: str) -> bool:
        return self.deletion_bitmap.get(self.index_of(path))

    @property
    def deleted_count(self) -> int:
        return self.deletion_bitmap.count()

    @property
    def data_size(self) -> int:
        return len(self.data)

    # -- codec ----------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the whole chunk (header + data section): the blob it
        was packed or decoded from, else one sealed now."""
        if self._blob is not None:
            return self._blob
        return _seal(
            self.chunk_id, self.deletion_bitmap, self.files, [self.data]
        )[0]

    @staticmethod
    def read_header(
        blob: bytes,
    ) -> tuple[ChunkId, Bitmap, list[tuple[str, int, int, int]], int]:
        """One pass over an encoded chunk's header: ``(chunk_id, bitmap,
        [(path, offset, length, crc32), ...], data_offset)``.

        Checks the magic, truncation and the header checksum, and builds
        nothing per file but its tuple.
        """
        view = memoryview(blob)
        if view[: len(MAGIC)] != MAGIC:
            raise ChunkFormatError("bad chunk magic")
        u16, tail, tail_size = (
            _U16.unpack_from, _ENTRY_TAIL.unpack_from, _ENTRY_TAIL.size,
        )
        entries: list[tuple[str, int, int, int]] = []
        try:
            (nfiles,) = _U32.unpack_from(view, _BITMAP_AT - _U32.size)
            pos = _BITMAP_AT + (nfiles + 7) // 8
            if pos > len(view):
                raise _truncated(view)
            chunk_id = ChunkId(bytes(view[len(MAGIC) : len(MAGIC) + CHUNK_ID_BYTES]))
            bitmap = Bitmap.from_bytes(bytes(view[_BITMAP_AT:pos]), nfiles)
            for _ in range(nfiles):
                name_end = pos + 2 + u16(view, pos)[0]
                offset, length, crc = tail(view, name_end)
                entries.append(
                    (str(view[pos + 2 : name_end], "utf-8"), offset, length, crc)
                )
                pos = name_end + tail_size
            (stored_crc,) = _U32.unpack_from(view, pos)
        except struct.error:
            raise _truncated(view) from None
        if zlib.crc32(view[:pos]) != stored_crc:
            raise ChunkChecksumError(
                f"header checksum mismatch in chunk {chunk_id.encode()}"
            )
        return chunk_id, bitmap, entries, pos + _U32.size

    @classmethod
    def read_entries(
        cls, blob: bytes
    ) -> tuple[ChunkId, Bitmap, list[tuple[str, int, int, int]], int]:
        """:meth:`read_header` of a whole chunk with the rest of what
        :meth:`decode` checks — no duplicate paths, every file inside the
        data section — and the data section's size in place of its
        offset: what ingest needs, with no object per file.
        """
        chunk_id, bitmap, entries, data_offset = cls.read_header(blob)
        data_size = len(blob) - data_offset
        if len({e[0] for e in entries}) != len(entries):
            raise ChunkFormatError("duplicate paths within one chunk")
        for path, offset, length, _ in entries:
            if offset + length > data_size:
                raise ChunkFormatError(
                    f"file {path!r} extends past data section "
                    f"({offset}+{length} > {data_size})"
                )
        return chunk_id, bitmap, entries, data_size

    @classmethod
    def decode_header(cls, blob: bytes) -> tuple["Chunk", int]:
        """Parse a header from ``blob``; returns (chunk-with-empty-data,
        data_offset).  The returned chunk has ``data=b''`` — use
        :meth:`decode` for the full object.  Recovery uses this to rebuild
        metadata without touching payload bytes.
        """
        chunk_id, bitmap, entries, data_offset = cls.read_header(blob)
        shell = cls.__new__(cls)
        shell.chunk_id = chunk_id
        shell.files = tuple([ChunkFile(*e) for e in entries])
        shell.data = memoryview(b"")
        shell._blob = None
        shell.deletion_bitmap = bitmap
        shell._by_path = {f.path: i for i, f in enumerate(shell.files)}
        return shell, data_offset

    @staticmethod
    def find_in_header(blob: bytes, path: str) -> tuple[int, int]:
        """``(index, header_size)`` of ``path`` in an encoded chunk's file
        table, for a tombstone.

        Walks the table without building anything per file, yet checks
        what :meth:`decode_header` checks of the bytes it passes: the
        magic and the header checksum.  A path the table does not hold is
        a :class:`ChunkFormatError`.
        """
        if blob[: len(MAGIC)] != MAGIC:
            raise ChunkFormatError("bad chunk magic")
        want = path.encode("utf-8")
        index = -1
        try:
            (nfiles,) = _U32.unpack_from(blob, _BITMAP_AT - _U32.size)
            pos = _BITMAP_AT + (nfiles + 7) // 8
            step = 2 + _ENTRY_TAIL.size
            for i in range(nfiles):
                name_len = blob[pos] << 8 | blob[pos + 1]
                if (
                    name_len == len(want)
                    and index < 0
                    and blob.startswith(want, pos + 2)
                ):
                    index = i
                pos += name_len + step
            (stored_crc,) = _U32.unpack_from(blob, pos)
        except (struct.error, IndexError):
            raise _truncated(blob) from None
        if zlib.crc32(memoryview(blob)[:pos]) != stored_crc:
            raise ChunkChecksumError(
                "header checksum mismatch in chunk "
                + ChunkId(blob[len(MAGIC) : len(MAGIC) + CHUNK_ID_BYTES]).encode()
            )
        if index < 0:
            raise ChunkFormatError(f"path not in chunk: {path!r}")
        return index, pos + _U32.size

    @staticmethod
    def with_bitmap(blob: bytes, bitmap: Bitmap, header_size: int) -> bytes:
        """The encoded chunk ``blob`` with ``bitmap`` as its header's
        deletion bitmap and the header checksum rewritten.

        Byte-equal to re-encoding the decoded chunk with that bitmap, for
        one copy of the blob; ``header_size`` is what
        :meth:`find_in_header` returned for it.
        """
        (nfiles,) = _U32.unpack_from(blob, _BITMAP_AT - _U32.size)
        if len(bitmap) != nfiles:
            raise ChunkFormatError(
                f"bitmap size {len(bitmap)} != file count {nfiles}"
            )
        view = memoryview(blob)
        bits = bitmap.to_bytes()
        crc_at = header_size - _U32.size
        head, table = view[:_BITMAP_AT], view[_BITMAP_AT + len(bits) : crc_at]
        crc = zlib.crc32(table, zlib.crc32(bits, zlib.crc32(head)))
        return b"".join((head, bits, table, _U32.pack(crc), view[header_size:]))

    @classmethod
    def decode(cls, blob: bytes) -> "Chunk":
        """Parse a full chunk, validating structure and header checksum.

        The returned chunk's data section is a zero-copy view over
        ``blob`` (which therefore stays alive as long as the chunk does).
        """
        chunk_id, bitmap, entries, data_offset = cls.read_header(blob)
        return cls._viewing(
            blob, chunk_id, [ChunkFile(*e) for e in entries], data_offset,
            bitmap,
        )

    def __repr__(self) -> str:
        return (
            f"Chunk({self.chunk_id.encode()}, files={len(self.files)}, "
            f"bytes={len(self.data)})"
        )
