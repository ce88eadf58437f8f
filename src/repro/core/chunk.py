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

In memory a chunk is one file table, path → ``(offset, length,
crc32)``, filled by one walk of the header (or as :meth:`Chunk.pack`
CRCs each payload); a file read is one lookup and one slice of the
blob, and no :class:`ChunkFile` is built unless :attr:`Chunk.files` is
read.  A chunk fetched for a reader that already knows each file's
extent (:meth:`Chunk.fetched`) is checked by the name-length walk of
:meth:`Chunk.header_size` and builds its table only if something asks
for one; :meth:`Chunk.extent` reads a file by its ``(offset, length)``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

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
    table: Iterable[tuple[str, tuple[int, int, int]]],
    payloads: Sequence["bytes | memoryview"],
) -> tuple[bytes, int]:
    """``(blob, header size)``: the encoded chunk of a file table and the
    data section's parts, joined in one copy.

    ``table`` yields ``(path, (offset, length, crc32))`` in file order,
    as many as ``bitmap`` has bits (the header's file count).  The
    header is one join of its parts, one struct pack per entry.
    """
    rows = list(table)
    names = [path.encode("utf-8") for path, _ in rows]
    sizes = list(map(len, names))
    if sizes and max(sizes) > 0xFFFF:
        path = rows[next(i for i, n in enumerate(sizes) if n > 0xFFFF)][0]
        raise ChunkFormatError(f"path too long: {path!r}")
    packers = {n: _entry_struct(n).pack for n in set(sizes)}
    header = b"".join([
        MAGIC, chunk_id.raw, _U32.pack(len(bitmap)), bitmap.to_bytes(),
        *[
            packers[n](n, name, offset, length, crc)
            for n, name, (_, (offset, length, crc)) in zip(sizes, names, rows)
        ],
    ])
    return (
        b"".join([header, _U32.pack(zlib.crc32(header)), *payloads]),
        len(header) + _U32.size,
    )


@lru_cache(maxsize=1024)
def _entry_struct(name_len: int) -> struct.Struct:
    """The packer of a file-table entry whose UTF-8 path is ``name_len``
    bytes."""
    return struct.Struct(f">H{name_len}s{_ENTRY_TAIL.format[1:]}")


def _truncated(blob) -> ChunkFormatError:
    return ChunkFormatError(
        f"truncated chunk: header runs past its {len(blob)} bytes"
    )


def _past_end(table: dict, data_size: int) -> ChunkFormatError:
    """The error naming the first file of ``table`` that ends past a
    data section of ``data_size`` bytes (one does)."""
    path, (offset, length, _) = next(
        (p, e) for p, e in table.items() if e[0] + e[1] > data_size
    )
    return ChunkFormatError(
        f"file {path!r} extends past data section "
        f"({offset}+{length} > {data_size})"
    )


def _checksum_error(blob) -> ChunkChecksumError:
    cid = ChunkId(bytes(blob[len(MAGIC) : len(MAGIC) + CHUNK_ID_BYTES]))
    return ChunkChecksumError(f"header checksum mismatch in chunk {cid.encode()}")


def _read_table(
    blob: "bytes | bytearray | memoryview",
) -> tuple[ChunkId, Bitmap, dict[str, tuple[int, int, int]], int]:
    """One walk of an encoded chunk's header: ``(chunk_id, bitmap,
    table, data_offset)``, ``table`` mapping each path to its
    ``(offset, length, crc32)`` in file order.

    Checks, in this order and with :meth:`Chunk.read_header`'s and the
    constructor's errors: the magic, truncation, the header checksum,
    the bitmap's padding bits, no duplicate path, every file inside the
    data section.  The extent check tracks the largest file end; a file
    is named only on the error path.
    """
    view = memoryview(blob)
    if view[: len(MAGIC)] != MAGIC:
        raise ChunkFormatError("bad chunk magic")
    u16, tail, tail_size = (
        _U16.unpack_from, _ENTRY_TAIL.unpack_from, _ENTRY_TAIL.size,
    )
    table: dict[str, tuple[int, int, int]] = {}
    end = 0
    try:
        (nfiles,) = _U32.unpack_from(view, _BITMAP_AT - _U32.size)
        pos = bitmap_end = _BITMAP_AT + (nfiles + 7) // 8
        if pos > len(view):
            raise _truncated(view)
        for _ in range(nfiles):
            name_end = pos + 2 + u16(view, pos)[0]
            entry = tail(view, name_end)
            table[str(view[pos + 2 : name_end], "utf-8")] = entry
            stop = entry[0] + entry[1]
            if stop > end:
                end = stop
            pos = name_end + tail_size
        (stored_crc,) = _U32.unpack_from(view, pos)
    except struct.error:
        raise _truncated(view) from None
    if zlib.crc32(view[:pos]) != stored_crc:
        raise _checksum_error(view)
    bitmap = Bitmap.from_bytes(bytes(view[_BITMAP_AT:bitmap_end]), nfiles)
    if len(table) != nfiles:
        raise ChunkFormatError("duplicate paths within one chunk")
    data_offset = pos + _U32.size
    if end > len(view) - data_offset:
        raise _past_end(table, len(view) - data_offset)
    chunk_id = ChunkId(bytes(view[len(MAGIC) : len(MAGIC) + CHUNK_ID_BYTES]))
    return chunk_id, bitmap, table, data_offset


def _skim(blob: bytes) -> int:
    """The header size of an encoded chunk, from a walk of its file
    table's name lengths.  Checks the magic, truncation and the header
    checksum; decodes no path.
    """
    if blob[: len(MAGIC)] != MAGIC:
        raise ChunkFormatError("bad chunk magic")
    try:
        (nfiles,) = _U32.unpack_from(blob, _BITMAP_AT - _U32.size)
        pos = _BITMAP_AT + (nfiles + 7) // 8
        step = 2 + _ENTRY_TAIL.size
        for _ in range(nfiles):
            pos += (blob[pos] << 8 | blob[pos + 1]) + step
        (stored_crc,) = _U32.unpack_from(blob, pos)
    except (struct.error, IndexError):
        raise _truncated(blob) from None
    if zlib.crc32(memoryview(blob)[:pos]) != stored_crc:
        raise _checksum_error(blob)
    return pos + _U32.size


class HeaderTable(NamedTuple):
    """One encoded chunk header's file table, walked once
    (:meth:`walk`): what a tombstone needs of the header.

    ``count`` and ``table`` are the header's file-count field and its
    file table's bytes — the whole header but the magic, the chunk id,
    the deletion bitmap and the checksum.  Another header whose two are
    byte-equal to these has the same layout, so :meth:`Chunk.locate`
    may answer for it from ``index`` without a walk.
    """

    count: bytes
    table: bytes
    #: The header's size: where the data section starts.
    size: int
    #: Each path's file index (the first, should a path repeat).
    index: dict[str, int]

    @classmethod
    def walk(cls, head: "bytes | memoryview") -> "HeaderTable":
        """The table of the header that ``head`` starts with, read by
        :meth:`Chunk.read_header` and with its checks."""
        _, _, entries, size = Chunk.read_header(head)
        n = len(entries)
        at = _BITMAP_AT + (n + 7) // 8
        paths = [entry[0] for entry in reversed(entries)]
        return cls(
            bytes(head[_BITMAP_AT - _U32.size : _BITMAP_AT]),
            bytes(head[at : size - _U32.size]),
            size,
            dict(zip(paths, range(n - 1, -1, -1))),
        )

    def describes(self, head: "bytes | memoryview") -> bool:
        """Whether the header ``head`` starts with has this file count
        and this file table: one compare each, no walk."""
        size = self.size
        return (
            len(head) >= size
            and head[_BITMAP_AT - _U32.size : _BITMAP_AT] == self.count
            and head[size - _U32.size - len(self.table) : size - _U32.size]
            == self.table
        )


@dataclass(frozen=True)
class ChunkFile:
    """One file's entry in a chunk's file table."""

    path: str
    offset: int
    length: int
    crc32: int

    def __post_init__(self) -> None:
        """Refuse a negative offset or length."""
        if self.offset < 0 or self.length < 0:
            raise ChunkFormatError(
                f"negative offset/length for {self.path!r}: "
                f"{self.offset}/{self.length}"
            )


class Chunk:
    """A decoded chunk: file table + data section, with integrity checks.

    The file table is one dict, path → ``(offset, length, crc32)`` in
    file order; :attr:`files`, :attr:`paths` and :meth:`columns` are
    views of it built on demand.  A :meth:`fetched` chunk reads its
    table (and deletion bitmap) from its blob on first use, with every
    check :meth:`decode` makes; until then ``_table`` is ``None``.
    """

    def __init__(
        self,
        chunk_id: ChunkId,
        files: Sequence[ChunkFile],
        data: "bytes | bytearray | memoryview",
        deletion_bitmap: Bitmap | None = None,
    ) -> None:
        files = tuple(files)
        view = data if isinstance(data, memoryview) else memoryview(data)
        bitmap = (
            deletion_bitmap if deletion_bitmap is not None else Bitmap(len(files))
        )
        if len(bitmap) != len(files):
            raise ChunkFormatError(
                f"bitmap size {len(bitmap)} != file count {len(files)}"
            )
        table = {f.path: (f.offset, f.length, f.crc32) for f in files}
        if len(table) != len(files):
            raise ChunkFormatError("duplicate paths within one chunk")
        if any(f.offset + f.length > len(view) for f in files):
            raise _past_end(table, len(view))
        self.chunk_id = chunk_id
        self._bitmap: Bitmap | None = bitmap
        self._table: dict[str, tuple[int, int, int]] | None = table
        self._files: tuple[ChunkFile, ...] | None = files
        # Held as a memoryview so decode can alias the wire blob's data
        # section instead of copying 4 MB per chunk on the read hot path.
        self.data = view
        #: The encoded chunk ``data`` views, when it was packed or
        #: decoded from one (:meth:`encode` returns it, :meth:`payload`
        #: slices it from ``_base`` on).
        self._blob: bytes | None = None
        self._base = 0

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
        rows = list(items)
        if not rows:
            raise ChunkFormatError("a chunk must contain at least one file")
        paths, payloads = zip(*rows)
        payloads = list(map(bytes, payloads))
        sizes = list(map(len, payloads))
        table = dict(zip(paths, zip(
            accumulate(sizes, initial=0), sizes, map(zlib.crc32, payloads)
        )))
        if len(table) != len(payloads):
            raise ChunkFormatError("duplicate paths within one chunk")
        bitmap = Bitmap(len(payloads))
        blob, header_size = _seal(chunk_id, bitmap, table.items(), payloads)
        return cls._viewing(blob, chunk_id, table, header_size, bitmap)

    @classmethod
    def fetched(cls, blob: bytes, encoded_cid: str) -> "Chunk":
        """The chunk a server sent for ``encoded_cid``, as a view of
        ``blob`` for reads by extent (:meth:`extent`).

        Checks what :meth:`header_size` checks — the magic, truncation
        and the header checksum, by a walk of the name lengths — and
        that the header names chunk ``encoded_cid``.  Decodes no path:
        the file table and its checks wait for the first query that
        needs them (:attr:`paths`, :meth:`payload`, :meth:`columns`).
        """
        data_offset = _skim(blob)
        chunk_id = ChunkId(blob[len(MAGIC) : _BITMAP_AT - _U32.size])
        if chunk_id.encode() != encoded_cid:
            raise ChunkFormatError(
                f"asked for chunk {encoded_cid}, got {chunk_id.encode()}"
            )
        return cls._viewing(blob, chunk_id, None, data_offset, None)

    @classmethod
    def _viewing(
        cls,
        blob: "bytes | bytearray | memoryview",
        chunk_id: ChunkId,
        table: dict[str, tuple[int, int, int]] | None,
        data_offset: int,
        bitmap: Bitmap | None,
    ) -> "Chunk":
        """The chunk of a checked file table whose data section is a view
        of ``blob`` from ``data_offset`` on; :meth:`encode` returns
        ``blob`` itself, and :meth:`payload` slices it, when it is
        ``bytes``.  A ``None`` table and bitmap are read from ``blob``
        (which is then ``bytes``) on first use."""
        chunk = cls.__new__(cls)
        chunk.chunk_id = chunk_id
        chunk._bitmap = bitmap
        chunk._table = table
        chunk._files = None
        chunk.data = memoryview(blob)[data_offset:]
        if type(blob) is bytes:
            chunk._blob, chunk._base = blob, data_offset
        else:
            chunk._blob, chunk._base = None, 0
        return chunk

    # -- queries --------------------------------------------------------------
    def _entries(self) -> dict[str, tuple[int, int, int]]:
        """The file table; a :meth:`fetched` chunk reads it (and its
        bitmap) from its blob here, once, checked as :meth:`decode`
        checks it."""
        table = self._table
        if table is None:
            _, self._bitmap, table, _ = _read_table(self._blob)
            self._table = table
        return table

    def __len__(self) -> int:
        """The file count."""
        return len(self._entries())

    def __contains__(self, path: str) -> bool:
        """Whether the file table holds ``path``."""
        return path in self._entries()

    @property
    def deletion_bitmap(self) -> Bitmap:
        """The header's deletion bitmap (its at-write state)."""
        if self._bitmap is None:
            self._entries()
        return self._bitmap

    @property
    def files(self) -> tuple[ChunkFile, ...]:
        """The file table as :class:`ChunkFile` entries in file order,
        built on first access."""
        if self._files is None:
            self._files = tuple(
                [ChunkFile(path, *entry) for path, entry in self._entries().items()]
            )
        return self._files

    @property
    def paths(self) -> tuple[str, ...]:
        """Every file's path, in file order."""
        return tuple(self._entries())

    def columns(self) -> tuple[list[str], list[tuple[int, int, int]]]:
        """The file table as two columns in file order, the paths and
        their ``(offset, length, crc32)``: what ingest writes."""
        table = self._entries()
        return list(table), list(table.values())

    def extent(
        self, offset: int, length: int, start: int = 0, stop: int | None = None
    ) -> bytes:
        """The file at data-section extent ``(offset, length)`` — a
        snapshot index's ``locate`` — or its bytes ``[start:stop]``,
        clamped to the file as a slice is.

        Reads no file table.  An extent that runs past the data section
        is a :class:`ChunkFormatError`, never a short read; the bytes
        are one slice of the blob, unverified (:meth:`payload` checks a
        CRC).
        """
        end = offset + length
        if offset < 0 or length < 0 or end > len(self.data):
            raise ChunkFormatError(
                f"extent {offset}+{length} runs past chunk "
                f"{self.chunk_id.encode()}'s {len(self.data)}-byte data section"
            )
        if stop is not None and stop < length:
            end = offset + stop
        if start:
            offset += min(start, length)
        blob = self._blob
        if blob is None:
            return bytes(self.data[offset:end])
        base = self._base
        return blob[base + offset : base + end]

    def payload(self, path: str, verify: bool = True) -> bytes:
        """Extract one file's bytes, optionally verifying its checksum.

        One table lookup and one ``bytes`` slice of the blob the chunk
        was packed or decoded from, so only the file's own bytes are
        copied out — never the surrounding chunk.  A chunk over any
        other buffer copies the file out of its data-section view.
        """
        table = self._table
        if table is None:
            table = self._entries()
        try:
            offset, length, crc = table[path]
        except KeyError:
            raise ChunkFormatError(f"path not in chunk: {path!r}") from None
        blob = self._blob
        if blob is None:
            raw = bytes(self.data[offset : offset + length])
        else:
            offset += self._base
            raw = blob[offset : offset + length]
        if verify and zlib.crc32(raw) != crc:
            raise ChunkChecksumError(
                f"payload checksum mismatch for {path!r} in chunk "
                f"{self.chunk_id.encode()}"
            )
        return raw

    def is_deleted(self, path: str) -> bool:
        """Whether ``path``'s bit is set in the deletion bitmap."""
        if path not in self._entries():
            raise ChunkFormatError(f"path not in chunk: {path!r}")
        return self.deletion_bitmap.get(self.paths.index(path))

    @property
    def deleted_count(self) -> int:
        """How many bits the deletion bitmap has set."""
        return self.deletion_bitmap.count()

    @property
    def data_size(self) -> int:
        """The data section's size in bytes."""
        return len(self.data)

    # -- codec ----------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the whole chunk (header + data section): the blob it
        was packed or decoded from, else one sealed now."""
        if self._blob is not None:
            return self._blob
        return _seal(
            self.chunk_id, self.deletion_bitmap, self._entries().items(),
            [self.data],
        )[0]

    @staticmethod
    def read_header(
        blob: bytes,
    ) -> tuple[ChunkId, Bitmap, list[tuple[str, int, int, int]], int]:
        """One pass over an encoded chunk's header: ``(chunk_id, bitmap,
        [(path, offset, length, crc32), ...], data_offset)``.

        Checks the magic, truncation and the header checksum, then the
        bitmap's padding bits (so a flipped header byte is always a
        :class:`ChunkChecksumError`), and builds nothing per file but its
        tuple.
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
            pos = bitmap_end = _BITMAP_AT + (nfiles + 7) // 8
            if pos > len(view):
                raise _truncated(view)
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
            raise _checksum_error(view)
        chunk_id = ChunkId(bytes(view[len(MAGIC) : len(MAGIC) + CHUNK_ID_BYTES]))
        bitmap = Bitmap.from_bytes(bytes(view[_BITMAP_AT:bitmap_end]), nfiles)
        return chunk_id, bitmap, entries, pos + _U32.size

    @classmethod
    def decode_header(cls, blob: bytes) -> tuple["Chunk", int]:
        """Parse a header from ``blob``; returns (chunk-with-empty-data,
        data_offset).  The returned chunk has ``data=b''`` — use
        :meth:`decode` for the full object.  Recovery uses this to rebuild
        metadata without touching payload bytes.

        Checks what :meth:`decode` checks, extents against ``blob``'s
        data section included.
        """
        chunk_id, bitmap, table, data_offset = _read_table(blob)
        # Not ``b""``: the shell's encode() seals its table, never
        # returns an empty blob.
        shell = cls._viewing(memoryview(b""), chunk_id, table, 0, bitmap)
        return shell, data_offset

    @staticmethod
    def header_size(blob: bytes) -> int:
        """Where an encoded chunk's data section starts: its header's
        size.

        Walks only the file table's name lengths, yet checks the magic,
        truncation and the header checksum.
        """
        return _skim(blob)

    @staticmethod
    def locate(
        head: "bytes | memoryview", path: str, kept: "HeaderTable | None"
    ) -> tuple[int, memoryview, HeaderTable]:
        """``(index, header, table)`` for a tombstone of ``path``:
        its index in the file table of the encoded chunk header that
        ``head`` starts with, that header (a view of ``head``), and the
        header's :class:`HeaderTable`.

        ``kept`` — the table of the last header located — answers when
        it :meth:`~HeaderTable.describes` this one, and is returned;
        otherwise the header is walked, with every check
        :meth:`read_header` makes.  Either way the magic and the header
        checksum are verified, and a path the table does not hold is a
        :class:`ChunkFormatError`.
        """
        if kept is None or not kept.describes(head):
            kept = HeaderTable.walk(head)
        else:
            crc_at = kept.size - _U32.size
            if head[: len(MAGIC)] != MAGIC:
                raise ChunkFormatError("bad chunk magic")
            if zlib.crc32(memoryview(head)[:crc_at]) != _U32.unpack_from(
                head, crc_at
            )[0]:
                raise _checksum_error(head)
        index = kept.index.get(path)
        if index is None:
            raise ChunkFormatError(f"path not in chunk: {path!r}")
        return index, memoryview(head)[: kept.size], kept

    @staticmethod
    def with_bitmap(
        header: "bytes | memoryview", bits: bytes, nbits: int
    ) -> bytes:
        """The encoded chunk header ``header`` with ``bits`` — an
        ``nbits``-bit deletion bitmap's bytes — as its bitmap and the
        header checksum rewritten.

        Byte-equal to the header of the decoded chunk re-encoded with
        that bitmap, for one header-sized copy.  ``header`` is the
        header's bytes alone (what :meth:`locate` returns); a bitmap of
        another size than the file count, or with a padding bit set, is
        a :class:`ChunkFormatError`.
        """
        (nfiles,) = _U32.unpack_from(header, _BITMAP_AT - _U32.size)
        if nbits != nfiles:
            raise ChunkFormatError(
                f"bitmap size {nbits} != file count {nfiles}"
            )
        if len(bits) != (nfiles + 7) // 8 or (nfiles % 8 and bits[-1] >> nfiles % 8):
            raise ChunkFormatError(
                f"{len(bits)} bitmap bytes do not hold {nfiles} bits"
            )
        view = memoryview(header)
        crc_at = len(view) - _U32.size
        head, table = view[:_BITMAP_AT], view[_BITMAP_AT + len(bits) : crc_at]
        crc = zlib.crc32(table, zlib.crc32(bits, zlib.crc32(head)))
        return b"".join((head, bits, table, _U32.pack(crc)))

    @classmethod
    def decode(cls, blob: bytes) -> "Chunk":
        """Parse a full chunk, validating structure and header checksum.

        One walk of the header fills the file table.  The returned
        chunk's data section is a zero-copy view over ``blob`` (which
        therefore stays alive as long as the chunk does).
        """
        chunk_id, bitmap, table, data_offset = _read_table(blob)
        return cls._viewing(blob, chunk_id, table, data_offset, bitmap)

    def __repr__(self) -> str:
        """``Chunk(<id>, files=<count>, bytes=<data size>)``."""
        return (
            f"Chunk({self.chunk_id.encode()}, files={len(self)}, "
            f"bytes={len(self.data)})"
        )
