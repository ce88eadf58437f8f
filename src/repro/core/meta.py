"""Key-value metadata schema (paper §4.1.1, Fig 5b).

Filesystem operations are translated to key-value operations in the
DIESEL server (metadata *processing* is decoupled from metadata
*storage*).  The keyspace, per dataset ``ds``:

========================================  =======================================
key                                       value
========================================  =======================================
``ds:<ds>``                               :class:`DatasetRecord` (update ts,
                                          sorted chunk-ID list)
``ck:<ds>:<chunk-id>``                    :class:`ChunkRecord` (update ts, size,
                                          #files, #deleted, deletion bitmap)
``f:<ds>:<path>``                         :class:`FileRecord` (chunk id, offset,
                                          length, crc)
``dir:<ds>:<hash(parent)>/d:<name>``      ``b""``  (subdirectory entry)
``dir:<ds>:<hash(parent)>/f:<name>``      ``b""``  (file entry)
========================================  =======================================

``readdir(/folderA)`` is exactly the paper's
``pscan hash(/folderA)/d ∪ pscan hash(/folderA)/f``.
All records serialize to compact binary so the KV store holds real bytes.

Key builders *format*: the paths they take are canonical already (the API
boundaries normalise — DESIGN §6), so a key costs one f-string.  Only
:func:`dir_hash` still accepts any spelling, because its values are
pinned for every input and its memo makes the check free.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from repro.errors import DieselError
from repro.util.bitmap import Bitmap
from repro.util.ids import CHUNK_ID_BYTES, ChunkId
from repro.util.hashing import stable_hash
from repro.util.pathutil import normalize

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: The fixed bytes that end every packed :class:`FileRecord`, after its
#: path: chunk id, offset, length, crc.
RECORD_TAIL = struct.Struct(f">{CHUNK_ID_BYTES}sQQI")
_CHUNK_REC_HEAD = struct.Struct(f">{CHUNK_ID_BYTES}sQQII")  # cid, ts, size, nfiles, ndeleted


# -- key builders -------------------------------------------------------------
#: Every dataset record's key starts with it: the dataset index.
DATASET_PREFIX = "ds:"


def dataset_key(dataset: str) -> str:
    """Key of the dataset's :class:`DatasetRecord`."""
    return f"{DATASET_PREFIX}{dataset}"


def chunk_key(dataset: str, chunk_id: ChunkId) -> str:
    """Key of one chunk's :class:`ChunkRecord`."""
    return f"ck:{dataset}:{chunk_id.encode()}"


def chunk_key_prefix(dataset: str) -> str:
    """Prefix every chunk record key of the dataset starts with."""
    return f"ck:{dataset}:"


def file_key(dataset: str, path: str) -> str:
    """Key of the :class:`FileRecord` of the file at canonical ``path``."""
    return f"f:{dataset}:{path}"


def file_key_prefix(dataset: str) -> str:
    """Prefix every file record key of the dataset starts with."""
    return f"f:{dataset}:"


@lru_cache(maxsize=4096)
def dir_hash(path: str) -> str:
    """Printable stable hash of a directory path (the paper's hash(...)).

    Memoised (bounded): a dataset has few directories and every entry
    key under one of them needs its hash.
    """
    return f"{stable_hash(normalize(path)):016x}"


def dir_entry_key(dataset: str, parent: str, name: str, is_dir: bool) -> str:
    """Key of the entry ``name`` (a subdirectory when ``is_dir``, else a
    file) in directory ``parent``."""
    kind = "d" if is_dir else "f"
    return f"dir:{dataset}:{dir_hash(parent)}/{kind}:{name}"


def dir_scan_prefix(dataset: str, parent: str, kind: str) -> str:
    """Prefix for pscan of one directory's entries; kind is 'd' or 'f'."""
    if kind not in ("d", "f"):
        raise ValueError("kind must be 'd' or 'f'")
    return f"dir:{dataset}:{dir_hash(parent)}/{kind}:"


# -- records -------------------------------------------------------------------
class FileRecord(NamedTuple):
    """Where one file lives: chunk, offset within its data section, length.

    A named tuple: a record costs one tuple to build (the decoders below
    and the snapshot's build it with ``tuple.__new__``), compares and
    hashes by its fields, and is immutable.
    """

    path: str
    chunk_id: ChunkId
    offset: int
    length: int
    crc32: int

    def encode(self) -> bytes:
        """The packed record: the value of its ``f:`` key."""
        return self.pack(
            self.path, self.chunk_id.raw, self.offset, self.length, self.crc32
        )

    @staticmethod
    def pack(
        path: str, cid_raw: bytes, offset: int, length: int, crc32: int
    ) -> bytes:
        """:meth:`encode` from bare fields."""
        name = path.encode("utf-8")
        return _record_struct(len(name)).pack(
            len(name), name, cid_raw, offset, length, crc32
        )

    @staticmethod
    def pack_many(
        paths: Sequence[bytes],
        cid_raw: bytes,
        entries: Iterable[tuple[int, int, int]],
    ) -> list[bytes]:
        """:meth:`pack` of each UTF-8 path of ``paths`` with its
        ``(offset, length, crc32)`` of ``entries``, all in one chunk:
        one struct pack per record (ingest builds no instances)."""
        lengths = list(map(len, paths))
        packers = {n: _record_struct(n).pack for n in set(lengths)}
        return [
            packers[n](n, path, cid_raw, offset, length, crc)
            for n, path, (offset, length, crc) in zip(lengths, paths, entries)
        ]

    @classmethod
    def decode(
        cls, blob: bytes, chunk_ids: Optional[dict[bytes, ChunkId]] = None
    ) -> "FileRecord":
        """Decode one record.  ``chunk_ids`` (raw id -> instance) makes
        the files of one chunk share one :class:`ChunkId` — and so its
        memoised ``encode()``; an id it lacks is added."""
        (name_len,) = _U32.unpack_from(blob, 0)
        name = blob[4 : 4 + name_len].decode("utf-8")
        cid_raw, offset, length, crc = RECORD_TAIL.unpack_from(blob, 4 + name_len)
        if chunk_ids is None:
            cid = ChunkId(cid_raw)
        else:
            cid = chunk_ids.get(cid_raw)
            if cid is None:
                cid = chunk_ids[cid_raw] = ChunkId(cid_raw)
        return _new_tuple(cls, (name, cid, offset, length, crc))


_new_tuple = tuple.__new__


@lru_cache(maxsize=1024)
def _record_struct(name_len: int) -> struct.Struct:
    """The packer of a record whose UTF-8 path is ``name_len`` bytes."""
    return struct.Struct(f">I{name_len}s{RECORD_TAIL.format[1:]}")


@dataclass(frozen=True)
class ChunkRecord:
    """Per-chunk metadata: update time, size, file counts, deletion bitmap."""

    chunk_id: ChunkId
    update_ts: int
    size: int
    nfiles: int
    ndeleted: int
    bitmap: Bitmap

    def __post_init__(self) -> None:
        """Refuse a bitmap whose size or population disagrees with the
        counts."""
        if len(self.bitmap) != self.nfiles:
            raise DieselError(
                f"chunk record bitmap size {len(self.bitmap)} != nfiles "
                f"{self.nfiles}"
            )
        if self.ndeleted != self.bitmap.count():
            raise DieselError("ndeleted disagrees with bitmap population")

    def encode(self) -> bytes:
        """The packed record: the value of its ``ck:`` key."""
        head = _CHUNK_REC_HEAD.pack(
            self.chunk_id.raw, self.update_ts, self.size, self.nfiles, self.ndeleted
        )
        return head + self.bitmap.to_bytes()

    @classmethod
    def decode(cls, blob: bytes) -> "ChunkRecord":
        """The record :meth:`encode` packed into ``blob``."""
        cid_raw, ts, size, nfiles, ndeleted = _CHUNK_REC_HEAD.unpack_from(blob, 0)
        bitmap = Bitmap.from_bytes(blob[_CHUNK_REC_HEAD.size :], nfiles)
        return cls(ChunkId(cid_raw), ts, size, nfiles, ndeleted, bitmap)

    @staticmethod
    def tombstone(blob: bytes, index: int) -> tuple[bytes, int, bytes]:
        """The encoded record ``blob`` with file ``index`` (0 or more)
        deleted: ``(blob', nfiles, bitmap bytes)``, its bit set and
        ``ndeleted`` bumped where they sit.

        Byte-equal to decoding the record, setting the bit in a copy of
        its bitmap and encoding it again, with :meth:`decode`'s checks
        and errors — the bitmap's length and padding bits, ``ndeleted``
        against its population — and a double delete refused; builds no
        record and no :class:`Bitmap`.
        """
        _, _, _, nfiles, ndeleted = _CHUNK_REC_HEAD.unpack_from(blob, 0)
        at = _CHUNK_REC_HEAD.size
        bits = blob[at:]
        need = (nfiles + 7) // 8
        if len(bits) != need:
            raise ValueError(
                f"bitmap payload is {len(bits)} bytes; size {nfiles} needs {need}"
            )
        if nfiles % 8 and bits and bits[-1] >> (nfiles % 8):
            raise ValueError("bitmap has set bits beyond its declared size")
        if ndeleted != int.from_bytes(bits, "little").bit_count():
            raise DieselError("ndeleted disagrees with bitmap population")
        if not 0 <= index < nfiles:
            raise IndexError(
                f"bit index {index} out of range for size {nfiles}"
            )
        byte, bit = at + (index >> 3), 1 << (index & 7)
        if blob[byte] & bit:
            raise DieselError(f"file index {index} already deleted")
        out = bytearray(blob)
        _U32.pack_into(out, at - _U32.size, ndeleted + 1)
        out[byte] |= bit
        return bytes(out), nfiles, bytes(out[at:])


@dataclass(frozen=True)
class DatasetRecord:
    """Dataset root record: freshness timestamp + ordered chunk-ID list."""

    name: str
    update_ts: int
    chunk_ids: tuple[ChunkId, ...] = field(default_factory=tuple)

    def encode(self) -> bytes:
        """The packed record: the value of its ``ds:`` key."""
        name = self.name.encode("utf-8")
        out = bytearray()
        out += _U32.pack(len(name))
        out += name
        out += _U64.pack(self.update_ts)
        out += _U32.pack(len(self.chunk_ids))
        for cid in self.chunk_ids:
            out += cid.raw
        return bytes(out)

    @classmethod
    def decode(cls, blob: bytes) -> "DatasetRecord":
        """The record :meth:`encode` packed into ``blob``."""
        (name_len,) = _U32.unpack_from(blob, 0)
        pos = 4
        name = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (ts,) = _U64.unpack_from(blob, pos)
        pos += 8
        (n,) = _U32.unpack_from(blob, pos)
        pos += 4
        cids = []
        for _ in range(n):
            cids.append(ChunkId(blob[pos : pos + CHUNK_ID_BYTES]))
            pos += CHUNK_ID_BYTES
        return cls(name, ts, tuple(cids))

    @staticmethod
    def bump(blob: bytes, add: Optional[ChunkId] = None) -> tuple[int, bytes]:
        """The next version of the encoded record ``blob``: ``(ts, blob')``
        with ``update_ts + 1`` stamped in and ``add`` spliced into the
        sorted id list unless it is there.

        Byte-equal to ``decode(blob).with_chunks([add], ts).encode()``
        without materialising an id: the timestamp is read where it sits,
        the splice is O(log chunks) compares and one copy.
        """
        (name_len,) = _U32.unpack_from(blob, 0)
        ts = _U64.unpack_from(blob, 4 + name_len)[0] + 1
        ids = blob[4 + name_len + _U64.size + _U32.size :]
        if add is not None:
            at = CHUNK_ID_BYTES * bisect.bisect_left(
                range(len(ids) // CHUNK_ID_BYTES), add.raw,
                key=lambda i: ids[i * CHUNK_ID_BYTES : (i + 1) * CHUNK_ID_BYTES],
            )
            if ids[at : at + CHUNK_ID_BYTES] != add.raw:
                ids = b"".join((ids[:at], add.raw, ids[at:]))
        count = _U32.pack(len(ids) // CHUNK_ID_BYTES)
        return ts, b"".join((blob[: 4 + name_len], _U64.pack(ts), count, ids))

    def with_chunks(self, new_ids: Sequence[ChunkId], ts: int) -> "DatasetRecord":
        """A copy at version ``ts`` with ``new_ids`` merged into the sorted
        id list."""
        merged = tuple(sorted(set(self.chunk_ids) | set(new_ids)))
        return DatasetRecord(self.name, ts, merged)

    def without_chunks(self, gone: Sequence[ChunkId], ts: int) -> "DatasetRecord":
        """A copy at version ``ts`` without the ids of ``gone``."""
        removed = set(gone)
        kept = tuple(c for c in self.chunk_ids if c not in removed)
        return DatasetRecord(self.name, ts, kept)


def directory_entry_pairs(dataset: str, path: str) -> list[tuple[str, bytes]]:
    """All dir-entry KV pairs implied by one file at canonical ``path``.

    Links the file into its parent and every ancestor directory into its
    own parent, so the hierarchy is reconstructible by pscan alone.  This
    is the per-file reference expansion: ``DieselServer.ingest_metadata``
    charges its length for every file and writes the same keys, each
    distinct one once per chunk.
    """
    parent, _, name = path.rpartition("/")
    pairs = [(dir_entry_key(dataset, parent or "/", name or path, False), b"")]
    while parent:
        parent, _, name = parent.rpartition("/")
        pairs.append((dir_entry_key(dataset, parent or "/", name, True), b""))
    return pairs
