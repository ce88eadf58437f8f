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
from typing import Optional, Sequence

from repro.errors import DieselError
from repro.util.bitmap import Bitmap
from repro.util.ids import CHUNK_ID_BYTES, ChunkId
from repro.util.hashing import stable_hash
from repro.util.pathutil import normalize

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_FILE_REC = struct.Struct(f">{CHUNK_ID_BYTES}sQQI")  # cid, offset, length, crc
_CHUNK_REC_HEAD = struct.Struct(f">{CHUNK_ID_BYTES}sQQII")  # cid, ts, size, nfiles, ndeleted


# -- key builders -------------------------------------------------------------
def dataset_key(dataset: str) -> str:
    return f"ds:{dataset}"


def chunk_key(dataset: str, chunk_id: ChunkId) -> str:
    return f"ck:{dataset}:{chunk_id.encode()}"


def chunk_key_prefix(dataset: str) -> str:
    return f"ck:{dataset}:"


def file_key(dataset: str, path: str) -> str:
    return f"f:{dataset}:{path}"


def file_key_prefix(dataset: str) -> str:
    return f"f:{dataset}:"


@lru_cache(maxsize=4096)
def dir_hash(path: str) -> str:
    """Printable stable hash of a directory path (the paper's hash(...)).

    Memoised (bounded): a dataset has few directories and every entry
    key under one of them needs its hash.
    """
    return f"{stable_hash(normalize(path)):016x}"


def dir_entry_key(dataset: str, parent: str, name: str, is_dir: bool) -> str:
    kind = "d" if is_dir else "f"
    return f"dir:{dataset}:{dir_hash(parent)}/{kind}:{name}"


def dir_scan_prefix(dataset: str, parent: str, kind: str) -> str:
    """Prefix for pscan of one directory's entries; kind is 'd' or 'f'."""
    if kind not in ("d", "f"):
        raise ValueError("kind must be 'd' or 'f'")
    return f"dir:{dataset}:{dir_hash(parent)}/{kind}:"


# -- records -------------------------------------------------------------------
@dataclass(frozen=True)
class FileRecord:
    """Where one file lives: chunk, offset within its data section, length."""

    path: str
    chunk_id: ChunkId
    offset: int
    length: int
    crc32: int

    def encode(self) -> bytes:
        return self.pack(
            self.path, self.chunk_id.raw, self.offset, self.length, self.crc32
        )

    @staticmethod
    def pack(
        path: str, cid_raw: bytes, offset: int, length: int, crc32: int
    ) -> bytes:
        """:meth:`encode` from bare fields (ingest builds no instances)."""
        name = path.encode("utf-8")
        return b"".join((
            _U32.pack(len(name)), name,
            _FILE_REC.pack(cid_raw, offset, length, crc32),
        ))

    @staticmethod
    def packed_path(blob: bytes) -> bytes:
        """The UTF-8 path inside a packed record, undecoded."""
        return blob[_U32.size : -_FILE_REC.size]

    @classmethod
    def decode(
        cls, blob: bytes, chunk_ids: Optional[dict[bytes, ChunkId]] = None
    ) -> "FileRecord":
        """Decode one record.  ``chunk_ids`` (raw id -> instance) makes
        the files of one chunk share one :class:`ChunkId` — and so its
        memoised ``encode()``; an id it lacks is added."""
        (name_len,) = _U32.unpack_from(blob, 0)
        name = blob[4 : 4 + name_len].decode("utf-8")
        cid_raw, offset, length, crc = _FILE_REC.unpack_from(blob, 4 + name_len)
        if chunk_ids is None:
            cid = ChunkId(cid_raw)
        else:
            cid = chunk_ids.get(cid_raw)
            if cid is None:
                cid = chunk_ids[cid_raw] = ChunkId(cid_raw)
        return cls(name, cid, offset, length, crc)


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
        if len(self.bitmap) != self.nfiles:
            raise DieselError(
                f"chunk record bitmap size {len(self.bitmap)} != nfiles "
                f"{self.nfiles}"
            )
        if self.ndeleted != self.bitmap.count():
            raise DieselError("ndeleted disagrees with bitmap population")

    def encode(self) -> bytes:
        head = _CHUNK_REC_HEAD.pack(
            self.chunk_id.raw, self.update_ts, self.size, self.nfiles, self.ndeleted
        )
        return head + self.bitmap.to_bytes()

    @classmethod
    def decode(cls, blob: bytes) -> "ChunkRecord":
        cid_raw, ts, size, nfiles, ndeleted = _CHUNK_REC_HEAD.unpack_from(blob, 0)
        bitmap = Bitmap.from_bytes(blob[_CHUNK_REC_HEAD.size :], nfiles)
        return cls(ChunkId(cid_raw), ts, size, nfiles, ndeleted, bitmap)

    def with_deleted(self, index: int) -> "ChunkRecord":
        """A copy with file ``index`` tombstoned."""
        bm = self.bitmap.copy()
        if bm.get(index):
            raise DieselError(f"file index {index} already deleted")
        bm.set(index)
        return ChunkRecord(
            self.chunk_id, self.update_ts, self.size, self.nfiles,
            self.ndeleted + 1, bm,
        )


@dataclass(frozen=True)
class DatasetRecord:
    """Dataset root record: freshness timestamp + ordered chunk-ID list."""

    name: str
    update_ts: int
    chunk_ids: tuple[ChunkId, ...] = field(default_factory=tuple)

    def encode(self) -> bytes:
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
        merged = tuple(sorted(set(self.chunk_ids) | set(new_ids)))
        return DatasetRecord(self.name, ts, merged)

    def without_chunks(self, gone: Sequence[ChunkId], ts: int) -> "DatasetRecord":
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
