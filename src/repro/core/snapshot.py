"""Per-dataset metadata snapshots (paper §4.1.3).

A snapshot materializes a dataset's metadata to a compact blob clients
keep on local disk: the dataset update timestamp, the chunk-ID list, and
per-file (path, chunk, offset, length).  Loading it builds an in-memory
hash index plus the directory hierarchy (reconstructed from full paths),
after which *every* metadata operation is served locally in O(1) — the
source of the linear scaling in Fig 10b and the flat ``ls -lR`` time in
Fig 10c.

A snapshot is only valid while its ``update_ts`` matches the dataset
record in the KV store; stale loads raise :class:`StaleSnapshotError`.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.core.meta import FileRecord
from repro.core import meta_journal as mj
from repro.errors import (
    ChunkFormatError,
    DeltaConflictError,
    FileNotFoundInDatasetError,
)
from repro.util.ids import CHUNK_ID_BYTES, ChunkId
from repro.util.pathutil import normalize

MAGIC = b"DSNP"
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_FILE_ENTRY = struct.Struct(">IQQI")  # chunk index, offset, length, crc
_CID = struct.Struct(f">{CHUNK_ID_BYTES}s")


@dataclass(frozen=True)
class MetadataSnapshot:
    """The serializable snapshot payload."""

    dataset: str
    update_ts: int
    chunk_ids: tuple[ChunkId, ...]
    files: tuple[FileRecord, ...]

    def serialize(self) -> bytes:
        """Compact binary form: chunk table + columnar file entries.

        The layout is columnar — all paths NUL-joined in one section,
        all fixed-width entries packed back to back in another — so both
        directions run as single-pass bulk operations (one ``join`` here,
        one :func:`struct.iter_unpack` sweep in :meth:`deserialize`)
        instead of a Python loop of per-file packs.
        """
        chunk_index = {cid: i for i, cid in enumerate(self.chunk_ids)}
        pack = _FILE_ENTRY.pack
        try:
            entries = b"".join(
                [
                    pack(chunk_index[f.chunk_id], f.offset, f.length, f.crc32)
                    for f in self.files
                ]
            )
        except KeyError:
            bad = next(
                f for f in self.files if f.chunk_id not in chunk_index
            )
            raise ChunkFormatError(
                f"file {bad.path!r} references chunk "
                f"{bad.chunk_id.encode()} not in the snapshot's chunk list"
            ) from None
        paths = "\0".join(f.path for f in self.files)
        if self.files and paths.count("\0") != len(self.files) - 1:
            raise ChunkFormatError("file paths must not contain NUL")
        paths_blob = paths.encode("utf-8")
        name = self.dataset.encode("utf-8")
        return b"".join(
            (
                MAGIC,
                _U32.pack(len(name)),
                name,
                _U64.pack(self.update_ts),
                _U32.pack(len(self.chunk_ids)),
                b"".join(cid.raw for cid in self.chunk_ids),
                _U32.pack(len(self.files)),
                _U32.pack(len(paths_blob)),
                paths_blob,
                entries,
            )
        )

    @classmethod
    def deserialize(cls, blob: bytes) -> "MetadataSnapshot":
        """The snapshot :meth:`serialize` wrote into ``blob``.

        A malformed blob raises :class:`ChunkFormatError`.
        """
        if blob[:4] != MAGIC:
            raise ChunkFormatError("bad snapshot magic")
        pos = 4
        (name_len,) = _U32.unpack_from(blob, pos)
        pos += 4
        dataset = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (ts,) = _U64.unpack_from(blob, pos)
        pos += 8
        (n_chunks,) = _U32.unpack_from(blob, pos)
        pos += 4
        cid_end = pos + n_chunks * CHUNK_ID_BYTES
        chunk_ids = [
            ChunkId(raw) for (raw,) in _CID.iter_unpack(blob[pos:cid_end])
        ]
        pos = cid_end
        (n_files,) = _U32.unpack_from(blob, pos)
        pos += 4
        (paths_len,) = _U32.unpack_from(blob, pos)
        pos += 4
        if n_files:
            paths = blob[pos : pos + paths_len].decode("utf-8").split("\0")
        else:
            paths = []
        if len(paths) != n_files:
            raise ChunkFormatError(
                f"snapshot path section holds {len(paths)} paths, "
                f"header says {n_files}"
            )
        pos += paths_len
        entries_end = pos + n_files * _FILE_ENTRY.size
        new = tuple.__new__  # a record at tuple cost
        files = [
            new(FileRecord, (path, chunk_ids[ci], offset, length, crc))
            for path, (ci, offset, length, crc) in zip(
                paths, _FILE_ENTRY.iter_unpack(blob[pos:entries_end])
            )
        ]
        return cls(dataset, ts, tuple(chunk_ids), tuple(files))

    @property
    def file_count(self) -> int:
        """Number of file records."""
        return len(self.files)


class SnapshotIndex:
    """A loaded snapshot: O(1) file lookup + reconstructed hierarchy.

    The index is *live*: :meth:`apply_delta` patches it in place from a
    dataset's mutation journal, advancing :attr:`update_ts` past the
    originally loaded blob.  ``snapshot`` therefore records what was
    loaded, while ``update_ts`` / ``chunk_ids()`` / lookups reflect every
    applied delta.

    Record and journal paths are canonical (the server wrote them from
    validated chunk headers), so the index keys on them as they are;
    only the caller-facing lookups normalise.
    """

    def __init__(self, snapshot: MetadataSnapshot) -> None:
        self.snapshot = snapshot
        self._update_ts = snapshot.update_ts
        self._chunk_ids: list[ChunkId] = sorted(snapshot.chunk_ids)
        #: Raw id -> the one ChunkId every record of that chunk shares
        #: (so its memoised ``encode()`` is per chunk, not per file).
        self._cid_of: dict[bytes, ChunkId] = {
            cid.raw: cid for cid in self._chunk_ids
        }
        self._files: dict[str, FileRecord] = {
            rec.path: rec for rec in snapshot.files
        }
        # Each file joins its directory; then each distinct directory is
        # linked up its ancestor chain once, not once per file under it.
        dirs: dict[str, set[str]] = {"/": set()}
        for path in self._files:
            parent = path.rpartition("/")[0] or "/"
            children = dirs.get(parent)
            if children is None:
                children = dirs[parent] = set()
            children.add(path)
        self._dirs = dirs
        for path in list(dirs):
            if path != "/":
                self._link(path)
        self._by_chunk: Optional[dict[ChunkId, list[str]]] = None

    def _link(self, path: str) -> None:
        dirs = self._dirs
        child = path
        while True:
            parent = child.rpartition("/")[0] or "/"
            children = dirs.get(parent)
            if children is None:
                children = dirs[parent] = set()
            elif child in children:
                break  # this ancestor chain is already linked
            children.add(child)
            if parent == "/":
                break
            child = parent

    @property
    def dataset(self) -> str:
        """Name of the dataset the snapshot describes."""
        return self.snapshot.dataset

    @property
    def update_ts(self) -> int:
        """Current version: the loaded blob's ts plus applied deltas."""
        return self._update_ts

    @property
    def file_count(self) -> int:
        """Number of live files, applied deltas included."""
        return len(self._files)

    def __contains__(self, path: str) -> bool:
        """Whether ``path`` (normalised) is a live file."""
        return path in self._files or normalize(path) in self._files

    def lookup(self, path: str) -> FileRecord:
        """O(1) file-record lookup (the Fig 10b fast path).

        Keys are normalized, so an exact hit needs no ``normalize()``;
        only a miss pays for it before giving up.
        """
        rec = self._files.get(path)
        if rec is None:
            rec = self._files.get(normalize(path))
            if rec is None:
                raise FileNotFoundInDatasetError(path)
        return rec

    def stat(self, path: str) -> dict:
        """Table 3's DL_stat payload: size, upload time, etc.

        ``upload_time`` comes for free from the owning chunk's ID, whose
        first four bytes are its creation second (Table 1).
        """
        path = normalize(path)
        rec = self._files.get(path)
        if rec is not None:
            return {
                "path": path,
                "is_dir": False,
                "size": rec.length,
                "chunk_id": rec.chunk_id,
                "upload_time": rec.chunk_id.timestamp,
            }
        if path in self._dirs:
            return {"path": path, "is_dir": True, "size": 0,
                    "chunk_id": None, "upload_time": None}
        raise FileNotFoundInDatasetError(path)

    def is_dir(self, path: str) -> bool:
        """Whether ``path`` (normalised) is a directory."""
        return normalize(path) in self._dirs

    def readdir(self, path: str) -> list[str]:
        """Full paths of the directory's entries, sorted; a path that is
        no directory raises :class:`FileNotFoundInDatasetError`."""
        path = normalize(path)
        try:
            return sorted(self._dirs[path])
        except KeyError:
            raise FileNotFoundInDatasetError(path) from None

    def walk(self, root: str = "/") -> Iterator[str]:
        """Yield directories depth-first, starting at ``root``."""
        stack = [normalize(root)]
        while stack:
            d = stack.pop()
            yield d
            for child in sorted(self._dirs.get(d, ()), reverse=True):
                if child in self._dirs:
                    stack.append(child)

    def all_paths(self) -> list[str]:
        """Every live file path."""
        return list(self._files)

    def files_by_chunk(self) -> dict[ChunkId, list[str]]:
        """Live files grouped by chunk (input to chunk-wise shuffle)."""
        if self._by_chunk is None:
            grouping: dict[ChunkId, list[str]] = {}
            for path, rec in self._files.items():
                grouping.setdefault(rec.chunk_id, []).append(path)
            # Deterministic within-chunk order: by offset.
            for paths in grouping.values():
                paths.sort(key=lambda p: self._files[p].offset)
            self._by_chunk = grouping
        return self._by_chunk

    def chunk_ids(self) -> tuple[ChunkId, ...]:
        """The dataset's chunk ids, sorted, applied deltas included."""
        return tuple(self._chunk_ids)

    # ------------------------------------------------------------- deltas
    def apply_delta(self, entries: Sequence[bytes]) -> int:
        """Patch the index in place from encoded journal ``entries``
        (:func:`mj.read_entry` walks each blob; no op is built); O(delta).

        ``entries`` must be the contiguous run of mutations immediately
        following this index's version — the first entry at
        ``update_ts + 1``, each next one ts-consecutive.  Anything else
        (a gap past the journal horizon, or re-applying an already
        applied delta) raises :class:`DeltaConflictError` instead of
        silently corrupting the index; a malformed blob raises
        :class:`~repro.errors.JournalFormatError` where the walk meets it, and
        like a conflict leaves an index only a full reload repairs.
        Updates ``_files``, ``_dirs`` and the ``files_by_chunk``
        grouping in place — no rebuild.  Returns the number of ops
        applied.
        """
        applied = 0
        for blob in entries:
            ts, ops = mj.read_entry(blob)
            if ts != self._update_ts + 1:
                raise DeltaConflictError(self.dataset, self._update_ts, ts)
            for kind, path_raw, payload in ops:
                self._apply_op(kind, path_raw, payload)
                applied += 1
            self._update_ts = ts
        return applied

    def _apply_op(self, kind: int, path_raw: bytes, payload: bytes) -> None:
        if kind == mj.OP_APPEND:
            rec = FileRecord.decode(payload, self._cid_of)
            path = rec.path
            old = self._files.get(path)
            self._files[path] = rec
            if old is None:
                self._link(path)
            if self._by_chunk is not None:
                if old is not None:
                    group = self._by_chunk.get(old.chunk_id)
                    if group is not None and path in group:
                        group.remove(path)
                bisect.insort(
                    self._by_chunk.setdefault(rec.chunk_id, []),
                    path,
                    key=lambda p: self._files[p].offset,
                )
        elif kind == mj.OP_DELETE:
            path = path_raw.decode("utf-8")
            rec = self._files.pop(path, None)
            if rec is None:
                raise DeltaConflictError(
                    self.dataset, self._update_ts, self._update_ts + 1,
                    detail=f"delete of unknown path {path!r}",
                )
            self._unlink(path)
            if self._by_chunk is not None:
                group = self._by_chunk.get(rec.chunk_id)
                if group is not None and path in group:
                    group.remove(path)
        elif kind == mj.OP_CHUNK_ADD:
            # The entry's appends came first and interned the id.
            cid = self._cid_of.get(payload) or ChunkId(payload)
            i = bisect.bisect_left(self._chunk_ids, cid)
            if i == len(self._chunk_ids) or self._chunk_ids[i] != cid:
                self._chunk_ids.insert(i, cid)
        else:  # OP_CHUNK_DROP: read_entry let no other kind through
            cid = ChunkId(payload)
            i = bisect.bisect_left(self._chunk_ids, cid)
            if i < len(self._chunk_ids) and self._chunk_ids[i] == cid:
                del self._chunk_ids[i]
            self._cid_of.pop(payload, None)
            if self._by_chunk is not None:
                self._by_chunk.pop(cid, None)

    def _unlink(self, path: str) -> None:
        """Remove ``path`` from its parent, pruning emptied ancestors —
        mirrors what a fresh rebuild would (not) contain."""
        child = path
        while True:
            parent = child.rpartition("/")[0] or "/"
            children = self._dirs.get(parent)
            if children is not None:
                children.discard(child)
                if children or parent == "/":
                    break
                del self._dirs[parent]
            if parent == "/":
                break
            child = parent


def build_snapshot(
    dataset: str,
    update_ts: int,
    files: Sequence[FileRecord],
    chunk_ids: Optional[Sequence[ChunkId]] = None,
) -> MetadataSnapshot:
    """Assemble a snapshot, deriving the chunk list if not given."""
    if chunk_ids is None:
        chunk_ids = sorted({f.chunk_id for f in files})
    return MetadataSnapshot(dataset, update_ts, tuple(chunk_ids), tuple(files))
