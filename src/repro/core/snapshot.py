"""Per-dataset metadata snapshots (paper §4.1.3).

A snapshot materializes a dataset's metadata to a compact blob clients
keep on local disk: the dataset update timestamp, the chunk-ID list, and
per-file (path, chunk, offset, length, crc).  Loading it builds an
in-memory hash index, after which *every* metadata operation is served
locally in O(1) — the source of the linear scaling in Fig 10b and the
flat ``ls -lR`` time in Fig 10c.

Both hold their files by column, never as one Python object per file:
a path list plus row-aligned chunk row, offset, length and crc32
columns over one :class:`ChunkId` table.  A :class:`FileRecord` is
built only when a caller asks for one (:meth:`SnapshotIndex.lookup`,
:meth:`SnapshotIndex.stat`, :attr:`MetadataSnapshot.files`).

A snapshot is only valid while its ``update_ts`` matches the dataset
record in the KV store; stale loads raise :class:`StaleSnapshotError`.
"""

from __future__ import annotations

import bisect
import struct
from array import array
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core import meta_journal as mj
from repro.core.meta import RECORD_TAIL, FileRecord
from repro.errors import (
    ChunkFormatError,
    DeltaConflictError,
    FileNotFoundInDatasetError,
    JournalFormatError,
)
from repro.util.ids import CHUNK_ID_BYTES, ChunkId
from repro.util.pathutil import normalize

MAGIC = b"DSNP"
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_CID = struct.Struct(f">{CHUNK_ID_BYTES}s")
#: One file's entry on the wire: chunk index, offset, length, crc.
_ENTRY = np.dtype(
    [("chunk", ">u4"), ("offset", ">u8"), ("length", ">u8"), ("crc32", ">u4")]
)
#: :data:`~repro.core.meta.RECORD_TAIL` as a numpy row.
_TAIL = np.dtype([
    ("cid", f"V{CHUNK_ID_BYTES}"), ("offset", ">u8"), ("length", ">u8"),
    ("crc32", ">u4"),
])
assert _TAIL.itemsize == RECORD_TAIL.size
assert array("I").itemsize == 4 and array("Q").itemsize == 8
#: Each entry field (and the snapshot column holding it) with the
#: ``array`` typecode of the column.
_COLUMNS = (("chunk", "I"), ("offset", "Q"), ("length", "Q"), ("crc32", "I"))

_new_record = tuple.__new__  # a record at tuple cost


def _column(values: np.ndarray, typecode: str) -> array:
    """A machine-order copy of one numpy column."""
    return array(typecode, values.astype(typecode, copy=False).tobytes())


class MetadataSnapshot:
    """The serializable snapshot payload, by column.

    ``paths`` and the columns ``chunk`` (a row of the chunk table),
    ``offset``, ``length`` and ``crc32`` are row-aligned: row *i* is the
    file at ``paths[i]``.  The chunk table starts with ``chunk_ids``; a
    file whose chunk is missing from that list gets a row past its end,
    and :meth:`serialize` refuses it.  A snapshot is immutable: every
    :class:`SnapshotIndex` loaded from it reads these columns until its
    first delta.
    """

    def __init__(
        self,
        dataset: str,
        update_ts: int,
        chunk_ids: Sequence[ChunkId],
        files: Sequence[FileRecord] = (),
    ) -> None:
        chunk_ids = tuple(chunk_ids)
        table = list(chunk_ids)
        row_of = {cid: i for i, cid in enumerate(table)}
        rows = array("I")
        for f in files:
            row = row_of.get(f.chunk_id)
            if row is None:
                row = row_of[f.chunk_id] = len(table)
                table.append(f.chunk_id)
            rows.append(row)
        self._fill(
            dataset, update_ts, chunk_ids, table, [f.path for f in files],
            rows, array("Q", [f.offset for f in files]),
            array("Q", [f.length for f in files]),
            array("I", [f.crc32 for f in files]),
        )

    def _fill(self, dataset, update_ts, chunk_ids, table, paths, chunk,
              offset, length, crc32):
        self.dataset = dataset
        self.update_ts = update_ts
        self.chunk_ids: tuple[ChunkId, ...] = chunk_ids
        self._table: Sequence[ChunkId] = table
        self.paths: list[str] = paths
        self.chunk, self.offset, self.length, self.crc32 = (
            chunk, offset, length, crc32
        )
        self._rows: Optional[dict[str, int]] = None

    @classmethod
    def _of(cls, dataset, update_ts, chunk_ids, table, paths, chunk, fields):
        """The snapshot of chunk rows ``chunk`` and the offset, length
        and crc32 fields of the numpy array ``fields``."""
        snapshot = cls.__new__(cls)
        snapshot._fill(
            dataset, update_ts, chunk_ids, table, paths, _column(chunk, "I"),
            *(_column(fields[name], code) for name, code in _COLUMNS[1:]),
        )
        return snapshot

    @classmethod
    def from_record_tails(
        cls,
        dataset: str,
        update_ts: int,
        chunk_ids: Sequence[ChunkId],
        paths: list[str],
        tails: bytes,
    ) -> "MetadataSnapshot":
        """The snapshot of the files at ``paths``, whose packed
        :class:`FileRecord` tails (:data:`~repro.core.meta.RECORD_TAIL`,
        the bytes after each record's path) are joined in ``tails`` in
        the same order: one numpy pass per column, no record built."""
        chunk_ids = tuple(chunk_ids)
        table = list(chunk_ids)
        row_of = {cid.raw: i for i, cid in enumerate(table)}
        cols = np.frombuffer(tails, _TAIL, len(paths))
        raws, inverse = np.unique(cols["cid"], return_inverse=True)
        rows = []
        for raw in map(bytes, raws):
            row = row_of.get(raw)
            if row is None:
                row = len(table)
                table.append(ChunkId(raw))
            rows.append(row)
        chunk = np.array(rows, np.uint32)[inverse]
        return cls._of(dataset, update_ts, chunk_ids, table, paths, chunk, cols)

    def __eq__(self, other: object) -> bool:
        """Same dataset, version, chunk list and files, row for row."""
        if not isinstance(other, MetadataSnapshot):
            return NotImplemented
        return (self.dataset, self.update_ts, self.chunk_ids, self.files) == (
            other.dataset, other.update_ts, other.chunk_ids, other.files
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def files(self) -> tuple[FileRecord, ...]:
        """Every file as a :class:`FileRecord`, built on this call."""
        table = self._table
        return tuple(
            _new_record(FileRecord, (path, table[c], offset, length, crc))
            for path, c, offset, length, crc in zip(
                self.paths, self.chunk, self.offset, self.length, self.crc32
            )
        )

    @property
    def file_count(self) -> int:
        """Number of file records."""
        return len(self.paths)

    def rows(self) -> dict[str, int]:
        """Path -> row, built on the first call and shared by every
        index loaded from this snapshot until its first delta."""
        if self._rows is None:
            self._rows = dict(zip(self.paths, range(len(self.paths))))
        return self._rows

    def serialize(self) -> bytes:
        """Compact binary form: chunk table + columnar file entries.

        The layout is columnar — all paths NUL-joined in one section,
        all fixed-width entries packed back to back in another — so both
        directions are bulk operations: one ``join`` of the paths, and
        one numpy array of the wire dtype filled column by column.
        """
        n_chunks = len(self.chunk_ids)
        if self.paths and max(self.chunk) >= n_chunks:
            row = next(i for i, c in enumerate(self.chunk) if c >= n_chunks)
            raise ChunkFormatError(
                f"file {self.paths[row]!r} references chunk "
                f"{self._table[self.chunk[row]].encode()} not in the "
                "snapshot's chunk list"
            )
        paths = "\0".join(self.paths)
        if self.paths and paths.count("\0") != len(self.paths) - 1:
            raise ChunkFormatError("file paths must not contain NUL")
        paths_blob = paths.encode("utf-8")
        entries = np.empty(len(self.paths), _ENTRY)
        for name, code in _COLUMNS:
            entries[name] = np.frombuffer(getattr(self, name), code)
        name = self.dataset.encode("utf-8")
        return b"".join(
            (
                MAGIC,
                _U32.pack(len(name)),
                name,
                _U64.pack(self.update_ts),
                _U32.pack(n_chunks),
                b"".join(cid.raw for cid in self.chunk_ids),
                _U32.pack(len(self.paths)),
                _U32.pack(len(paths_blob)),
                paths_blob,
                entries.tobytes(),
            )
        )

    @classmethod
    def deserialize(cls, blob: bytes) -> "MetadataSnapshot":
        """The snapshot :meth:`serialize` wrote into ``blob``: its entry
        section read as one numpy array of the wire dtype.

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
        chunk_ids = tuple(
            ChunkId(raw) for (raw,) in _CID.iter_unpack(blob[pos:cid_end])
        )
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
        if pos + n_files * _ENTRY.itemsize > len(blob):
            raise ChunkFormatError(
                f"snapshot entry section is short of its {n_files} entries"
            )
        entries = np.frombuffer(blob, _ENTRY, n_files, pos)
        if n_files and int(entries["chunk"].max()) >= len(chunk_ids):
            raise ChunkFormatError(
                f"a snapshot entry names chunk {int(entries['chunk'].max())} "
                f"of {len(chunk_ids)}"
            )
        return cls._of(
            dataset, ts, chunk_ids, list(chunk_ids), paths, entries["chunk"],
            entries,
        )


class SnapshotIndex:
    """A loaded snapshot: O(1) file lookup + the directory hierarchy.

    The index holds its files by column: ``_files`` maps a path to its
    row, and row *i* of ``_paths``, ``_chunk`` (a row of the chunk table
    ``_cids``), ``_offset``, ``_length`` and ``_crc`` is that file.
    Until its first delta it reads the loaded snapshot's own columns
    and row map (``_loaded``), so every client of one snapshot shares
    them; the first delta copies them.  A deleted row is refilled from
    the last row, so the columns stay dense.  The directory tree
    (``_dirs``) is built by the first query that needs it and only then
    kept up to date.

    The index is *live*: :meth:`apply_delta` patches it in place from a
    dataset's mutation journal, advancing :attr:`update_ts` past the
    originally loaded blob.

    Record and journal paths are canonical (the server wrote them from
    validated chunk headers), so the index keys on them as they are;
    only the caller-facing lookups normalise.
    """

    def __init__(self, snapshot: MetadataSnapshot) -> None:
        self.dataset = snapshot.dataset
        self._update_ts = snapshot.update_ts
        self._chunk_ids: list[ChunkId] = sorted(snapshot.chunk_ids)
        #: Chunk rows' ids: each chunk's one ChunkId (so its memoised
        #: ``encode()`` is per chunk, not per file); appended to, never
        #: reordered.
        self._cids: list[ChunkId] = list(snapshot._table)
        #: Each chunk row's encoded id: a window read's chunk key.
        self._keys: list[str] = [cid.encode() for cid in self._cids]
        #: Raw id -> its row of ``_cids``, for the chunks still listed.
        self._chunk_row: dict[bytes, int] = {
            cid.raw: i for i, cid in enumerate(self._cids)
        }
        #: The snapshot whose columns this index reads, until a delta
        #: makes them its own (None from then on).
        self._loaded: Optional[MetadataSnapshot] = snapshot
        self._paths: list[str] = snapshot.paths
        self._files: dict[str, int] = snapshot.rows()
        self._chunk, self._offset = snapshot.chunk, snapshot.offset
        self._length, self._crc = snapshot.length, snapshot.crc32
        self._dirs: Optional[dict[str, set[str]]] = None
        self._by_chunk: Optional[dict[ChunkId, list[str]]] = None

    # ------------------------------------------------------------ the tree
    def _tree(self) -> dict[str, set[str]]:
        """Directory -> its entries' full paths, built on first use."""
        if self._dirs is None:
            # Each file joins its directory; then each distinct directory
            # is linked up its ancestor chain once, not once per file.
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
        return self._dirs

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

    # ------------------------------------------------------------- queries
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

    def _miss(self, path: str) -> tuple[int, str]:
        """``(row, canonical path)`` of a file ``path`` names but not as
        a key.  Keys are canonical, so only a miss pays ``normalize()``
        before giving up."""
        canonical = normalize(path)
        row = self._files.get(canonical)
        if row is None:
            raise FileNotFoundInDatasetError(path)
        return row, canonical

    def locate(self, path: str) -> tuple[str, int, int]:
        """``(encoded chunk id, offset, length)`` of a live file: the
        extent a window read slices out of its chunk
        (:meth:`Chunk.extent`), with no record built."""
        row = self._files.get(path)
        if row is None:
            row = self._miss(path)[0]
        return self._keys[self._chunk[row]], self._offset[row], self._length[row]

    def lookup(self, path: str) -> FileRecord:
        """O(1) file-record lookup (the Fig 10b fast path); the record
        is built on this call."""
        row = self._files.get(path)
        if row is None:
            row, path = self._miss(path)
        return _new_record(FileRecord, (
            path, self._cids[self._chunk[row]], self._offset[row],
            self._length[row], self._crc[row],
        ))

    def stat(self, path: str) -> dict:
        """Table 3's DL_stat payload: size, upload time, etc.

        ``upload_time`` comes for free from the owning chunk's ID, whose
        first four bytes are its creation second (Table 1).
        """
        path = normalize(path)
        row = self._files.get(path)
        if row is not None:
            cid = self._cids[self._chunk[row]]
            return {
                "path": path,
                "is_dir": False,
                "size": self._length[row],
                "chunk_id": cid,
                "upload_time": cid.timestamp,
            }
        if path in self._tree():
            return {"path": path, "is_dir": True, "size": 0,
                    "chunk_id": None, "upload_time": None}
        raise FileNotFoundInDatasetError(path)

    def readdir(self, path: str) -> list[str]:
        """Full paths of the directory's entries, sorted; a path that is
        no directory raises :class:`FileNotFoundInDatasetError`."""
        path = normalize(path)
        try:
            return sorted(self._tree()[path])
        except KeyError:
            raise FileNotFoundInDatasetError(path) from None

    def walk(self, root: str = "/") -> Iterator[str]:
        """Yield directories depth-first, starting at ``root``."""
        dirs = self._tree()
        stack = [normalize(root)]
        while stack:
            d = stack.pop()
            yield d
            for child in sorted(dirs.get(d, ()), reverse=True):
                if child in dirs:
                    stack.append(child)

    def all_paths(self) -> list[str]:
        """Every live file path."""
        return list(self._files)

    def files_by_chunk(self) -> dict[ChunkId, list[str]]:
        """Live files grouped by chunk (input to chunk-wise shuffle)."""
        if self._by_chunk is None:
            grouping: dict[ChunkId, list[str]] = {}
            cids, chunk = self._cids, self._chunk
            for path, row in self._files.items():
                grouping.setdefault(cids[chunk[row]], []).append(path)
            # Deterministic within-chunk order: by offset.
            files, offset = self._files, self._offset
            for paths in grouping.values():
                paths.sort(key=lambda p: offset[files[p]])
            self._by_chunk = grouping
        return self._by_chunk

    def chunk_ids(self) -> tuple[ChunkId, ...]:
        """The dataset's chunk ids, sorted, applied deltas included."""
        return tuple(self._chunk_ids)

    # ------------------------------------------------------------- deltas
    def _intern(self, raw: bytes) -> int:
        """The chunk row of raw id ``raw``, appending one if it has none."""
        row = self._chunk_row.get(raw)
        if row is None:
            row = self._chunk_row[raw] = len(self._cids)
            cid = ChunkId(raw)
            self._cids.append(cid)
            self._keys.append(cid.encode())
        return row

    def apply_delta(self, entries: Sequence[bytes]) -> int:
        """Patch the index in place from encoded journal ``entries``,
        walking each blob's ops in one pass with no op or record built;
        O(delta).

        ``entries`` must be the contiguous run of mutations immediately
        following this index's version — the first entry at
        ``update_ts + 1``, each next one ts-consecutive.  Anything else
        (a gap past the journal horizon, or re-applying an already
        applied delta) raises :class:`DeltaConflictError` instead of
        silently corrupting the index; a malformed blob raises
        :class:`~repro.errors.JournalFormatError` where the walk meets it
        (the checks of :func:`~repro.core.meta_journal.read_entry`, and
        an append whose payload is not exactly one record of the op's
        path length), and like a
        conflict leaves an index only a full reload repairs.  Updates
        the columns, and the tree and the ``files_by_chunk`` grouping
        where built, in place — no rebuild.  Returns the number of ops
        applied.
        """
        if self._loaded is not None:  # copy what the snapshot shares
            self._loaded = None
            self._paths, self._files = list(self._paths), dict(self._files)
            self._chunk, self._offset = self._chunk[:], self._offset[:]
            self._length, self._crc = self._length[:], self._crc[:]
        files, paths, cids, chunk_row = (
            self._files, self._paths, self._cids, self._chunk_row
        )
        chunk, offset, length, crc = (
            self._chunk, self._offset, self._length, self._crc
        )
        dirs, by_chunk = self._dirs, self._by_chunk
        entry_head, op_head, tail = mj.ENTRY_HEAD, mj.OP_HEAD, RECORD_TAIL
        applied = 0
        for blob in entries:
            end = len(blob)
            if end < entry_head.size:
                raise JournalFormatError(
                    f"journal entry of {end} bytes has no head"
                )
            ts, n_ops = entry_head.unpack_from(blob, 0)
            if ts != self._update_ts + 1:
                raise DeltaConflictError(self.dataset, self._update_ts, ts)
            pos = entry_head.size
            for _ in range(n_ops):
                path_at = pos + op_head.size
                if path_at > end:
                    raise JournalFormatError(
                        f"journal op head at {pos} leaves the entry"
                    )
                kind, path_len, payload_len = op_head.unpack_from(blob, pos)
                payload_at = path_at + path_len
                pos = payload_at + payload_len
                if pos > end:
                    raise JournalFormatError(
                        f"journal op at {path_at} runs to {pos}, "
                        f"entry ends at {end}"
                    )
                if kind == mj.OP_APPEND:
                    # The payload is one packed record of the op's path:
                    # its name and tail sit at fixed places.
                    if payload_len != path_len + mj.RECORD_FIXED:
                        raise JournalFormatError(
                            f"journal append at {payload_at} is not one "
                            f"record of a {path_len}-byte path"
                        )
                    tail_at = pos - tail.size
                    path = blob[payload_at + _U32.size : tail_at].decode("utf-8")
                    raw, off, n, check = tail.unpack_from(blob, tail_at)
                    crow = chunk_row.get(raw)
                    if crow is None:
                        crow = self._intern(raw)
                    new = len(paths)
                    row = files.setdefault(path, new)
                    if row == new:  # a new path takes a new last row
                        paths.append(path)
                        chunk.append(crow)
                        offset.append(off)
                        length.append(n)
                        crc.append(check)
                        if dirs is not None:
                            self._link(path)
                        if by_chunk is not None:
                            self._regroup(path, None, crow)
                    else:
                        old = chunk[row]
                        chunk[row], offset[row] = crow, off
                        length[row], crc[row] = n, check
                        if by_chunk is not None:
                            self._regroup(path, old, crow)
                elif kind == mj.OP_DELETE:
                    path = blob[path_at:payload_at].decode("utf-8")
                    row = files.pop(path, None)
                    if row is None:
                        raise DeltaConflictError(
                            self.dataset, self._update_ts,
                            self._update_ts + 1,
                            detail=f"delete of unknown path {path!r}",
                        )
                    cid = cids[chunk[row]]
                    last = len(paths) - 1
                    if row != last:  # refill the row from the last one
                        moved = paths[row] = paths[last]
                        files[moved] = row
                        chunk[row], offset[row] = chunk[last], offset[last]
                        length[row], crc[row] = length[last], crc[last]
                    paths.pop()
                    chunk.pop()
                    offset.pop()
                    length.pop()
                    crc.pop()
                    if dirs is not None:
                        self._unlink(path)
                    if by_chunk is not None:
                        self._ungroup(path, cid)
                elif kind == mj.OP_CHUNK_ADD:
                    cid = cids[self._intern(blob[payload_at:pos])]
                    i = bisect.bisect_left(self._chunk_ids, cid)
                    if i == len(self._chunk_ids) or self._chunk_ids[i] != cid:
                        self._chunk_ids.insert(i, cid)
                elif kind == mj.OP_CHUNK_DROP:
                    raw = blob[payload_at:pos]
                    cid = ChunkId(raw)
                    i = bisect.bisect_left(self._chunk_ids, cid)
                    if i < len(self._chunk_ids) and self._chunk_ids[i] == cid:
                        del self._chunk_ids[i]
                    chunk_row.pop(raw, None)
                    if by_chunk is not None:
                        by_chunk.pop(cid, None)
                else:
                    raise JournalFormatError(
                        f"unknown journal op kind {kind!r}"
                    )
            if pos != end:
                raise JournalFormatError(
                    f"{end - pos} bytes follow the entry's last op"
                )
            applied += n_ops
            self._update_ts = ts
        return applied

    def _ungroup(self, path: str, cid: ChunkId) -> None:
        """Take ``path`` out of chunk ``cid``'s group; an emptied group
        goes, as a fresh grouping would not hold it."""
        group = self._by_chunk.get(cid)
        if group is not None and path in group:
            group.remove(path)
            if not group:
                del self._by_chunk[cid]

    def _regroup(self, path: str, old: Optional[int], crow: int) -> None:
        """Move ``path`` from chunk row ``old``'s group (None: a new file)
        into chunk row ``crow``'s, kept in offset order."""
        if old is not None:
            self._ungroup(path, self._cids[old])
        files, offset = self._files, self._offset
        bisect.insort(
            self._by_chunk.setdefault(self._cids[crow], []),
            path,
            key=lambda p: offset[files[p]],
        )


def build_snapshot(
    dataset: str,
    update_ts: int,
    files: Sequence[FileRecord],
    chunk_ids: Optional[Sequence[ChunkId]] = None,
) -> MetadataSnapshot:
    """Assemble a snapshot from records, deriving the chunk list if not
    given."""
    if chunk_ids is None:
        chunk_ids = sorted({f.chunk_id for f in files})
    return MetadataSnapshot(dataset, update_ts, chunk_ids, files)
