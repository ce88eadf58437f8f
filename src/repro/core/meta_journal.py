"""Per-dataset mutation journal: the delta metadata plane.

§4.1.3 snapshots make steady-state metadata reads free, but any mutation
bumps the dataset ``update_ts`` and used to force every client through a
full ``DL_save_meta`` blob download plus an O(dataset) index rebuild.
The journal removes that cliff: every metadata mutation (chunk ingest,
file delete, chunk drop) appends one entry keyed by the monotonic
``update_ts`` it produced, and a client holding version *v* fetches only
the entries in ``(v, current]`` and patches its
:class:`~repro.core.snapshot.SnapshotIndex` in place.

The journal lives in the shared KV cluster — not in server memory — so
any of the stateless DIESEL servers can serve any client's delta::

    jr:<ds>:<ts, zero-padded>   one JournalEntry (the ops of one mutation)
    jrm:<ds>                    journal meta: (oldest ts, newest ts, count)

Versions are contiguous (every ``update_ts`` bump journals exactly one
entry), so a delta fetch is ``O(delta)`` point gets — no scan.  The
journal is compacted past a configurable horizon: once more than
``horizon`` entries are retained, the oldest are dropped, and a client
whose version predates the oldest retained entry falls back to a full
snapshot reload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence, Tuple

from repro.core.meta import FileRecord
from repro.errors import DieselError, JournalFormatError
from repro.kvstore.sharded import ShardedKV
from repro.util.ids import CHUNK_ID_BYTES

#: An encoded entry starts with it: ts, op count.
ENTRY_HEAD = struct.Struct(">QI")
#: Each op starts with it: kind, path length, payload length.
OP_HEAD = struct.Struct(">BII")
_META = struct.Struct(">QQI")  # oldest ts, newest ts, count
#: A packed :class:`FileRecord`'s bytes beside its path's.
RECORD_FIXED = len(FileRecord.pack("", bytes(CHUNK_ID_BYTES), 0, 0, 0))

#: Upsert one file record (payload = encoded FileRecord).
OP_APPEND = 0
#: Remove one path (payload empty).
OP_DELETE = 1
#: Add one chunk ID to the dataset's chunk list (payload = raw chunk id).
OP_CHUNK_ADD = 2
#: Drop one chunk ID from the dataset's chunk list (payload = raw id).
OP_CHUNK_DROP = 3

_KINDS = frozenset({OP_APPEND, OP_DELETE, OP_CHUNK_ADD, OP_CHUNK_DROP})


def journal_key(dataset: str, ts: int) -> str:
    """Journal-entry key; zero-padded so key order equals version order."""
    return f"jr:{dataset}:{ts:020d}"


def journal_prefix(dataset: str) -> str:
    """Prefix every journal-entry key of the dataset starts with."""
    return f"jr:{dataset}:"


def journal_meta_key(dataset: str) -> str:
    """Key of the dataset's journal meta: oldest ts, newest ts, count."""
    return f"jrm:{dataset}"


@dataclass(frozen=True)
class JournalOp:
    """One mutation primitive inside a journal entry."""

    kind: int
    path: str = ""
    payload: bytes = b""

    def __post_init__(self) -> None:
        """Refuse an unknown op kind."""
        if self.kind not in _KINDS:
            raise DieselError(f"unknown journal op kind {self.kind!r}")


@dataclass(frozen=True)
class JournalEntry:
    """All ops of one metadata mutation, at its ``update_ts``.

    One chunk ingest appends many files at a single timestamp, so an
    entry carries a batch of ops; the dataset version history maps 1:1
    to journal entries, not to individual ops.
    """

    ts: int
    ops: Tuple[JournalOp, ...]

    def encode(self) -> bytes:
        """The entry as stored under its ``jr:`` key: the head, then each
        op's head, path and payload."""
        parts = [ENTRY_HEAD.pack(self.ts, len(self.ops))]
        for op in self.ops:
            path = op.path.encode("utf-8")
            parts.append(OP_HEAD.pack(op.kind, len(path), len(op.payload)))
            parts.append(path)
            parts.append(op.payload)
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "JournalEntry":
        """The entry :meth:`encode` wrote into ``blob``, every op built;
        a malformed blob raises as :func:`read_entry` does."""
        ts, ops = read_entry(blob)
        return cls(ts, tuple(
            JournalOp(kind, path.decode("utf-8"), payload)
            for kind, path, payload in ops
        ))


def read_entry(blob: bytes) -> tuple[int, Iterator[tuple[int, bytes, bytes]]]:
    """``(ts, ops)`` of an encoded entry, ``ops`` yielding each op's
    ``(kind, path, payload)`` with ``path`` left as its UTF-8 bytes (an
    append's record carries its own copy, so only a reader that needs
    the op's path decodes it).

    Only the head is read here.  The iterator validates as it walks: an
    op whose extent leaves the blob, an unknown kind, or bytes left
    after the last op raise :class:`JournalFormatError` — a slice past
    the end would otherwise come back short and apply as a record.
    """
    if len(blob) < ENTRY_HEAD.size:
        raise JournalFormatError(f"journal entry of {len(blob)} bytes has no head")
    ts, n_ops = ENTRY_HEAD.unpack_from(blob, 0)
    return ts, _iter_ops(blob, n_ops)


def _iter_ops(blob: bytes, n_ops: int) -> Iterator[tuple[int, bytes, bytes]]:
    pos, end = ENTRY_HEAD.size, len(blob)
    for _ in range(n_ops):
        path_at = pos + OP_HEAD.size
        if path_at > end:
            raise JournalFormatError(f"journal op head at {pos} leaves the entry")
        kind, path_len, payload_len = OP_HEAD.unpack_from(blob, pos)
        payload_at = path_at + path_len
        pos = payload_at + payload_len
        if pos > end:
            raise JournalFormatError(
                f"journal op at {path_at} runs to {pos}, entry ends at {end}"
            )
        if kind not in _KINDS:
            raise JournalFormatError(f"unknown journal op kind {kind!r}")
        yield kind, blob[path_at:payload_at], blob[payload_at:pos]
    if pos != end:
        raise JournalFormatError(f"{end - pos} bytes follow the entry's last op")


def chunk_entry(
    ts: int, paths: Sequence[bytes], records: Sequence[bytes], cid_raw: bytes
) -> bytes:
    """The encoded entry of one chunk ingest: an ``OP_APPEND`` per packed
    :class:`FileRecord` of ``records``, whose UTF-8 path is the same
    item of ``paths``, then the ``OP_CHUNK_ADD``.

    Byte-equal to ``JournalEntry(ts, ops).encode()`` of those ops, built
    from the blobs the KV pairs already hold with no op materialised:
    one join, an op head per distinct record size.
    """
    sizes = list(map(len, records))
    heads = {
        n: OP_HEAD.pack(OP_APPEND, n - RECORD_FIXED, n) for n in set(sizes)
    }
    return b"".join([
        ENTRY_HEAD.pack(ts, len(records) + 1),
        *chain.from_iterable(zip(map(heads.__getitem__, sizes), paths, records)),
        OP_HEAD.pack(OP_CHUNK_ADD, 0, len(cid_raw)),
        cid_raw,
    ])


def delete_entry(ts: int, path: bytes) -> bytes:
    """The encoded entry of one file delete: one ``OP_DELETE`` of the
    UTF-8 ``path``.  Byte-equal to ``JournalEntry(ts, (JournalOp(
    OP_DELETE, path.decode()),)).encode()``, with no op built."""
    return b"".join((
        ENTRY_HEAD.pack(ts, 1), OP_HEAD.pack(OP_DELETE, len(path), 0), path,
    ))


class MetaJournal:
    """KV-backed mutation journal with horizon compaction.

    All methods are zero-cost local KV operations (the recording server
    charges its KV pipeline cost separately); state is fully shared
    through the KV cluster, so every co-located server sees one journal.
    """

    def __init__(self, kv: ShardedKV, horizon: int) -> None:
        if horizon < 0:
            raise ValueError("journal horizon must be >= 0")
        self.kv = kv
        self.horizon = horizon

    # ----------------------------------------------------------- recording
    def _meta(self, dataset: str) -> Optional[Tuple[int, int, int]]:
        blob = self.kv.local_get_or_none(journal_meta_key(dataset))
        if blob is None:
            return None
        return _META.unpack(blob)

    def record(
        self, dataset: str, ts: int, ops: Sequence[JournalOp]
    ) -> int:
        """:meth:`record_encoded` of ``ops`` (nothing when empty)."""
        if not ops:
            return 0
        return self.record_encoded(
            dataset, ts, JournalEntry(ts, tuple(ops)).encode()
        )

    def record_encoded(self, dataset: str, ts: int, entry: bytes) -> int:
        """Journal one mutation — ``entry``, encoded — at version ``ts``;
        compacts past the horizon.  Returns the number of KV pairs
        written (0 when journaling is disabled, i.e. ``horizon == 0``)."""
        if self.horizon == 0:
            return 0
        meta_key = journal_meta_key(dataset)
        blob = self.kv.local_get_or_none(meta_key)
        meta = None if blob is None else _META.unpack(blob)
        if meta is None:
            oldest, count = ts, 1
        else:
            oldest, newest, count = meta
            if ts <= newest:
                raise DieselError(
                    f"journal for {dataset!r} is at ts {newest}, "
                    f"cannot record ts {ts}"
                )
            count += 1
        self.kv.local_put(journal_key(dataset, ts), entry)
        while count > self.horizon:
            self.kv.local_delete(journal_key(dataset, oldest))
            oldest += 1
            count -= 1
        self.kv.local_put(meta_key, _META.pack(oldest, ts, count))
        return 2

    def drop(self, dataset: str) -> int:
        """Remove the dataset's whole journal (DL_delete_dataset)."""
        meta = self._meta(dataset)
        if meta is None:
            return 0
        oldest, newest, _ = meta
        for ts in range(oldest, newest + 1):
            key = journal_key(dataset, ts)
            if self.kv.local_get_or_none(key) is not None:
                self.kv.local_delete(key)
        self.kv.local_delete(journal_meta_key(dataset))
        return newest - oldest + 1

    def reset(self, dataset: str) -> int:
        """Hard-delete every journal key for ``dataset`` by prefix sweep.

        Unlike :meth:`drop`, trusts nothing: after a KV shard loss the
        ``jrm:`` meta record or individual entries may be gone, leaving
        orphans that :meth:`drop` would miss.  Metadata recovery resets
        the journal before replaying chunks — the replay re-journals its
        re-ingests, so clients at pre-failure versions still converge
        (or fall back to a full reload).  Returns keys removed.
        """
        stale = [k for k, _ in self.kv.local_pscan(journal_prefix(dataset))]
        for key in stale:
            self.kv.local_delete(key)
        removed = len(stale)
        if self.kv.local_get_or_none(journal_meta_key(dataset)) is not None:
            self.kv.local_delete(journal_meta_key(dataset))
            removed += 1
        return removed

    # ------------------------------------------------------------- reading
    def depth(self, dataset: str) -> int:
        """Number of retained entries (``dlcmd meta``)."""
        meta = self._meta(dataset)
        return meta[2] if meta is not None else 0

    def span(self, dataset: str) -> Optional[Tuple[int, int]]:
        """(oldest, newest) retained versions, or None when empty."""
        meta = self._meta(dataset)
        return (meta[0], meta[1]) if meta is not None else None

    def entries_since(
        self, dataset: str, from_ts: int
    ) -> Optional[list[bytes]]:
        """Encoded entries of versions ``(from_ts, newest]``, oldest first,
        as stored: only each head is read, to check it is that version's.

        Returns ``None`` when the journal cannot serve the delta — the
        horizon has compacted past ``from_ts`` (or the dataset was never
        journaled) — in which case the caller must fall back to a full
        snapshot reload.  Versions are contiguous, so the fetch is one
        point get per entry: O(delta), never a scan.
        """
        meta = self._meta(dataset)
        if meta is None:
            return None
        oldest, newest, _ = meta
        if from_ts >= newest:
            return []
        if from_ts + 1 < oldest:
            return None  # horizon passed: the gap is unrecoverable
        entries = []
        for ts in range(from_ts + 1, newest + 1):
            blob = self.kv.local_get_or_none(journal_key(dataset, ts))
            if blob is None or read_entry(blob)[0] != ts:
                return None  # hole (concurrent compaction): full reload
            entries.append(blob)
        return entries
