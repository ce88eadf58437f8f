"""Tests for the KV-backed per-dataset mutation journal."""

import hashlib

import pytest

from repro.core.meta_journal import (
    OP_APPEND,
    OP_CHUNK_ADD,
    OP_DELETE,
    JournalEntry,
    JournalOp,
    MetaJournal,
    chunk_entry,
    journal_key,
    journal_meta_key,
    read_entry,
)
from repro.core.meta import FileRecord
from repro.errors import DieselError, JournalFormatError
from repro.util.ids import ChunkIdGenerator

from tests.core.conftest import build_deployment, write_dataset
from tests.kvstore.test_kv import build_cluster


def make_journal(horizon=8):
    kv = build_cluster(n_instances=4)
    return kv, MetaJournal(kv, horizon)


def op(i):
    return JournalOp(OP_APPEND, f"/f{i}", b"payload")


def decoded(blobs):
    """``entries_since`` forwards stored blobs; the tests read entries."""
    return [JournalEntry.decode(b) for b in blobs]


class TestEntryCodec:
    def test_roundtrip(self):
        entry = JournalEntry(
            7,
            (
                JournalOp(OP_APPEND, "/a/b.jpg", b"\x00rec\xff"),
                JournalOp(OP_DELETE, "/old.jpg"),
                JournalOp(OP_CHUNK_ADD, "", b"\x01" * 12),
            ),
        )
        assert JournalEntry.decode(entry.encode()) == entry

    def test_unknown_kind_rejected(self):
        with pytest.raises(DieselError):
            JournalOp(99, "/x")

    ENTRY = JournalEntry(
        3,
        (
            JournalOp(OP_DELETE, "/gone.jpg"),
            JournalOp(OP_APPEND, "/a/b.jpg", b"0123456789"),
        ),
    )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda b: b[:-5],  # was: an OP_APPEND with a short payload
            lambda b: b[:-12],  # was: a short *path*
            lambda b: b + b"junk",  # was: accepted
            lambda b: b[:14],  # inside the first op's head
            lambda b: b[:7],  # inside the entry head
        ],
    )
    def test_truncated_or_padded_blob_is_a_format_error(self, damage):
        with pytest.raises(JournalFormatError):
            JournalEntry.decode(damage(self.ENTRY.encode()))

    def test_unknown_kind_in_a_blob_is_a_format_error(self):
        blob = bytearray(self.ENTRY.encode())
        blob[12] = 99  # the first op's kind byte
        ts, ops = read_entry(bytes(blob))
        assert ts == 3  # the head reads; the walk meets the damage
        with pytest.raises(JournalFormatError, match="99"):
            list(ops)

    def test_chunk_entry_is_the_op_encoding(self):
        cid = ChunkIdGenerator(machine=b"\x05" * 6, pid=9).next()
        records = [
            FileRecord(p, cid, 10 * i, 7, 0xABC + i).encode()
            for i, p in enumerate(["/x", "/données/été.bin", "/a/b/c"])
        ]
        for recs in ([], records):
            ops = [
                JournalOp(OP_APPEND, FileRecord.decode(r).path, r) for r in recs
            ] + [JournalOp(OP_CHUNK_ADD, "", cid.raw)]
            paths = [FileRecord.decode(r).path.encode() for r in recs]
            assert chunk_entry(5, paths, recs, cid.raw) == JournalEntry(
                5, tuple(ops)
            ).encode()


class TestRecording:
    def test_record_and_fetch_delta(self):
        _, j = make_journal()
        for ts in (1, 2, 3):
            assert j.record("ds", ts, [op(ts)]) == 2
        entries = decoded(j.entries_since("ds", 1))
        assert [e.ts for e in entries] == [2, 3]
        assert entries[0].ops[0].path == "/f2"

    def test_up_to_date_client_gets_empty_delta(self):
        _, j = make_journal()
        j.record("ds", 1, [op(1)])
        assert j.entries_since("ds", 1) == []
        assert j.entries_since("ds", 5) == []

    def test_never_journaled_dataset_forces_full_reload(self):
        _, j = make_journal()
        assert j.entries_since("ds", 0) is None

    def test_non_monotone_ts_rejected(self):
        _, j = make_journal()
        j.record("ds", 3, [op(3)])
        with pytest.raises(DieselError):
            j.record("ds", 3, [op(3)])
        with pytest.raises(DieselError):
            j.record("ds", 2, [op(2)])

    def test_empty_ops_record_nothing(self):
        kv, j = make_journal()
        assert j.record("ds", 1, []) == 0
        assert kv.local_get_or_none(journal_meta_key("ds")) is None

    def test_horizon_zero_disables_journaling(self):
        kv, j = make_journal(horizon=0)
        assert j.record("ds", 1, [op(1)]) == 0
        assert j.entries_since("ds", 0) is None
        assert kv.local_pscan("jr:") == []

    def test_datasets_are_independent(self):
        _, j = make_journal()
        j.record("a", 1, [op(1)])
        j.record("b", 1, [JournalOp(OP_DELETE, "/other")])
        assert decoded(j.entries_since("a", 0))[0].ops[0].kind == OP_APPEND
        assert decoded(j.entries_since("b", 0))[0].ops[0].kind == OP_DELETE


class TestCompaction:
    def test_depth_capped_at_horizon(self):
        _, j = make_journal(horizon=4)
        for ts in range(1, 11):
            j.record("ds", ts, [op(ts)])
        assert j.depth("ds") == 4
        assert j.span("ds") == (7, 10)

    def test_compacted_keys_are_deleted_from_kv(self):
        kv, j = make_journal(horizon=2)
        for ts in range(1, 6):
            j.record("ds", ts, [op(ts)])
        assert kv.local_get_or_none(journal_key("ds", 1)) is None
        assert kv.local_get_or_none(journal_key("ds", 3)) is None
        assert kv.local_get_or_none(journal_key("ds", 4)) is not None

    def test_client_past_horizon_falls_back(self):
        _, j = make_journal(horizon=3)
        for ts in range(1, 9):  # retained: 6, 7, 8
            j.record("ds", ts, [op(ts)])
        assert j.entries_since("ds", 4) is None  # needs 5: compacted
        within = decoded(j.entries_since("ds", 5))  # needs 6..8: all retained
        assert [e.ts for e in within] == [6, 7, 8]

    def test_hole_forces_full_reload(self):
        kv, j = make_journal()
        for ts in (1, 2, 3):
            j.record("ds", ts, [op(ts)])
        kv.local_delete(journal_key("ds", 2))
        assert j.entries_since("ds", 1) is None

    def test_entry_under_another_versions_key_forces_full_reload(self):
        kv, j = make_journal()
        for ts in (1, 2, 3):
            j.record("ds", ts, [op(ts)])
        kv.local_put(journal_key("ds", 2), kv.local_get(journal_key("ds", 3)))
        assert j.entries_since("ds", 0) is None

    def test_entries_are_forwarded_as_stored(self):
        kv, j = make_journal()
        for ts in (1, 2):
            j.record("ds", ts, [op(ts)])
        assert j.entries_since("ds", 0) == [
            kv.local_get(journal_key("ds", ts)) for ts in (1, 2)
        ]


class TestLifecycle:
    def test_drop_removes_everything(self):
        kv, j = make_journal()
        for ts in (1, 2):
            j.record("ds", ts, [op(ts)])
        assert j.drop("ds") == 2
        assert kv.local_pscan("jr:ds:") == []
        assert kv.local_get_or_none(journal_meta_key("ds")) is None
        assert j.drop("ds") == 0

    def test_reset_sweeps_orphans_drop_would_miss(self):
        kv, j = make_journal()
        for ts in (1, 2, 3):
            j.record("ds", ts, [op(ts)])
        # Simulate a shard loss that took the meta record with it.
        kv.local_delete(journal_meta_key("ds"))
        assert j.drop("ds") == 0  # meta gone: drop can't see the entries
        assert j.reset("ds") == 3  # prefix sweep still finds them
        assert kv.local_pscan("jr:ds:") == []
        assert j.depth("ds") == 0


def pinned_chunk_entry() -> bytes:
    """One chunk ingest's entry: non-ASCII paths, one path twice (an
    overwrite inside the entry), records of two path lengths."""
    cid = ChunkIdGenerator(machine=b"\x07" * 6, pid=11).next()
    paths = ["/données/été/ü.bin", "/a/b", "/données/été/ü.bin", "/x"]
    records = [
        FileRecord(p, cid, 100 * i, 7 + i, 0xC0FFEE + i).encode()
        for i, p in enumerate(paths)
    ]
    return chunk_entry(41, [p.encode() for p in paths], records, cid.raw)


def served_delete_entry() -> bytes:
    """The journal entry a server stores for one file delete."""
    dep = build_deployment()
    client = write_dataset(dep, "ds", {
        "/données/été/ü.bin": b"u" * 300, "/a/b": b"b" * 200,
    })
    dep.run(client.delete("/données/été/ü.bin"))
    kv, journal = dep.kv, dep.server.journal
    return kv.local_get(journal_key("ds", journal.span("ds")[1]))


class TestWireFormat:
    """Journal entries are a wire format: clients apply what any server
    stored.  These digests were taken from the op-at-a-time encoder
    (``JournalEntry.encode``) before the delta path was rewritten."""

    @pytest.mark.parametrize("make, digest", [
        (pinned_chunk_entry,
         "e038330d80fd1c30930577b86256cbc0490e0edb08767f20dd4fbc9899030df9"),
        (lambda: JournalEntry(
            42, (JournalOp(OP_DELETE, "/données/été/ü.bin"),)).encode(),
         "68c4ec360a82aa5aaf2443b602ad1d46f233fbb65abdf70ab54226c71b066231"),
        (served_delete_entry,
         "15557b152a2ac76661a5cac4e01dc377af81c90e8d917f8e7ba011db8eb9e58c"),
    ])
    def test_entry_bytes_are_pinned(self, make, digest):
        blob = make()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert JournalEntry.decode(blob).encode() == blob
