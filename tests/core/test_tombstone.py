"""A tombstone rewrites one header (docs/METADATA.md "Tombstones patch
the stored header in place").

* differential: over any chunks and any sequence of deletes — racing
  pairs, reads and whole-object peeks between them, double deletes and
  paths a header does not hold, a purge at the end — the stored bytes
  equal the decoded chunk re-encoded with the record's bitmap, and each
  KV chunk record equals the one the decode → set bit → encode path
  gives, errors included;
* the header table the server keeps answers only for a header whose
  file count and table are byte-equal to it: other bytes loaded under
  the same key are walked, and a kept table still has its header's
  magic and checksum verified.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import meta
from repro.core.chunk import Chunk, HeaderTable
from repro.core.server import object_key
from repro.errors import (
    ChunkChecksumError,
    ChunkFormatError,
    DieselError,
    FileNotFoundInDatasetError,
)
from repro.util.bitmap import Bitmap

from tests.core.conftest import build_deployment, write_dataset
from tests.core.test_meta_write_path import path_sets

DS = "ds"


def record_after_delete(blob, index):
    """The KV chunk record ``blob`` with file ``index`` deleted, by the
    dataclass path: decode, set the bit in a copy of the bitmap (a set
    bit is a double delete), encode."""
    rec = meta.ChunkRecord.decode(blob)
    bitmap = rec.bitmap.copy()
    if bitmap.get(index):
        raise DieselError(f"file index {index} already deleted")
    bitmap.set(index)
    return meta.ChunkRecord(
        rec.chunk_id, rec.update_ts, rec.size, rec.nfiles, rec.ndeleted + 1,
        bitmap,
    ).encode()


def outcome(fn, *args):
    """``("ok", value)``, or ``("error", type, message)`` of what ``fn``
    raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "error", type(exc), str(exc)


class Model:
    """The deployment beside what the decode → re-encode path predicts:
    each chunk's decoded original and its KV record's bytes."""

    def __init__(self, paths):
        self.dep = build_deployment()
        self.files = {p: (p * 40).encode("utf-8")[: 60 + 37 * i % 200]
                      for i, p in enumerate(paths)}
        write_dataset(self.dep, DS, self.files, chunk_size=512)
        self.server = self.dep.server
        self.chunks = {}  # path -> decoded original chunk
        self.records = {}  # chunk id -> expected KV record bytes
        for cid in self.server.dataset_info(DS).chunk_ids:
            chunk = Chunk.decode(self.dep.store.peek(object_key(DS, cid)))
            self.records[cid] = self.kv_record(cid)
            for path in chunk.paths:
                self.chunks[path] = chunk
        self.live = set(self.files)

    def kv_record(self, cid):
        return self.dep.kv.local_get_or_none(meta.chunk_key(DS, cid))

    def call(self, *args):
        return self.server.call(self.dep.client_nodes[0], *args)

    def expect_delete(self, path):
        """The error the delete of ``path`` must raise, else None after
        the expected record took its bit."""
        if path not in self.live:
            return FileNotFoundInDatasetError
        chunk = self.chunks[path]
        index = chunk.paths.index(path)
        done = outcome(record_after_delete, self.records[chunk.chunk_id], index)
        if done[0] == "error":
            return done[1]
        self.records[chunk.chunk_id] = done[1]
        self.live.discard(path)
        return None

    def delete(self, *paths):
        """Delete ``paths`` concurrently; check each one's outcome.  A
        path raced against itself meets the first delete's bit: a
        double delete."""
        expected = []
        for i, p in enumerate(paths):
            again = p in paths[:i] and expected[paths.index(p)] is None
            expected.append(DieselError if again else self.expect_delete(p))
        procs = [self.dep.env.process(self.call("delete_file", DS, p))
                 for p in paths]
        self.dep.env.run()
        for proc, error in zip(procs, expected):
            if error is None:
                assert proc.ok, proc.value
            else:
                assert not proc.ok and type(proc.value) is error
        self.check_records()

    def check_records(self):
        for cid, record in self.records.items():
            assert self.kv_record(cid) == record

    def expected_blob(self, chunk):
        crec = meta.ChunkRecord.decode(self.records[chunk.chunk_id])
        return Chunk(chunk.chunk_id, chunk.files, chunk.data, crec.bitmap).encode()

    def check_stored(self):
        """Peek every chunk (which splices any pending head in)."""
        for chunk in {id(c): c for c in self.chunks.values()}.values():
            stored = self.dep.store.peek(object_key(DS, chunk.chunk_id))
            assert stored == self.expected_blob(chunk)


actions = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("race"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("read"), st.integers(0, 99)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("revive"), st.integers(0, 99)),
    st.tuples(st.just("ghost"), st.integers(0, 99)),
)


class TestAgainstDecodeAndEncode:
    @settings(max_examples=40, deadline=None)
    @given(paths=path_sets.filter(lambda ps: len(ps) >= 2),
           steps=st.lists(actions, max_size=14))
    def test_tombstones_match_the_dataclass_path(self, paths, steps):
        m = Model(paths)
        names = sorted(m.files)
        for step in steps:
            kind, picks = step[0], [names[i % len(names)] for i in step[1:]]
            if kind == "delete":
                m.delete(picks[0])
            elif kind == "race":
                m.delete(*picks)
            elif kind == "read":
                path = picks[0]
                got = outcome(m.dep.run, m.call("get_file", DS, path))
                if path in m.live:
                    assert got == ("ok", m.files[path])
                else:
                    assert got[:2] == ("error", FileNotFoundInDatasetError)
            elif kind == "peek":
                m.check_stored()
            elif kind == "revive":
                # A deleted file's record written back: its next delete
                # meets the chunk record's set bit, a double delete.
                path = picks[0]
                if path in m.live:
                    continue
                chunk = m.chunks[path]
                entry = dict(zip(*chunk.columns()))[path]
                m.dep.kv.local_put(meta.file_key(DS, path), meta.FileRecord(
                    path, chunk.chunk_id, *entry).encode())
                m.live.add(path)
                m.delete(path)
                assert m.dep.kv.local_get_or_none(meta.file_key(DS, path))
                m.dep.kv.local_delete(meta.file_key(DS, path))
                m.live.discard(path)
            else:  # a record naming a chunk whose header lacks the path
                # ("phantom" is longer than any generated component)
                cid = m.chunks[picks[0]].chunk_id
                m.dep.kv.local_put(
                    meta.file_key(DS, "/phantom"),
                    meta.FileRecord("/phantom", cid, 0, 1, 0).encode(),
                )
                with pytest.raises(ChunkFormatError, match="phantom"):
                    m.dep.run(m.call("delete_file", DS, "/phantom"))
                m.dep.kv.local_delete(meta.file_key(DS, "/phantom"))
                m.check_records()
        m.check_stored()
        m.dep.run(m.call("purge", DS))
        for path in names:
            got = outcome(m.dep.run, m.call("get_file", DS, path))
            if path in m.live:
                assert got == ("ok", m.files[path])
            else:
                assert got[:2] == ("error", FileNotFoundInDatasetError)
        for cid in m.server.dataset_info(DS).chunk_ids:
            blob = m.dep.store.peek(object_key(DS, cid))
            assert Chunk.decode(blob).deleted_count == 0


class TestRecordBytePatch:
    @settings(max_examples=300, deadline=None)
    @given(
        nfiles=st.integers(0, 20),
        data=st.data(),
    )
    def test_equals_decode_set_encode_errors_included(self, nfiles, data):
        bits = Bitmap(nfiles)
        for i in data.draw(st.sets(st.integers(0, max(0, nfiles - 1)))):
            if i < nfiles:
                bits.set(i)
        raw = bits.to_bytes()
        # Damage: a byte more or less, a padding bit, a wrong count.
        raw = data.draw(st.sampled_from([
            raw, raw + b"\x00", raw[:-1], raw[:-1] + bytes([0xFF]) if raw else raw,
        ]))
        ndeleted = bits.count() + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
        blob = meta._CHUNK_REC_HEAD.pack(
            b"\x07" * 16, 9, 1 << 20, nfiles, max(0, ndeleted)) + raw
        index = data.draw(st.integers(0, nfiles + 2))
        expect = outcome(record_after_delete, blob, index)
        got = outcome(meta.ChunkRecord.tombstone, blob, index)
        if expect[0] == "ok":
            bits = expect[1][meta._CHUNK_REC_HEAD.size :]
            assert got == ("ok", (expect[1], nfiles, bits))
        else:
            assert got == expect

    def test_double_delete_is_refused(self):
        blob = meta.ChunkRecord(
            meta.ChunkId(b"\x01" * 16), 1, 10, 3, 0, Bitmap(3)).encode()
        once, _, _ = meta.ChunkRecord.tombstone(blob, 2)
        with pytest.raises(DieselError, match="already deleted"):
            meta.ChunkRecord.tombstone(once, 2)


@pytest.fixture
def dep_and_chunk():
    """A deployment holding one eight-file chunk; ``(dep, key, chunk)``."""
    dep = build_deployment()
    files = {f"/k/f{i}": bytes([48 + i]) * 100 for i in range(8)}
    write_dataset(dep, DS, files, chunk_size=1 << 20)
    (key,) = dep.store.list_keys()
    return dep, key, Chunk.decode(dep.store.peek(key))


def delete(dep, path):
    return dep.run(dep.server.call(dep.client_nodes[0], "delete_file", DS, path))


class TestKeptTable:
    def test_other_bytes_under_the_same_key_are_walked(
        self, dep_and_chunk, monkeypatch
    ):
        """The same files in reverse order, loaded between two deletes:
        the file count matches the kept table, the table bytes do not,
        so the index is the new header's."""
        dep, key, chunk = dep_and_chunk
        first, victim = chunk.paths[0], chunk.paths[2]
        delete(dep, first)
        kept = dep.server._tombstone_table
        assert kept is not None and kept.index[victim] == 2
        payloads = {p: chunk.payload(p) for p in chunk.paths}
        swapped = Chunk.pack(chunk.chunk_id, [
            (p, payloads[p]) for p in reversed(chunk.paths)
        ])
        dep.store.load([(key, swapped.encode())])
        walks = []
        real_walk = HeaderTable.walk.__func__

        def counting_walk(cls, head):
            walks.append(1)
            return real_walk(cls, head)

        monkeypatch.setattr(HeaderTable, "walk", classmethod(counting_walk))
        delete(dep, victim)
        assert walks == [1]
        index = swapped.paths.index(victim)
        assert index != 2
        stored = Chunk.decode(dep.store.peek(key))
        assert stored.deletion_bitmap.get(index)
        # The chunk record took both bits: the first delete's index 0
        # (the old layout's) and the new layout's index of the victim.
        crec = dep.server._chunk_record(DS, chunk.chunk_id)
        assert crec.bitmap.get(0) and crec.bitmap.get(index)
        assert stored.deletion_bitmap == crec.bitmap

    def test_a_kept_table_still_checks_the_checksum(self, dep_and_chunk):
        """A flipped chunk-id byte leaves the file table as kept: the
        checksum, verified on every delete, refuses it."""
        dep, key, chunk = dep_and_chunk
        delete(dep, chunk.paths[0])
        blob = bytearray(dep.store.peek(key))
        blob[5] ^= 0x01  # a byte of the header's chunk id
        dep.store.load([(key, bytes(blob))])
        assert dep.server._tombstone_table.describes(bytes(blob))
        record = dep.kv.local_get_or_none(meta.chunk_key(DS, chunk.chunk_id))
        with pytest.raises(ChunkChecksumError):
            delete(dep, chunk.paths[1])
        assert dep.kv.local_get_or_none(
            meta.chunk_key(DS, chunk.chunk_id)) == record

    def test_a_kept_table_still_checks_the_magic(self, dep_and_chunk):
        dep, key, chunk = dep_and_chunk
        delete(dep, chunk.paths[0])
        dep.store.load([(key, b"XSL1" + dep.store.peek(key)[4:])])
        with pytest.raises(ChunkFormatError, match="magic"):
            delete(dep, chunk.paths[1])

    def test_a_run_of_deletes_walks_one_header_and_copies_no_chunk(
        self, dep_and_chunk
    ):
        dep, key, chunk = dep_and_chunk
        original = dep.store.head(key)
        for path in chunk.paths[:5]:
            delete(dep, path)
        # The stored object is untouched; its pending head holds every bit.
        assert dep.store._objects[key] is original
        header = dep.store.head(key)
        assert len(header) == len(original) - chunk.data_size
        assert dep.store.object_size(key) == len(original)
        stored = Chunk.decode(dep.store.peek(key))
        assert stored.deleted_count == 5
        assert stored.encode() == dep.store.peek(key)
