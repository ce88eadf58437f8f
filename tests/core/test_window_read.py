"""Window reads by the snapshot's extent (§4.1.3, §4.3).

A shuffle-mode client keeps each chunk it fetches from a server as a
:meth:`Chunk.fetched` view — header checked, no file table parsed — and
reads a file by the ``(offset, length)`` its snapshot index locates.
These tests hold that path to its checks (every damage raises its typed
error out of ``DieselClient.get``) and to the decoded chunk it replaces
(a differential state machine over deletes, overwrites, purges and
``refresh_meta``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import chunk as chunk_module
from repro.core.chunk import MAGIC, Chunk, ChunkFile
from repro.core.server import object_key
from repro.core.snapshot import SnapshotIndex
from repro.errors import ChunkChecksumError, ChunkFormatError
from repro.util.bitmap import Bitmap
from repro.util.ids import CHUNK_ID_BYTES, ChunkId, ChunkIdGenerator

from tests.core.conftest import build_deployment, small_files, write_dataset

GEN = ChunkIdGenerator(machine=b"\x0c" * 6, pid=3)
DS = "ds"


def _shuffling_reader(dep):
    """A reader with a loaded snapshot, in shuffle mode, no prefetch."""
    reader = dep.new_client(DS)

    def load():
        yield from reader.load_meta((yield from reader.save_meta()))

    dep.run(load())
    reader.enable_shuffle(group_size=2)
    return reader


class TestFetchedView:
    def test_reads_by_extent_and_parses_no_table(self, monkeypatch):
        items = [(f"/d{i % 3}/f{i}", bytes([i]) * (i * 7)) for i in range(20)]
        packed = Chunk.build(GEN.next(), items)
        blob = packed.encode()
        built = [0]
        monkeypatch.setattr(
            chunk_module, "_read_table",
            _counting(built, chunk_module._read_table),
        )
        view = Chunk.fetched(blob, packed.chunk_id.encode())
        for f in packed.files:
            assert view.extent(f.offset, f.length) == packed.payload(f.path)
        assert built[0] == 0 and view.encode() is blob
        # The table is read on first use, once, with decode's checks.
        assert view.paths == packed.paths and len(view) == 20
        assert view.deletion_bitmap == packed.deletion_bitmap
        assert built[0] == 1

    def test_the_table_keeps_decode_checks(self):
        # A file whose extent runs past the data section passes the
        # header walk; its table refuses it on first use, as decode does.
        blob = _blob_with_entry(ChunkFile("/x", 0, 99, 0), b"short")
        view = Chunk.fetched(blob, _cid_of(blob))
        with pytest.raises(ChunkFormatError, match="extends past"):
            view.paths
        with pytest.raises(ChunkFormatError, match="extends past"):
            Chunk.decode(blob)

    @pytest.mark.parametrize("start,stop", [
        (0, None), (0, 3), (2, 5), (5, 100), (8, 8), (9, 20), (6, 2), (0, 0),
    ])
    def test_extent_slices_like_the_payload(self, start, stop):
        chunk = Chunk.build(GEN.next(), [("/a", b"0123456789"), ("/b", b"ab")])
        got = chunk.extent(0, 10, start, stop)
        assert got == b"0123456789"[start:stop]
        view = Chunk(chunk.chunk_id, chunk.files, bytearray(chunk.data))
        assert view.extent(0, 10, start, stop) == got  # no blob: copied out

    @pytest.mark.parametrize("offset,length", [(0, 13), (12, 1), (-1, 2), (3, -1)])
    def test_extent_past_the_data_section_is_refused(self, offset, length):
        chunk = Chunk.build(GEN.next(), [("/a", b"0123456789"), ("/b", b"ab")])
        with pytest.raises(ChunkFormatError, match="runs past"):
            chunk.extent(offset, length)

    def test_chunk_id_mismatch_is_refused(self):
        blob = Chunk.build(GEN.next(), [("/a", b"1")]).encode()
        with pytest.raises(ChunkFormatError, match="asked for chunk"):
            Chunk.fetched(blob, GEN.next().encode())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(max_size=40), min_size=1, max_size=12),
           st.data())
    def test_extent_agrees_with_decode(self, payloads, data):
        items = [(f"/p/{i}", p) for i, p in enumerate(payloads)]
        blob = Chunk.build(GEN.next(), items).encode()
        decoded = Chunk.decode(blob)
        view = Chunk.fetched(blob, decoded.chunk_id.encode())
        for f in decoded.files:
            assert view.extent(f.offset, f.length) == decoded.payload(f.path)
            start = data.draw(st.integers(0, f.length + 3))
            stop = data.draw(st.integers(0, f.length + 3))
            assert view.extent(f.offset, f.length, start, stop) == (
                decoded.payload(f.path)[start:stop]
            )


def _counting(counter, fn):
    def wrapped(*args):
        counter[0] += 1
        return fn(*args)

    return wrapped


def _cid_of(blob):
    """The encoded chunk id an encoded chunk's header names."""
    return ChunkId(blob[len(MAGIC) : len(MAGIC) + CHUNK_ID_BYTES]).encode()


def _blob_with_entry(entry, data):
    """An encoded chunk of one file-table ``entry`` over ``data``, sealed
    with a valid header checksum whatever the entry says."""
    table = [(entry.path, (entry.offset, entry.length, entry.crc32))]
    return chunk_module._seal(GEN.next(), Bitmap(1), table, [data])[0]


class TestWindowGetRefusesDamage:
    """Each damage to a fetched chunk raises its typed error from
    ``DieselClient.get`` in shuffle mode."""

    def _setup(self):
        dep = build_deployment()
        files = small_files(12, size=500)
        write_dataset(dep, DS, files, chunk_size=2048)
        reader = _shuffling_reader(dep)
        index = reader.index
        path = next(iter(files))
        cid = index.lookup(path).chunk_id
        return dep, reader, index, path, object_key(DS, cid)

    def _damaged_get(self, dep, reader, key, path, blob):
        dep.store.load([(key, blob)])
        return dep.run(reader.get(path))

    def test_intact_chunk_reads(self):
        dep, reader, _, path, key = self._setup()
        assert dep.run(reader.get(path)) == small_files(12, size=500)[path]

    def test_bad_magic(self):
        dep, reader, _, path, key = self._setup()
        blob = b"XXXX" + dep.store.peek(key)[len(MAGIC):]
        with pytest.raises(ChunkFormatError, match="magic"):
            self._damaged_get(dep, reader, key, path, blob)

    def test_truncated_blob(self):
        dep, reader, _, path, key = self._setup()
        blob = dep.store.peek(key)[:60]
        with pytest.raises(ChunkFormatError, match="truncated"):
            self._damaged_get(dep, reader, key, path, blob)

    def test_flipped_header_byte(self):
        dep, reader, _, path, key = self._setup()
        blob = bytearray(dep.store.peek(key))
        blob[Chunk.header_size(bytes(blob)) - 8] ^= 0x01  # a CRC byte of the last entry
        with pytest.raises(ChunkChecksumError):
            self._damaged_get(dep, reader, key, path, bytes(blob))

    def test_chunk_id_mismatch(self):
        dep, reader, index, path, key = self._setup()
        other = next(c for c in index.chunk_ids() if object_key(DS, c) != key)
        blob = dep.store.peek(object_key(DS, other))
        with pytest.raises(ChunkFormatError, match="asked for chunk"):
            self._damaged_get(dep, reader, key, path, blob)

    def test_index_extent_past_the_data_section(self):
        dep, reader, index, _, key = self._setup()
        # The chunk's last file ends where its data section ends: cut
        # one byte off the data section and the header still checks.
        last = max(
            (p for p in index.all_paths() if object_key(DS, index.lookup(p).chunk_id) == key),
            key=lambda p: index.lookup(p).offset,
        )
        blob = dep.store.peek(key)[:-1]
        assert Chunk.header_size(blob)
        with pytest.raises(ChunkFormatError, match="runs past"):
            self._damaged_get(dep, reader, key, last, blob)


class WindowMachine(RuleBasedStateMachine):
    """Deletes, overwrites and purges on a real deployment; after each
    step a shuffle-mode reader refreshes its held index by delta and
    every live file reads, by extent, what ``Chunk.decode`` gives and
    what was last written."""

    PATHS = [f"{d}/{n}" for d in ("/a", "/a/b", "/été") for n in ("x", "y", "z")]

    def __init__(self):
        super().__init__()
        self.dep = build_deployment()
        self.model = {self.PATHS[0]: b"seed" * 10}
        self.writer = write_dataset(self.dep, DS, dict(self.model), chunk_size=256)
        self.reader = _shuffling_reader(self.dep)
        self.version = 0

    @rule(names=st.lists(st.sampled_from(PATHS), min_size=1, max_size=4,
                         unique=True),
          size=st.integers(0, 200))
    def ingest(self, names, size):
        self.version += 1
        writer = self.writer

        def put():
            for path in names:
                data = bytes([self.version % 256]) * size
                self.model[path] = data
                yield from writer.put(path, data)
            yield from writer.flush()

        self.dep.run(put())

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        path = data.draw(st.sampled_from(sorted(self.model)))
        del self.model[path]
        self.dep.run(self.writer.delete(path))

    @rule()
    def purge(self):
        self.dep.run(self.writer.purge())

    @invariant()
    def extent_reads_agree(self):
        dep, reader = self.dep, self.reader
        held = dep.run(reader.refresh_meta())
        fresh = SnapshotIndex(dep.server.build_snapshot(DS))
        assert sorted(held.all_paths()) == sorted(self.model)
        for path, data in self.model.items():
            encoded, offset, length = held.locate(path)
            assert (encoded, offset, length) == fresh.locate(path)
            blob = dep.store.peek(object_key(DS, held.lookup(path).chunk_id))
            by_extent = Chunk.fetched(blob, encoded).extent(offset, length)
            assert by_extent == Chunk.decode(blob).payload(path) == data
            assert dep.run(reader.get(path)) == data


WindowMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWindowMachine = WindowMachine.TestCase
