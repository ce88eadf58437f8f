"""Tests for the KV metadata schema (Fig 5b)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import meta
from repro.errors import DieselError
from repro.util.bitmap import Bitmap
from repro.util.ids import ChunkId, ChunkIdGenerator
from repro.util.pathutil import dirname

GEN = ChunkIdGenerator(machine=b"\x03" * 6, pid=9)
CID = GEN.next()

paths = st.lists(
    st.text(
        alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    ).filter(lambda s: s not in (".", "..")),
    min_size=1,
    max_size=4,
).map(lambda parts: "/" + "/".join(parts))


class TestKeys:
    def test_key_shapes(self):
        assert meta.dataset_key("imagenet") == "ds:imagenet"
        assert meta.chunk_key("imagenet", CID) == f"ck:imagenet:{CID.encode()}"
        # Key builders format canonical paths; the API boundaries are
        # what normalise (test_server.py::TestPathBoundary).
        assert meta.file_key("ds", "/a/b") == "f:ds:/a/b"
        assert meta.file_key_prefix("ds") == "f:ds:"

    def test_dir_entry_key_kinds(self):
        d = meta.dir_entry_key("ds", "/folderA", "sub", True)
        f = meta.dir_entry_key("ds", "/folderA", "file", False)
        assert "/d:sub" in d and "/f:file" in f
        # both share the parent hash prefix — the paper's pscan pattern
        assert d.rsplit("/", 1)[0] == f.rsplit("/", 1)[0]

    def test_dir_scan_prefix_matches_entries(self):
        key = meta.dir_entry_key("ds", "/folderA", "x", False)
        prefix = meta.dir_scan_prefix("ds", "/folderA", "f")
        assert key.startswith(prefix)
        assert key[len(prefix):] == "x"

    def test_dir_scan_prefix_bad_kind(self):
        with pytest.raises(ValueError):
            meta.dir_scan_prefix("ds", "/", "x")

    def test_dir_hash_is_stable(self):
        assert meta.dir_hash("/a/b") == meta.dir_hash("a//b/")
        assert meta.dir_hash("/a") != meta.dir_hash("/b")


class TestFileRecord:
    def test_roundtrip(self):
        rec = meta.FileRecord("/a/b.jpg", CID, 128, 4096, 0xDEADBEEF)
        assert meta.FileRecord.decode(rec.encode()) == rec

    @settings(max_examples=40, deadline=None)
    @given(
        paths,
        st.integers(0, 2**40),
        st.integers(0, 2**32),
        st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, path, offset, length, crc):
        rec = meta.FileRecord(path, CID, offset, length, crc)
        assert meta.FileRecord.decode(rec.encode()) == rec

    def test_decode_maps_raw_ids_onto_the_callers_instances(self):
        other = GEN.next()
        blobs = [meta.FileRecord(f"/f{i}", cid, i, 1, 0).encode()
                 for i, cid in enumerate((CID, other, CID, other))]
        table = {CID.raw: CID}
        recs = [meta.FileRecord.decode(blob, table) for blob in blobs]
        assert recs[0].chunk_id is CID and recs[2].chunk_id is CID
        # An id the table lacked is built once, added, and shared.
        assert recs[1].chunk_id == other
        assert recs[1].chunk_id is recs[3].chunk_id is table[other.raw]
        assert [r.path for r in recs] == ["/f0", "/f1", "/f2", "/f3"]


class TestChunkRecord:
    def test_roundtrip(self):
        bm = Bitmap(5)
        bm.set(2)
        rec = meta.ChunkRecord(CID, 42, 4 << 20, 5, 1, bm)
        out = meta.ChunkRecord.decode(rec.encode())
        assert out.chunk_id == CID
        assert out.update_ts == 42
        assert out.size == 4 << 20
        assert out.nfiles == 5
        assert out.ndeleted == 1
        assert out.bitmap == bm

    def test_bitmap_consistency_enforced(self):
        with pytest.raises(DieselError):
            meta.ChunkRecord(CID, 1, 10, 3, 0, Bitmap(2))
        with pytest.raises(DieselError):
            meta.ChunkRecord(CID, 1, 10, 3, 1, Bitmap(3))  # count mismatch

    def test_tombstone(self):
        rec = meta.ChunkRecord(CID, 1, 10, 3, 0, Bitmap(3))
        blob, nbits, bits = meta.ChunkRecord.tombstone(rec.encode(), 1)
        rec2 = meta.ChunkRecord.decode(blob)
        assert rec2.ndeleted == 1
        assert rec2.bitmap.get(1)
        assert (nbits, bits) == (3, rec2.bitmap.to_bytes())
        assert not rec.bitmap.get(1)  # original untouched
        with pytest.raises(DieselError):
            meta.ChunkRecord.tombstone(blob, 1)  # double delete


class TestDatasetRecord:
    def test_roundtrip(self):
        cids = tuple(sorted(GEN.take(3)))
        rec = meta.DatasetRecord("open-images", 7, cids)
        out = meta.DatasetRecord.decode(rec.encode())
        assert out == rec

    def test_with_chunks_merges_sorted_unique(self):
        a, b, c = sorted(GEN.take(3))
        rec = meta.DatasetRecord("ds", 1, (b,))
        rec2 = rec.with_chunks([a, c, b], ts=2)
        assert rec2.chunk_ids == (a, b, c)
        assert rec2.update_ts == 2

    def test_without_chunks(self):
        a, b = sorted(GEN.take(2))
        rec = meta.DatasetRecord("ds", 1, (a, b))
        rec2 = rec.without_chunks([a], ts=2)
        assert rec2.chunk_ids == (b,)


def reference_directory_entry_pairs(dataset, path):
    """The expansion as it was written before it took canonical paths:
    ``dirname`` (split, normalize, join) per ancestor."""
    pairs = [(meta.dir_entry_key(
        dataset, dirname(path), path.rsplit("/", 1)[-1] or path, False), b"")]
    current = dirname(path)
    while current != "/":
        parent = dirname(current)
        pairs.append((meta.dir_entry_key(
            dataset, parent, current.rsplit("/", 1)[-1], True), b""))
        current = parent
    return pairs


class TestDirectoryPairs:
    @given(paths)
    def test_matches_the_dirname_expansion(self, path):
        assert meta.directory_entry_pairs("ds", path) == (
            reference_directory_entry_pairs("ds", path)
        )

    def test_file_and_ancestors_linked(self):
        pairs = meta.directory_entry_pairs("ds", "/a/b/c.jpg")
        keys = [k for k, _ in pairs]
        assert meta.dir_entry_key("ds", "/a/b", "c.jpg", False) in keys
        assert meta.dir_entry_key("ds", "/a", "b", True) in keys
        assert meta.dir_entry_key("ds", "/", "a", True) in keys
        assert len(keys) == 3

    def test_root_file(self):
        pairs = meta.directory_entry_pairs("ds", "/top.txt")
        assert len(pairs) == 1
        assert pairs[0][0] == meta.dir_entry_key("ds", "/", "top.txt", False)
