"""Tests for metadata snapshots (§4.1.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meta import FileRecord
from repro.core.snapshot import (
    MetadataSnapshot,
    SnapshotIndex,
    build_snapshot,
)
from repro.errors import ChunkFormatError, FileNotFoundInDatasetError
from repro.util.ids import ChunkIdGenerator

GEN = ChunkIdGenerator(machine=b"\x04" * 6, pid=3)


def make_snapshot(n_files=10, n_chunks=3, dataset="imagenet"):
    cids = sorted(GEN.take(n_chunks))
    files = []
    for i in range(n_files):
        cid = cids[i % n_chunks]
        files.append(
            FileRecord(f"/train/class{i % 3}/img{i:03d}.jpg", cid, i * 100, 100, i)
        )
    return build_snapshot(dataset, update_ts=5, files=files, chunk_ids=cids)


class TestSerialization:
    def test_roundtrip(self):
        snap = make_snapshot()
        restored = MetadataSnapshot.deserialize(snap.serialize())
        assert restored == snap

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 5))
    def test_roundtrip_property(self, n_files, n_chunks):
        snap = make_snapshot(n_files=n_files, n_chunks=n_chunks)
        restored = MetadataSnapshot.deserialize(snap.serialize())
        assert restored.files == snap.files
        assert restored.chunk_ids == snap.chunk_ids
        assert restored.update_ts == snap.update_ts

    def test_bad_magic(self):
        with pytest.raises(ChunkFormatError):
            MetadataSnapshot.deserialize(b"JUNK" + make_snapshot().serialize()[4:])

    def test_file_referencing_unknown_chunk_rejected(self):
        snap = make_snapshot()
        rogue = FileRecord("/rogue", GEN.next(), 0, 1, 0)
        bad = MetadataSnapshot(
            snap.dataset, snap.update_ts, snap.chunk_ids, snap.files + (rogue,)
        )
        with pytest.raises(ChunkFormatError):
            bad.serialize()

    def test_compactness(self):
        """Snapshots must stay small relative to the dataset (§4.1.3)."""
        snap = make_snapshot(n_files=1000, n_chunks=30)
        per_file = len(snap.serialize()) / 1000
        assert per_file < 80  # tens of bytes per file

    def test_totals(self):
        snap = make_snapshot(n_files=10)
        assert snap.file_count == 10
        assert snap.total_bytes() == 1000


class TestIndex:
    def test_lookup(self):
        idx = SnapshotIndex(make_snapshot())
        rec = idx.lookup("/train/class0/img000.jpg")
        assert rec.length == 100
        assert "/train/class0/img000.jpg" in idx
        with pytest.raises(FileNotFoundInDatasetError):
            idx.lookup("/missing")

    def test_unnormalised_paths_still_resolve(self):
        idx = SnapshotIndex(make_snapshot())
        exact = idx.lookup("/train/class0/img000.jpg")
        for spelling in ("train//class0/./img000.jpg",
                         "/train/class0//img000.jpg/"):
            assert idx.lookup(spelling) is exact
            assert spelling in idx
        assert "train//missing" not in idx
        with pytest.raises(FileNotFoundInDatasetError):
            idx.lookup("train//missing")
        with pytest.raises(ValueError):
            idx.lookup("/train/../etc")

    def test_stat_file_and_dir(self):
        idx = SnapshotIndex(make_snapshot())
        st_f = idx.stat("/train/class1/img001.jpg")
        assert st_f["is_dir"] is False and st_f["size"] == 100
        st_d = idx.stat("/train")
        assert st_d["is_dir"] is True
        with pytest.raises(FileNotFoundInDatasetError):
            idx.stat("/nope")

    def test_hierarchy_reconstruction(self):
        idx = SnapshotIndex(make_snapshot(n_files=6))
        assert idx.readdir("/") == ["/train"]
        assert idx.readdir("/train") == [
            "/train/class0", "/train/class1", "/train/class2",
        ]
        assert "/train/class0/img000.jpg" in idx.readdir("/train/class0")

    def test_readdir_missing_raises(self):
        idx = SnapshotIndex(make_snapshot())
        with pytest.raises(FileNotFoundInDatasetError):
            idx.readdir("/ghost")

    def test_walk_visits_all_dirs(self):
        idx = SnapshotIndex(make_snapshot(n_files=9))
        dirs = list(idx.walk())
        assert dirs[0] == "/"
        assert set(dirs) == {
            "/", "/train", "/train/class0", "/train/class1", "/train/class2",
        }

    def test_files_by_chunk_partitions_everything(self):
        snap = make_snapshot(n_files=10, n_chunks=3)
        idx = SnapshotIndex(snap)
        grouping = idx.files_by_chunk()
        all_files = [p for paths in grouping.values() for p in paths]
        assert sorted(all_files) == sorted(idx.all_paths())
        assert set(grouping) <= set(snap.chunk_ids)
        # within-chunk order is by offset
        for cid, paths in grouping.items():
            offsets = [idx.lookup(p).offset for p in paths]
            assert offsets == sorted(offsets)

    def test_counts(self):
        idx = SnapshotIndex(make_snapshot(n_files=7))
        assert idx.file_count == 7
        assert len(idx.chunk_ids()) == 3

    def test_empty_snapshot(self):
        snap = build_snapshot("empty", 1, [])
        idx = SnapshotIndex(snap)
        assert idx.file_count == 0
        assert idx.readdir("/") == []


class TestBuildSnapshot:
    def test_derives_chunk_list(self):
        cids = sorted(GEN.take(2))
        files = [FileRecord("/a", cids[1], 0, 1, 0), FileRecord("/b", cids[0], 0, 1, 0)]
        snap = build_snapshot("ds", 1, files)
        assert snap.chunk_ids == tuple(cids)
