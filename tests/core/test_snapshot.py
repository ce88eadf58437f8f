"""Tests for metadata snapshots (§4.1.3)."""

import gc
import hashlib
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meta import FileRecord
from repro.core.snapshot import (
    MetadataSnapshot,
    SnapshotIndex,
    build_snapshot,
)
from repro.errors import (
    ChunkFormatError,
    FileNotFoundInDatasetError,
    JournalFormatError,
)
from repro.util.ids import ChunkId, ChunkIdGenerator

from tests.core.conftest import build_deployment, write_dataset

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
        assert sum(f.length for f in snap.files) == 1000


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
            assert idx.lookup(spelling) == exact
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


def pinned_snapshot():
    """Four chunks (the last with no live file), non-ASCII paths, and a
    gap where every seventh file was deleted."""
    machine = bytes(range(10, 16))
    cids = [
        ChunkId.from_parts(1_600_000_000 + i, machine, 77, i) for i in range(4)
    ]
    files = [
        FileRecord(f"/données/класс{i % 4}/été_{i:03d}.bin", cids[i % 3],
                   i * 4096, 1000 + 37 * i, (i * 2654435761) & 0xFFFFFFFF)
        for i in range(40) if i % 7 != 3
    ]
    return build_snapshot("jeu-ü", 12_345_678_901, files, cids)


def served_snapshot():
    """A server's snapshot of 30 ingested files after four deletes."""
    dep = build_deployment()
    files = {
        f"/été/d{i % 3}/f{i:02d}.bin": bytes([i]) * (100 + 13 * i)
        for i in range(30)
    }
    client = write_dataset(dep, "ds", files, chunk_size=1024)
    for i in (2, 5, 11, 29):
        dep.run(client.delete(f"/été/d{i % 3}/f{i:02d}.bin"))
    return dep.server.build_snapshot("ds")


class TestWireFormat:
    """The snapshot blob is a wire format: these digests were taken from
    the record-at-a-time codec the columnar one replaced."""

    @pytest.mark.parametrize("make, digest", [
        (pinned_snapshot,
         "39c03c6023ec6994b03df526cbe950b8b3fa9ac81279fe4ff83ebfbefc124ed1"),
        (served_snapshot,
         "c95df0a7f4891bb872d8d54ba2dd9e21eb00c02b34e76118a7152c05e115e0dc"),
    ])
    def test_snapshot_bytes_are_pinned(self, make, digest):
        blob = make().serialize()
        assert hashlib.sha256(blob).hexdigest() == digest
        assert MetadataSnapshot.deserialize(blob).serialize() == blob


def tracked_objects(root) -> int:
    """GC-tracked objects reachable from ``root``, short of classes,
    modules and functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj) or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


class TestColumns:
    def test_tracked_objects_do_not_grow_with_files(self):
        small, large = (make_snapshot(n_files=n) for n in (30, 3000))
        assert tracked_objects(large) == tracked_objects(small)
        assert tracked_objects(SnapshotIndex(large)) == tracked_objects(
            SnapshotIndex(small)
        )
        decoded = MetadataSnapshot.deserialize(large.serialize())
        assert tracked_objects(SnapshotIndex(decoded)) == tracked_objects(
            SnapshotIndex(small)
        )

    def test_server_columns_equal_decoded_records(self):
        """``build_snapshot`` cuts paths from keys and fields from record
        tails; decoding each stored record is the reference."""
        from repro.core import meta

        dep = build_deployment()
        files = {f"/é/d{i % 4}/f{i:03d}": bytes([i]) * (7 + i) for i in range(90)}
        client = write_dataset(dep, "ds", files, chunk_size=1024)
        for i in (3, 40, 89):
            dep.run(client.delete(f"/é/d{i % 4}/f{i:03d}"))
        snap = dep.server.build_snapshot("ds")
        want = [
            FileRecord.decode(blob)
            for _, blob in dep.kv.local_pscan(meta.file_key_prefix("ds"))
        ]
        assert list(snap.files) == want and len(want) == 87
        assert snap.chunk_ids == dep.server.dataset_info("ds").chunk_ids

    def test_a_deleted_row_is_refilled_from_the_last(self):
        from repro.core import meta_journal as mj

        idx = SnapshotIndex(make_snapshot(n_files=5))
        first, *_, last = idx.all_paths()
        moved = idx.lookup(last)
        entry = mj.JournalEntry(6, (mj.JournalOp(mj.OP_DELETE, first),))
        assert idx.apply_delta([entry.encode()]) == 1
        assert idx._paths[0] == last and len(idx._paths) == 4
        assert idx.lookup(last) == moved and idx.locate(last) == (
            moved.chunk_id.encode(), moved.offset, moved.length
        )
        assert first not in idx and idx.file_count == 4

    def test_a_delta_leaves_the_shared_snapshot_alone(self):
        from repro.core import meta_journal as mj

        snap = make_snapshot(n_files=6)
        blob = snap.serialize()
        patched, other = SnapshotIndex(snap), SnapshotIndex(snap)
        first, last = snap.paths[0], snap.paths[-1]
        rec = patched.lookup(last)._replace(path="/new", offset=9)
        entry = mj.JournalEntry(6, (
            mj.JournalOp(mj.OP_DELETE, first),
            mj.JournalOp(mj.OP_APPEND, "/new", rec.encode()),
        ))
        patched.apply_delta([entry.encode()])
        assert patched.lookup("/new") == rec and first not in patched
        assert snap.serialize() == blob
        assert other.all_paths() == snap.paths and "/new" not in other
        assert other.lookup(last) == snap.files[-1]

    @pytest.mark.parametrize("damage", [
        lambda r: r[:-1], lambda r: r + b"x", lambda r: r[:3],
    ])
    def test_an_append_of_no_whole_record_is_a_format_error(self, damage):
        from repro.core import meta_journal as mj

        idx = SnapshotIndex(make_snapshot(n_files=3))
        rec = idx.lookup(idx.all_paths()[0])._replace(path="/z")
        entry = mj.JournalEntry(6, (
            mj.JournalOp(mj.OP_APPEND, "/z", damage(rec.encode())),
        ))
        with pytest.raises(JournalFormatError):
            idx.apply_delta([entry.encode()])

    def test_the_tree_is_built_on_first_use(self):
        idx = SnapshotIndex(make_snapshot())
        idx.lookup("/train/class0/img000.jpg")
        idx.stat("/train/class0/img000.jpg")
        assert idx._dirs is None
        assert idx.stat("/train")["is_dir"] and idx._dirs is not None


class TestAppendsInADelta:
    """Overwrites and repeats of a path in one entry, re-appends across
    entries: the index must answer as a fresh load of the records the
    delta leaves."""

    BASE = make_snapshot(n_files=12)

    def records(self, paths, cids):
        cids = list(cids)
        return [
            FileRecord(p, cids[i % len(cids)], 64 * i, 7 + i, 0xE0 + i)
            for i, p in enumerate(paths)
        ]

    def apply(self, records, grown=False):
        from repro.core import meta_journal as mj

        index = SnapshotIndex(self.BASE)
        if grown:  # the tree and the grouping are kept up by the delta
            index.readdir("/")
            index.files_by_chunk()
        entry = mj.JournalEntry(self.BASE.update_ts + 1, tuple(
            mj.JournalOp(mj.OP_APPEND, r.path, r.encode()) for r in records
        ))
        assert index.apply_delta([entry.encode()]) == len(records)
        want = {r.path: r for r in self.BASE.files}
        want.update((r.path, r) for r in records)
        fresh = SnapshotIndex(build_snapshot(
            "imagenet", index.update_ts, list(want.values()),
            self.BASE.chunk_ids,
        ))
        for path, record in want.items():
            assert index.lookup(path) == record
            assert index.locate(path) == fresh.locate(path)
        assert sorted(index.all_paths()) == sorted(want)
        if grown:
            assert index.files_by_chunk() == fresh.files_by_chunk()
            for d in fresh.walk():
                assert index.readdir(d) == fresh.readdir(d)
        return index

    @pytest.mark.parametrize("grown", [False, True])
    def test_an_overwrite_or_a_repeat(self, grown):
        live = self.BASE.paths[3]
        new = [f"/nouveau/f{i:02d}" for i in range(12)]
        for paths in (new[:5] + [live] + new[5:], new + [new[2]]):
            self.apply(self.records(paths, GEN.take(2)), grown)

    @pytest.mark.parametrize("grown", [False, True])
    def test_one_file_entries_in_a_row_and_a_delete_between(self, grown):
        """A later entry may append a path an earlier one deleted."""
        from repro.core import meta_journal as mj

        index = SnapshotIndex(self.BASE)
        if grown:
            index.readdir("/")
            index.files_by_chunk()
        gone = self.BASE.paths[0]
        records = self.records(
            [f"/solo/s{i}" for i in range(4)] + [gone, "/solo/s9"],
            GEN.take(2),
        )
        ops = [[mj.JournalOp(mj.OP_APPEND, r.path, r.encode())]
               for r in records]
        ops.insert(2, [mj.JournalOp(mj.OP_DELETE, gone)])
        ts = self.BASE.update_ts
        entries = [mj.JournalEntry(ts + 1 + i, tuple(o)).encode()
                   for i, o in enumerate(ops)]
        assert index.apply_delta(entries) == len(entries)
        want = {r.path: r for r in self.BASE.files}
        want.update((r.path, r) for r in records)
        fresh = SnapshotIndex(build_snapshot(
            "imagenet", index.update_ts, list(want.values()),
            self.BASE.chunk_ids,
        ))
        assert sorted(index.all_paths()) == sorted(want)
        for path, record in want.items():
            assert index.locate(path) == fresh.locate(path)
        if grown:
            assert index.files_by_chunk() == fresh.files_by_chunk()
            for d in fresh.walk():
                assert index.readdir(d) == fresh.readdir(d)
