"""Tests for the DIESEL server: ingest, reads, request executor,
housekeeping."""

import pytest

from repro.core import meta
from repro.core.chunk import Chunk
from repro.core.server import object_key, parse_object_key
from repro.errors import (
    ChunkChecksumError,
    ChunkFormatError,
    DatasetNotFoundError,
    DieselError,
    FileNotFoundInDatasetError,
)
from repro.util.ids import ChunkIdGenerator

from tests.core.conftest import build_deployment, small_files, write_dataset


class TestObjectKey:
    def test_roundtrip(self):
        gen = ChunkIdGenerator(machine=b"\x06" * 6, pid=1)
        cid = gen.next()
        key = object_key("imagenet", cid)
        ds, parsed = parse_object_key(key)
        assert ds == "imagenet" and parsed == cid

    def test_written_order_listing(self):
        gen = ChunkIdGenerator(machine=b"\x06" * 6, pid=1, clock=None)
        cids = list(gen.take(5))
        keys = sorted(object_key("ds", c) for c in reversed(cids))
        assert [parse_object_key(k)[1] for k in keys] == cids


class TestIngestAndRead:
    def test_roundtrip_through_server(self, deployment):
        files = small_files(20)
        client = write_dataset(deployment, "ds", files)

        def read_one(path):
            def proc():
                data = yield from deployment.server.call(
                    deployment.client_nodes[0], "get_file", "ds", path
                )
                return data

            return deployment.run(proc())

        for path, data in list(files.items())[:5]:
            assert read_one(path) == data

    def test_chunks_land_in_object_store(self, deployment):
        write_dataset(deployment, "ds", small_files(20), chunk_size=32 * 1024)
        keys = deployment.store.list_keys()
        assert len(keys) >= 2
        for key in keys:
            chunk = Chunk.decode(deployment.store.peek(key))
            assert len(chunk) >= 1

    def test_metadata_pairs_written(self, deployment):
        files = small_files(10)
        write_dataset(deployment, "ds", files)
        for path in files:
            assert deployment.kv.local_get_or_none(meta.file_key("ds", path))
        dsrec = deployment.server.dataset_info("ds")
        assert len(dsrec.chunk_ids) == len(deployment.store.list_keys())

    def test_missing_file_raises(self, deployment):
        write_dataset(deployment, "ds", small_files(5))

        def proc():
            yield from deployment.server.call(
                deployment.client_nodes[0], "get_file", "ds", "/ghost"
            )

        with pytest.raises(FileNotFoundInDatasetError):
            deployment.run(proc())

    def test_unknown_dataset_raises(self, deployment):
        def proc():
            yield from deployment.server.call(
                deployment.client_nodes[0], "dataset_ts", "nope"
            )

        with pytest.raises(DatasetNotFoundError):
            deployment.run(proc())

    def test_unknown_method_raises(self, deployment):
        def proc():
            yield from deployment.server.call(
                deployment.client_nodes[0], "fly_to_moon"
            )

        with pytest.raises(DieselError):
            deployment.run(proc())

    def test_dataset_ts_bumps_on_ingest(self, deployment):
        write_dataset(deployment, "ds", small_files(4), chunk_size=4096)
        ts1 = deployment.server.dataset_info("ds").update_ts
        write_dataset(deployment, "ds", {"/new/file": b"x" * 100})
        ts2 = deployment.server.dataset_info("ds").update_ts
        assert ts2 > ts1


class TestRequestExecutor:
    def test_batch_read_returns_correct_bytes(self, deployment):
        files = small_files(30)
        write_dataset(deployment, "ds", files, chunk_size=16 * 1024)
        paths = list(files)[:12]

        def proc():
            result = yield from deployment.server.call(
                deployment.client_nodes[0], "get_files", "ds", paths
            )
            return result

        result = deployment.run(proc())
        assert set(result) == set(paths)
        for p in paths:
            assert result[p] == files[p]

    def test_merging_reduces_device_ops(self, deployment):
        """The §4 request executor must merge same-chunk reads."""
        files = small_files(32, size=1024)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        # All 32 files fit one chunk.
        assert len(deployment.store.list_keys()) == 1
        before = deployment.store.device.stats.read_ops

        def proc():
            result = yield from deployment.server.call(
                deployment.client_nodes[0], "get_files", "ds", list(files)
            )
            return result

        deployment.run(proc())
        merged_ops = deployment.store.device.stats.read_ops - before
        assert merged_ops == 1  # one span read instead of 32

    def test_merged_read_faster_than_individual(self, deployment):
        files = small_files(64, size=4096)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        node = deployment.client_nodes[0]

        def batched():
            t0 = deployment.env.now
            yield from deployment.server.call(
                node, "get_files", "ds", list(files)
            )
            return deployment.env.now - t0

        def individual():
            t0 = deployment.env.now
            for p in files:
                yield from deployment.server.call(node, "get_file", "ds", p)
            return deployment.env.now - t0

        t_batch = deployment.run(batched())
        t_indiv = deployment.run(individual())
        assert t_batch < t_indiv / 4


class TestMetadataOps:
    def test_stat(self, deployment):
        files = small_files(6)
        write_dataset(deployment, "ds", files)
        path = next(iter(files))

        def proc():
            info = yield from deployment.server.call(
                deployment.client_nodes[0], "stat", "ds", path
            )
            return info

        info = deployment.run(proc())
        assert info["size"] == len(files[path])
        assert info["is_dir"] is False

    def test_stat_directory(self, deployment):
        write_dataset(deployment, "ds", small_files(6))

        def proc():
            info = yield from deployment.server.call(
                deployment.client_nodes[0], "stat", "ds", "/img"
            )
            return info

        assert deployment.run(proc())["is_dir"] is True

    def test_ls_is_pscan_union(self, deployment):
        write_dataset(deployment, "ds", small_files(8))

        def proc():
            entries = yield from deployment.server.call(
                deployment.client_nodes[0], "ls", "ds", "/img"
            )
            return entries

        entries = deployment.run(proc())
        assert entries == ["class0", "class1", "class2", "class3"]

    def test_save_meta_roundtrip(self, deployment):
        from repro.core.snapshot import MetadataSnapshot

        files = small_files(10)
        write_dataset(deployment, "ds", files)

        def proc():
            blob = yield from deployment.server.call(
                deployment.client_nodes[0], "save_meta", "ds", response_bytes=None
            )
            return blob

        snap = MetadataSnapshot.deserialize(deployment.run(proc()))
        assert snap.file_count == 10
        assert {f.path for f in snap.files} == set(files)


class TestPathBoundary:
    """The RPC entry points are where a path is normalised (and ``..``
    refused); below them keys are built from canonical paths as is."""

    SPELLINGS = ("img//class0/./file0000.jpg", "/img/class0/file0000.jpg/")

    def call(self, dep, method, *args):
        return dep.run(dep.server.call(dep.client_nodes[0], method, "ds", *args))

    def test_every_spelling_reaches_the_same_file(self, deployment):
        files = small_files(8)
        write_dataset(deployment, "ds", files)
        payload = files["/img/class0/file0000.jpg"]
        for path in self.SPELLINGS:
            assert self.call(deployment, "get_file", path) == payload
            assert self.call(deployment, "get_file_range", path, 1, 5) == payload[1:6]
            assert self.call(deployment, "get_files", [path]) == {path: payload}
            assert self.call(deployment, "get_files", [path]) == {path: payload}
            assert self.call(deployment, "exists", path) is True
            assert self.call(deployment, "stat", path)["size"] == len(payload)
        assert self.call(deployment, "ls", "img//class0/") == [
            "file0000.jpg", "file0004.jpg"
        ]
        self.call(deployment, "delete_file", self.SPELLINGS[0])
        assert self.call(deployment, "exists", self.SPELLINGS[1]) is False

    @pytest.mark.parametrize("method,extra", [
        ("get_file", ()), ("get_file_range", (0, 1)), ("exists", ()),
        ("stat", ()), ("ls", ()), ("delete_file", ()),
    ])
    def test_dotdot_and_non_str_are_refused(self, deployment, method, extra):
        write_dataset(deployment, "ds", small_files(4))
        with pytest.raises(ValueError):
            self.call(deployment, method, "/img/../etc", *extra)
        with pytest.raises(TypeError):
            self.call(deployment, method, 7, *extra)
        with pytest.raises(ValueError):
            self.call(deployment, "get_files", ["/img/../etc"])

    def test_ingest_refuses_a_header_with_an_uncanonical_path(self, deployment):
        gen = ChunkIdGenerator(machine=b"\x06" * 6, pid=2)
        for path, error in (("img//a.jpg", ChunkFormatError),
                            ("/img/../a.jpg", ValueError)):
            blob = Chunk.pack(gen.next(), [(path, b"x")]).encode()
            with pytest.raises(error):
                self.call(deployment, "ingest_chunk", blob)
        # Refused before anything was stored or recorded.
        assert deployment.store.list_keys() == []
        assert deployment.kv.total_keys() == 0


    def test_ingest_refuses_what_chunk_decode_refuses(self, deployment):
        """The object-free header read keeps decode's checks: nothing is
        stored or recorded on the way to the error."""
        good = Chunk.pack(
            ChunkIdGenerator(machine=b"\x06" * 6, pid=3).next(),
            [("/img/a.jpg", b"aa"), ("/img/b.jpg", b"bbb")],
        ).encode()
        twice = good.replace(b"/img/b.jpg", b"/img/a.jpg")  # CRC now stale
        for blob, error in (
            (b"XSL1" + good[4:], ChunkFormatError),
            (good[:40], ChunkFormatError),
            (good[:-1], ChunkFormatError),  # last file leaves the data section
            (twice, ChunkChecksumError),
        ):
            with pytest.raises(error):
                self.call(deployment, "ingest_chunk", blob)
        assert deployment.store.list_keys() == []
        assert deployment.kv.total_keys() == 0


class TestHousekeeping:
    def test_delete_tombstones(self, deployment):
        files = small_files(8)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        victim = next(iter(files))

        def proc():
            yield from deployment.server.call(
                deployment.client_nodes[0], "delete_file", "ds", victim
            )

        deployment.run(proc())
        # file record gone
        assert deployment.kv.local_get_or_none(meta.file_key("ds", victim)) is None
        # chunk record shows one tombstone
        dsrec = deployment.server.dataset_info("ds")
        crec = deployment.server._chunk_record("ds", dsrec.chunk_ids[0])
        assert crec.ndeleted == 1

    def test_delete_keeps_a_concurrently_ingested_chunk(self, deployment):
        """delete_file must not rewrite the dataset record it read
        before its device write: a chunk ingested meanwhile stays."""
        files = small_files(8)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        victim = next(iter(files))
        late = Chunk.build(
            ChunkIdGenerator(machine=b"\x09" * 6, pid=9).next(),
            [("/late/x.bin", b"L" * 5000)],
        )
        node = deployment.client_nodes[0]
        server = deployment.server
        env = deployment.env
        delete = env.process(server.call(node, "delete_file", "ds", victim))
        ingest = env.process(
            server.call(node, "ingest_chunk", "ds", late.encode())
        )
        env.run(until=env.all_of([delete, ingest]))
        # The race actually happened: the ingest landed mid-delete.
        assert ingest.ok and delete.ok
        dsrec = server.dataset_info("ds")
        assert late.chunk_id in dsrec.chunk_ids
        assert len(dsrec.chunk_ids) == 2

        def read_back():
            data = yield from server.call(node, "get_file", "ds", "/late/x.bin")
            blob = yield from server.call(
                node, "get_chunk", "ds", late.chunk_id.encode()
            )
            return data, blob

        data, blob = deployment.run(read_back())
        assert data == b"L" * 5000
        assert Chunk.decode(blob).chunk_id == late.chunk_id
        assert deployment.kv.local_get_or_none(
            meta.file_key("ds", victim)) is None

    def test_deleted_file_not_listed(self, deployment):
        files = {"/d/a": b"1" * 100, "/d/b": b"2" * 100}
        write_dataset(deployment, "ds", files)

        def proc():
            yield from deployment.server.call(
                deployment.client_nodes[0], "delete_file", "ds", "/d/a"
            )
            entries = yield from deployment.server.call(
                deployment.client_nodes[0], "ls", "ds", "/d"
            )
            return entries

        assert deployment.run(proc()) == ["b"]

    def test_purge_rewrites_holey_chunks(self, deployment):
        files = small_files(10, size=1000)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        node = deployment.client_nodes[0]
        victims = list(files)[:3]

        def proc():
            for v in victims:
                yield from deployment.server.call(node, "delete_file", "ds", v)
            rewritten = yield from deployment.server.call(node, "purge", "ds")
            return rewritten

        assert deployment.run(proc()) == 1
        dsrec = deployment.server.dataset_info("ds")
        assert len(dsrec.chunk_ids) == 1  # fresh chunk replaced the holey one
        crec = deployment.server._chunk_record("ds", dsrec.chunk_ids[0])
        assert crec.ndeleted == 0
        assert crec.nfiles == 7

        def read_survivor():
            survivor = list(files)[5]
            data = yield from deployment.server.call(
                node, "get_file", "ds", survivor
            )
            return data

        survivor = list(files)[5]
        assert deployment.run(read_survivor()) == files[survivor]

    def test_purge_skips_clean_chunks(self, deployment):
        write_dataset(deployment, "ds", small_files(5))

        def proc():
            rewritten = yield from deployment.server.call(
                deployment.client_nodes[0], "purge", "ds"
            )
            return rewritten

        assert deployment.run(proc()) == 0

    def test_delete_dataset_removes_everything(self, deployment):
        write_dataset(deployment, "ds", small_files(10), chunk_size=8 * 1024)

        def proc():
            n = yield from deployment.server.call(
                deployment.client_nodes[0], "delete_dataset", "ds"
            )
            return n

        removed = deployment.run(proc())
        assert removed >= 1
        assert deployment.store.list_keys() == []
        assert deployment.kv.total_keys() == 0
        with pytest.raises(DatasetNotFoundError):
            deployment.server.dataset_info("ds")


class TestMultiServer:
    def test_servers_share_state(self):
        dep = build_deployment(n_servers=3)
        files = small_files(9)
        write_dataset(dep, "ds", files)

        def read_via(server_idx, path):
            def proc():
                data = yield from dep.servers[server_idx].call(
                    dep.client_nodes[0], "get_file", "ds", path
                )
                return data

            return dep.run(proc())

        path = next(iter(files))
        # Any server serves data written through any other (stateless §4.1.1).
        assert read_via(0, path) == files[path]
        assert read_via(1, path) == files[path]
        assert read_via(2, path) == files[path]
