"""Edge-case coverage across core components."""

import zlib

import pytest

from repro.core.chunk import Chunk, ChunkFile
from repro.errors import ChunkFormatError, DieselError
from repro.util.ids import ChunkIdGenerator

from tests.core.conftest import build_deployment, small_files, write_dataset

GEN = ChunkIdGenerator(machine=b"\x0e" * 6, pid=19)


class TestChunkEdges:
    def test_very_long_path_rejected_at_encode(self):
        path = "/" + "x" * 70_000
        # Packing a chunk encodes it: the path is refused as it seals.
        with pytest.raises(ChunkFormatError):
            Chunk.build(GEN.next(), [(path, b"1")])
        # A chunk assembled from parts is refused when it encodes.
        c = Chunk(GEN.next(), [ChunkFile(path, 0, 1, zlib.crc32(b"1"))], b"1")
        with pytest.raises(ChunkFormatError):
            c.encode()

    def test_single_byte_files(self):
        items = [(f"/b/{i}", bytes([i])) for i in range(10)]
        c = Chunk.build(GEN.next(), items)
        restored = Chunk.decode(c.encode())
        for path, data in items:
            assert restored.payload(path) == data

    def test_unicode_paths_roundtrip(self):
        items = [("/データ/写真.jpg", b"img"), ("/café/ü.bin", b"x")]
        c = Chunk.build(GEN.next(), items)
        restored = Chunk.decode(c.encode())
        assert restored.payload("/データ/写真.jpg") == b"img"

    def test_many_files_one_chunk(self):
        items = [(f"/m/f{i:05d}", b"z") for i in range(2000)]
        c = Chunk.build(GEN.next(), items)
        restored = Chunk.decode(c.encode())
        assert len(restored) == 2000


class TestServerEdges:
    def test_empty_read_files_batch(self, deployment):
        write_dataset(deployment, "ds", small_files(3))

        def proc():
            result = yield from deployment.server.call(
                deployment.client_nodes[0], "get_files", "ds", []
            )
            return result

        assert deployment.run(proc()) == {}

    def test_read_files_duplicate_paths(self, deployment):
        files = small_files(4)
        write_dataset(deployment, "ds", files)
        path = next(iter(files))

        def proc():
            result = yield from deployment.server.call(
                deployment.client_nodes[0], "get_files", "ds",
                [path, path, path],
            )
            return result

        result = deployment.run(proc())
        assert result[path] == files[path]

    def test_ls_root_lists_top_dirs(self, deployment):
        write_dataset(deployment, "ds", small_files(3))

        def proc():
            entries = yield from deployment.server.call(
                deployment.client_nodes[0], "ls", "ds", "/"
            )
            return entries

        assert deployment.run(proc()) == ["img"]

    def test_stat_root_is_directory(self, deployment):
        write_dataset(deployment, "ds", small_files(2))

        def proc():
            info = yield from deployment.server.call(
                deployment.client_nodes[0], "stat", "ds", "/"
            )
            return info

        assert deployment.run(proc())["is_dir"] is True

    def test_delete_last_file_then_purge_empties_dataset(self, deployment):
        write_dataset(deployment, "ds", {"/only": b"1" * 50})
        node = deployment.client_nodes[0]

        def proc():
            yield from deployment.server.call(node, "delete_file", "ds",
                                              "/only")
            rewritten = yield from deployment.server.call(node, "purge", "ds")
            return rewritten

        assert deployment.run(proc()) == 1
        # The holey chunk was dropped and nothing replaced it.
        assert deployment.store.list_keys() == []
        assert deployment.server.dataset_info("ds").chunk_ids == ()

    def test_double_delete_raises(self, deployment):
        write_dataset(deployment, "ds", {"/x": b"1" * 10, "/y": b"2" * 10})
        node = deployment.client_nodes[0]

        def proc():
            yield from deployment.server.call(node, "delete_file", "ds", "/x")
            yield from deployment.server.call(node, "delete_file", "ds", "/x")

        from repro.errors import FileNotFoundInDatasetError

        with pytest.raises(FileNotFoundInDatasetError):
            deployment.run(proc())


class TestClientEdges:
    def test_put_empty_file(self, deployment):
        client = deployment.new_client("ds")

        def proc():
            yield from client.put("/empty", b"")
            yield from client.flush()
            data = yield from client.get("/empty")
            return data

        assert deployment.run(proc()) == b""

    def test_interleaved_clients_share_dataset(self, deployment):
        a = deployment.new_client("ds", node_idx=0, name="a")
        b = deployment.new_client("ds", node_idx=1, name="b")

        def proc():
            yield from a.put("/from-a", b"A" * 10)
            yield from a.flush()
            yield from b.put("/from-b", b"B" * 10)
            yield from b.flush()
            xa = yield from b.get("/from-a")
            xb = yield from a.get("/from-b")
            return xa, xb

        assert deployment.run(proc()) == (b"A" * 10, b"B" * 10)

    def test_epoch_counter_distinct_without_seed(self, deployment):
        files = small_files(8)
        client = write_dataset(deployment, "ds", files)

        def load():
            blob = yield from client.save_meta()
            yield from client.load_meta(blob)

        deployment.run(load())
        client.enable_shuffle(group_size=1)
        orders = [tuple(client.epoch_file_list().files) for _ in range(4)]
        assert len(set(orders)) >= 3  # overwhelmingly distinct

    def test_shuffle_group_size_validation(self, deployment):
        files = small_files(4)
        client = write_dataset(deployment, "ds", files)

        def load():
            blob = yield from client.save_meta()
            yield from client.load_meta(blob)

        deployment.run(load())
        with pytest.raises(DieselError):
            client.enable_shuffle(group_size=0)
