"""End-to-end tests for libDIESEL (Table 3 API)."""

import pytest

from repro.core.client import SyncDieselClient
from repro.core.config import DieselConfig
from repro.errors import (
    ClosedError,
    DieselError,
    FileNotFoundInDatasetError,
    StaleSnapshotError,
)

from tests.core.conftest import build_deployment, small_files, write_dataset


class TestPutGet:
    def test_roundtrip(self, deployment):
        client = deployment.new_client("ds", config=DieselConfig(chunk_size=4096))

        def proc():
            yield from client.put("/x/a.bin", b"A" * 3000)
            yield from client.put("/x/b.bin", b"B" * 3000)  # seals chunk 1
            yield from client.flush()
            a = yield from client.get("/x/a.bin")
            b = yield from client.get("/x/b.bin")
            return a, b

        a, b = deployment.run(proc())
        assert a == b"A" * 3000 and b == b"B" * 3000
        assert client.stats.puts == 2
        assert client.stats.chunks_sent == 1

    def test_flush_sends_partial_chunk(self, deployment):
        client = deployment.new_client("ds")

        def proc():
            yield from client.put("/only", b"tiny")
            assert client.stats.chunks_sent == 0
            yield from client.flush()
            data = yield from client.get("/only")
            return data

        assert deployment.run(proc()) == b"tiny"
        assert client.stats.chunks_sent == 1

    def test_get_missing_raises(self, deployment):
        write_dataset(deployment, "ds", small_files(3))
        client = deployment.new_client("ds")

        def proc():
            yield from client.get("/ghost")

        with pytest.raises(FileNotFoundInDatasetError):
            deployment.run(proc())

    def test_bytes_accounting(self, deployment):
        client = write_dataset(deployment, "ds", {"/a": b"12345"})

        def proc():
            yield from client.get("/a")

        deployment.run(proc())
        assert client.stats.bytes_written == 5
        assert client.stats.bytes_read == 5


class TestSnapshotFlow:
    def test_save_load_then_local_metadata(self, deployment):
        files = small_files(12)
        client = write_dataset(deployment, "ds", files)

        def proc():
            blob = yield from client.save_meta()
            idx = yield from client.load_meta(blob)
            st = yield from client.stat(next(iter(files)))
            listing = yield from client.ls("/img")
            return idx, st, listing

        idx, st, listing = deployment.run(proc())
        assert client.index is idx
        assert idx.file_count == 12
        assert st["size"] == 4096
        assert listing == ["/img/class0", "/img/class1", "/img/class2",
                           "/img/class3"]

    def test_stale_snapshot_rejected(self, deployment):
        files = small_files(5)
        client = write_dataset(deployment, "ds", files)

        def proc():
            blob = yield from client.save_meta()
            # Dataset changes after the snapshot was taken...
            yield from client.put("/late/file", b"z" * 10)
            yield from client.flush()
            yield from client.load_meta(blob)

        with pytest.raises(StaleSnapshotError):
            deployment.run(proc())

    def test_wrong_dataset_snapshot_rejected(self, deployment):
        write_dataset(deployment, "alpha", small_files(3, prefix="/a"))
        client_a = deployment.new_client("alpha")
        write_dataset(deployment, "beta", small_files(3, prefix="/b"))
        client_b = deployment.new_client("beta")

        def proc():
            blob = yield from client_a.save_meta()
            yield from client_b.load_meta(blob)

        with pytest.raises(DieselError):
            deployment.run(proc())

    def test_metadata_without_snapshot_hits_server(self, deployment):
        files = small_files(4)
        write_dataset(deployment, "ds", files)
        client = deployment.new_client("ds")
        before = deployment.server.meta_endpoint.stats.calls

        def proc():
            st = yield from client.stat(next(iter(files)))
            return st

        st = deployment.run(proc())
        assert st["size"] == 4096
        assert deployment.server.meta_endpoint.stats.calls > before

    def test_snapshot_metadata_avoids_server(self, deployment):
        files = small_files(4)
        client = write_dataset(deployment, "ds", files)

        def load(env=None):
            blob = yield from client.save_meta()
            yield from client.load_meta(blob)

        deployment.run(load())
        before = (
            deployment.server.endpoint.stats.calls
            + deployment.server.meta_endpoint.stats.calls
        )

        def proc():
            for path in files:
                yield from client.stat(path)
            yield from client.ls("/img")

        deployment.run(proc())
        after = (
            deployment.server.endpoint.stats.calls
            + deployment.server.meta_endpoint.stats.calls
        )
        assert after == before  # zero RPCs: all served from the snapshot


class TestShuffleMode:
    def _loaded_client(self, deployment, n=24):
        files = small_files(n, size=2048)
        client = write_dataset(deployment, "ds", files, chunk_size=8 * 1024)

        def load():
            blob = yield from client.save_meta()
            yield from client.load_meta(blob)

        deployment.run(load())
        return client, files

    def test_requires_snapshot(self, deployment):
        client = deployment.new_client("ds")
        with pytest.raises(DieselError):
            client.enable_shuffle()

    def test_epoch_plan_covers_dataset(self, deployment):
        client, files = self._loaded_client(deployment)
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=1)
        assert sorted(plan.files) == sorted(files)

    def test_epochs_differ(self, deployment):
        client, _ = self._loaded_client(deployment)
        client.enable_shuffle(group_size=2)
        p1 = client.epoch_file_list().files
        p2 = client.epoch_file_list().files
        assert p1 != p2

    def test_reads_in_plan_order_are_correct_and_mostly_local(self, deployment):
        client, files = self._loaded_client(deployment)
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=3)

        def proc():
            for path in plan.files:
                data = yield from client.get(path)
                assert data == files[path]

        deployment.run(proc())
        # One chunk fetch per chunk; all other reads from the group cache.
        n_chunks = len(client.index.chunk_ids())
        assert client.stats.server_reads == n_chunks
        assert client.stats.local_hits == len(files) - n_chunks

    def test_working_set_bounded_by_group_size(self, deployment):
        client, files = self._loaded_client(deployment, n=48)
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=5)

        def proc():
            for path in plan.files:
                yield from client.get(path)
                assert len(client._window.chunks.entries) <= 2

        deployment.run(proc())
        assert client.working_set_bytes() <= 2 * 16 * 1024

    def test_seedless_order_is_independent_of_pythonhashseed(self):
        """A seedless epoch order derives from the dataset name through a
        stable hash, so two interpreters agree whatever their str-hash salt."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.bench.setups import *\n"
            "files = {f'/s/f{i:03d}': b'x' * 512 for i in range(64)}\n"
            "tb = make_testbed(1); add_diesel(tb)\n"
            "bulk_load_diesel(tb, 'ds', files, chunk_size=4096)\n"
            "c = diesel_client_with_snapshot(tb, 'ds', tb.compute_nodes[0], 'c')\n"
            "c.enable_shuffle(group_size=2)\n"
            "print(c.epoch_file_list().files)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        orders = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, text=True,
                capture_output=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": salt},
            ).stdout
            for salt in ("1", "2")
        }
        assert len(orders) == 1 and "/s/f000" in orders.pop()


class TestHousekeepingApi:
    def test_delete_purge(self, deployment):
        files = small_files(8, size=512)
        client = write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)

        def proc():
            victim = next(iter(files))
            yield from client.delete(victim)
            rewritten = yield from client.purge()
            return rewritten

        assert deployment.run(proc()) == 1

    def test_delete_dataset(self, deployment):
        client = write_dataset(deployment, "ds", small_files(5))

        def proc():
            n = yield from client.delete_dataset()
            return n

        assert deployment.run(proc()) >= 1
        assert deployment.store.list_keys() == []


class TestClose:
    def test_closed_client_rejects_everything(self, deployment):
        client = write_dataset(deployment, "ds", small_files(2))
        client.close()
        for gen_factory in (
            lambda: client.get("/img/class0/file0000.jpg"),
            lambda: client.put("/new", b"x"),
            lambda: client.flush(),
            lambda: client.stat("/"),
            lambda: client.save_meta(),
        ):
            with pytest.raises(ClosedError):
                deployment.run(gen_factory())

    def test_needs_server(self, deployment):
        from repro.core.client import DieselClient

        with pytest.raises(DieselError):
            DieselClient(deployment.env, deployment.client_nodes[0], [], "ds")


class TestSyncFacade:
    def test_sync_workflow(self, deployment):
        client = deployment.new_client(
            "ds", config=DieselConfig(chunk_size=4096)
        )
        sync = SyncDieselClient(client)
        sync.put("/a", b"alpha")
        sync.put("/b", b"beta")
        sync.flush()
        assert sync.get("/a") == b"alpha"
        blob = sync.save_meta()
        idx = sync.load_meta(blob)
        assert idx.file_count == 2
        assert sync.stat("/b")["size"] == 4
        assert sync.ls("/") == ["/a", "/b"]
        sync.enable_shuffle(group_size=1)
        plan = sync.epoch_file_list(seed=0)
        assert sorted(plan.files) == ["/a", "/b"]
        sync.close()
        with pytest.raises(ClosedError):
            sync.get("/a")
