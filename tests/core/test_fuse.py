"""Tests for the FUSE facade (§5)."""

import pytest

from repro.core.fuse import FuseMount, mount
from repro.errors import ClosedError, DieselError, InterruptError, NodeDownError

from tests.core.conftest import build_deployment, small_files, write_dataset


def setup_mount(deployment, n_clients=2, n_files=12):
    files = small_files(n_files)
    writer = write_dataset(deployment, "ds", files)

    def load(c):
        blob = yield from c.save_meta()
        yield from c.load_meta(blob)

    clients = [writer]
    deployment.run(load(writer))
    for _ in range(n_clients - 1):
        c = deployment.new_client("ds")
        deployment.run(load(c))
        clients.append(c)
    return mount(clients), files


class TestMount:
    def test_needs_clients(self):
        with pytest.raises(DieselError):
            FuseMount([])

    def test_mixed_datasets_rejected(self, deployment):
        write_dataset(deployment, "a", {"/x": b"1"})
        write_dataset(deployment, "b", {"/y": b"2"})
        ca = deployment.new_client("a")
        cb = deployment.new_client("b")
        with pytest.raises(DieselError):
            FuseMount([ca, cb])

    def test_read_roundtrip(self, deployment):
        m, files = setup_mount(deployment)
        path = next(iter(files))

        def proc():
            data = yield from m.read_file(path)
            return data

        assert deployment.run(proc()) == files[path]
        assert m.stats.reads == 1
        assert m.stats.crossings >= 3  # open + read + data crossings

    def test_getattr_and_readdir(self, deployment):
        m, files = setup_mount(deployment)

        def proc():
            info = yield from m.getattr(next(iter(files)))
            entries = yield from m.readdir("/img")
            return info, entries

        info, entries = deployment.run(proc())
        assert info["size"] == 4096
        assert len(entries) == 4  # four class dirs

    def test_exists(self, deployment):
        m, files = setup_mount(deployment)

        def proc():
            yes = yield from m.exists(next(iter(files)))
            no = yield from m.exists("/ghost")
            return yes, no

        assert deployment.run(proc()) == (True, False)

    def test_exists_over_the_server_path(self, deployment):
        """No snapshot loaded: stat is an RPC, absent is still False."""
        files = small_files(4)
        write_dataset(deployment, "ds", files)
        m = mount([deployment.new_client("ds")])

        def proc():
            yes = yield from m.exists(next(iter(files)))
            no = yield from m.exists("/ghost")
            return yes, no

        assert deployment.run(proc()) == (True, False)

    def test_exists_against_a_dead_server_raises(self, deployment):
        """A dead server is not "no such file"."""
        files = small_files(4)
        write_dataset(deployment, "ds", files)
        m = mount([deployment.new_client("ds")])
        deployment.server.node.kill()
        with pytest.raises(NodeDownError):
            deployment.run(m.exists(next(iter(files))))

    def test_exists_on_a_closed_client_raises(self, deployment):
        m, files = setup_mount(deployment, n_clients=1)
        m.clients[0].close()
        with pytest.raises(ClosedError):
            deployment.run(m.exists(next(iter(files))))

    def test_interrupt_during_exists_propagates(self, deployment):
        """An interrupted caller must not resume as if the file were
        absent."""
        m, files = setup_mount(deployment)
        env = deployment.env
        outcome = []

        def caller():
            try:
                outcome.append((yield from m.exists(next(iter(files)))))
            except InterruptError:
                outcome.append("interrupted")

        def interrupter(victim):
            yield env.timeout(0)  # the victim is blocked in the crossing
            victim.interrupt("cancelled")

        victim = env.process(caller())
        env.process(interrupter(victim))
        env.run()
        assert outcome == ["interrupted"]

    def test_ls_recursive_counts(self, deployment):
        m, files = setup_mount(deployment, n_files=12)

        def proc():
            n = yield from m.ls_recursive("/", with_sizes=True)
            return n

        # /img + 4 class dirs + 12 files
        assert deployment.run(proc()) == 1 + 4 + 12

    def test_round_robin_over_clients(self, deployment):
        m, files = setup_mount(deployment, n_clients=3)

        def proc():
            for path in files:
                yield from m.read_file(path)

        deployment.run(proc())
        gets = [c.stats.gets for c in m.clients]
        assert all(g > 0 for g in gets)
        assert max(gets) - min(gets) <= 1


class TestFuseOverhead:
    def test_fuse_slower_than_api_but_not_too_much(self, deployment):
        """Fig 11a: FUSE ≈ 60-85 % of the native API's throughput."""
        m, files = setup_mount(deployment, n_clients=1)
        client = m.clients[0]
        paths = list(files)

        def time_api():
            t0 = deployment.env.now
            for p in paths:
                yield from client.get(p)
            return deployment.env.now - t0

        def time_fuse():
            t0 = deployment.env.now
            for p in paths:
                yield from m.read_file(p)
            return deployment.env.now - t0

        t_api = deployment.run(time_api())
        t_fuse = deployment.run(time_fuse())
        assert t_fuse > t_api
        assert t_api / t_fuse > 0.4  # same order of magnitude

    def test_crossings_scale_with_read_size(self, deployment):
        big = b"Z" * (512 * 1024)
        writer = write_dataset(deployment, "ds", {"/big": big})

        def load():
            blob = yield from writer.save_meta()
            yield from writer.load_meta(blob)

        deployment.run(load())
        m = mount([writer])

        def proc():
            data = yield from m.read_file("/big")
            return data

        assert deployment.run(proc()) == big
        # 512 KiB / 128 KiB max_read = 4 crossings + open/read overhead.
        assert m.stats.crossings >= 4 + 2


class TestMountLifecycle:
    def test_unmount_closes_clients_and_blocks_ops(self, deployment):
        m, files = setup_mount(deployment)
        m.unmount()
        assert all(c._closed for c in m.clients)

        def proc():
            yield from m.read_file(next(iter(files)))

        with pytest.raises(DieselError):
            deployment.run(proc())

    def test_unmount_idempotent(self, deployment):
        m, _ = setup_mount(deployment)
        m.unmount()
        m.unmount()  # no error
        assert all(c._closed for c in m.clients)


class TestStatUploadTime:
    def test_upload_time_from_chunk_id(self, deployment):
        m, files = setup_mount(deployment)

        def proc():
            info = yield from m.getattr(next(iter(files)))
            return info

        info = deployment.run(proc())
        # Ingest happened at simulated t≈0: the chunk ID's embedded
        # creation second is 0.
        assert info["upload_time"] == 0
        assert info["chunk_id"] is not None

    def test_upload_time_tracks_write_time(self, deployment):
        deployment.env.run(until=deployment.env.now + 120)
        files = small_files(3)
        client = write_dataset(deployment, "late", files)

        def proc():
            info = yield from client.stat(next(iter(files)))
            return info

        info = deployment.run(proc())
        assert info["upload_time"] >= 120

    def test_directory_has_no_upload_time(self, deployment):
        m, files = setup_mount(deployment)

        def proc():
            info = yield from m.getattr("/img")
            return info

        assert deployment.run(proc())["upload_time"] is None
