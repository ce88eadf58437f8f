"""Tests for the Lustre baseline model."""

import pytest

from repro.baselines import LustreFS
from repro.calibration import LustreProfile
from repro.cluster import NetworkFabric, Node
from repro.cluster.devices import Device
from repro.errors import FileExistsInDatasetError, FileNotFoundInDatasetError
from repro.sim import Environment, run_sync


def make_lustre(n_mds=1, dne="none", profile=None):
    env = Environment()
    fabric = NetworkFabric(env)
    mds_nodes = [fabric.add_node(Node(env, f"mds{i}")) for i in range(n_mds)]
    client = fabric.add_node(Node(env, "client"))
    oss = Device(env, "oss", per_op_s=60e-6, bandwidth_bps=2.2 * 2**30, queue_depth=32)
    fs = LustreFS(env, fabric, mds_nodes, oss, profile=profile, dne=dne)
    return env, fs, client


class TestFunctional:
    def test_write_read_roundtrip(self):
        env, fs, client = make_lustre()

        def proc(env):
            yield from fs.write_file(client, "/data/a.jpg", b"JPEG-BYTES")
            data = yield from fs.read_file(client, "/data/a.jpg")
            return data

        assert run_sync(env, proc(env)) == b"JPEG-BYTES"

    def test_duplicate_create_rejected(self):
        env, fs, client = make_lustre()

        def proc(env):
            yield from fs.write_file(client, "/a", b"1")
            yield from fs.write_file(client, "/a", b"2")

        with pytest.raises(FileExistsInDatasetError):
            run_sync(env, proc(env))

    def test_read_missing_raises(self):
        env, fs, client = make_lustre()

        def proc(env):
            yield from fs.read_file(client, "/nope")

        with pytest.raises(FileNotFoundInDatasetError):
            run_sync(env, proc(env))

    def test_readdir_lists_children(self):
        env, fs, client = make_lustre()

        def proc(env):
            yield from fs.write_file(client, "/d/x", b"")
            yield from fs.write_file(client, "/d/y", b"")
            yield from fs.write_file(client, "/d/sub/z", b"")
            entries = yield from fs.readdir(client, "/d")
            return entries

        assert run_sync(env, proc(env)) == ["/d/sub", "/d/x", "/d/y"]

    def test_stat_with_and_without_size(self):
        env, fs, client = make_lustre()

        def proc(env):
            yield from fs.write_file(client, "/f", b"12345")
            quick = yield from fs.stat(client, "/f", with_size=False)
            full = yield from fs.stat(client, "/f", with_size=True)
            return quick, full

        quick, full = run_sync(env, proc(env))
        assert quick["size"] is None  # size lives on the OSS
        assert full["size"] == 5

    def test_ls_recursive_counts(self):
        env, fs, client = make_lustre()

        def proc(env):
            for i in range(3):
                yield from fs.write_file(client, f"/root/c{i}/file", b"x")
            n = yield from fs.ls_recursive(client, "/root")
            return n

        # /root has 3 dirs; each dir has 1 file: 6 entries.
        assert run_sync(env, proc(env)) == 6


class TestCostModel:
    def test_small_writes_are_mds_bound(self):
        """Concurrent small-file writes saturate at roughly mds_qps/create_ops."""
        prof = LustreProfile(mds_qps=1000.0, create_mds_ops=2.0)
        env, fs, client = make_lustre(profile=prof)
        n_writers, per_writer = 64, 5

        def writer(env, w):
            for i in range(per_writer):
                yield from fs.write_file(client, f"/d/w{w}-f{i}", b"x" * 4096)

        procs = [env.process(writer(env, w)) for w in range(n_writers)]
        env.run(until=env.all_of(procs))
        total_files = n_writers * per_writer
        rate = total_files / env.now
        # Expected ceiling: 1000 MDS ops/s / 2 ops per create = 500 files/s.
        assert rate == pytest.approx(500, rel=0.25)

    def test_ls_lr_much_slower_than_ls_r(self):
        """Fig 10c: sizes-on-OSS make ls -lR several times slower."""
        env, fs, client = make_lustre()

        def populate(env):
            for i in range(200):
                yield from fs.write_file(client, f"/ds/c{i % 10}/f{i}", b"x")

        run_sync(env, populate(env))

        def timed_ls(env, with_sizes):
            t0 = env.now
            yield from fs.ls_recursive(client, "/ds", with_sizes=with_sizes)
            return env.now - t0

        t_plain = run_sync(env, timed_ls(env, False))
        t_sizes = run_sync(env, timed_ls(env, True))
        assert t_sizes > 3 * t_plain


class TestDne:
    def test_dne_requires_mode_for_multiple_mdts(self):
        with pytest.raises(ValueError):
            make_lustre(n_mds=2, dne="none")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            make_lustre(n_mds=2, dne="dne9")

    def test_dne1_pins_directory_to_one_mdt(self):
        """All files in one directory hit the same MDT (the §2.2 hotspot)."""
        env, fs, client = make_lustre(n_mds=4, dne="dne1")

        def proc(env):
            for i in range(40):
                yield from fs.write_file(client, f"/hot/f{i}", b"")

        run_sync(env, proc(env))
        calls = [m.stats.calls for m in fs._mdts]
        assert sum(1 for c in calls if c > 0) == 1

    def test_dne2_stripes_entries(self):
        """DNE2 spreads per-file ops over MDTs but readdir hits all."""
        env, fs, client = make_lustre(n_mds=4, dne="dne2")

        def proc(env):
            for i in range(40):
                yield from fs.write_file(client, f"/hot/f{i}", b"")

        run_sync(env, proc(env))
        create_calls = [m.stats.calls for m in fs._mdts]
        assert sum(1 for c in create_calls if c > 0) >= 3

        def lsproc(env):
            entries = yield from fs.readdir(client, "/hot")
            return entries

        entries = run_sync(env, lsproc(env))
        assert len(entries) == 40
        # readdir visited every MDT stripe.
        assert all(m.stats.calls > 0 for m in fs._mdts)

    def test_dne1_distributes_different_directories(self):
        env, fs, client = make_lustre(n_mds=4, dne="dne1")

        def proc(env):
            for d in range(16):
                yield from fs.write_file(client, f"/dir{d}/f", b"")

        run_sync(env, proc(env))
        used = sum(1 for m in fs._mdts if m.stats.calls > 0)
        assert used >= 3

