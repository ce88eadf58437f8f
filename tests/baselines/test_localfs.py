"""Tests for the local XFS model."""

import pytest

from repro.baselines import LocalXfs
from repro.cluster import Node
from repro.sim import Environment, run_sync


def make_fs():
    env = Environment()
    node = Node(env, "local")
    return env, LocalXfs(env, node)


class TestLocalXfs:
    def test_write_read(self):
        env, fs = make_fs()
        fs.write_file("/d/a", b"hello")
        assert run_sync(env, fs.stat("/d/a"))["size"] == 5

    def test_readdir(self):
        env, fs = make_fs()
        fs.write_file("/d/a", b"")
        fs.write_file("/d/b", b"")

        def proc(env):
            entries = yield from fs.readdir("/d")
            return entries

        assert run_sync(env, proc(env)) == ["/d/a", "/d/b"]

    def test_stat(self):
        env, fs = make_fs()
        fs.write_file("/f", b"123")

        def proc(env):
            st_f = yield from fs.stat("/f")
            st_d = yield from fs.stat("/")
            return st_f, st_d

        st_f, st_d = run_sync(env, proc(env))
        assert st_f == {"path": "/f", "is_dir": False, "size": 3}
        assert st_d["is_dir"] is True

    def test_stat_missing(self):
        env, fs = make_fs()

        def proc(env):
            yield from fs.stat("/ghost")

        with pytest.raises(FileNotFoundError):
            run_sync(env, proc(env))

    def test_ls_recursive_counts_all(self):
        env, fs = make_fs()
        for i in range(10):
            fs.write_file(f"/ds/c{i % 2}/f{i}", b"x")

        def proc(env):
            n = yield from fs.ls_recursive("/ds")
            return n

        assert run_sync(env, proc(env)) == 12  # 2 class dirs + 10 files

    def test_lsl_costs_more_than_ls(self):
        env, fs = make_fs()
        for i in range(100):
            fs.write_file(f"/ds/f{i}", b"x")

        def timed(env, with_sizes):
            t0 = env.now
            yield from fs.ls_recursive("/ds", with_sizes=with_sizes)
            return env.now - t0

        t_plain = run_sync(env, timed(env, False))
        t_sizes = run_sync(env, timed(env, True))
        assert t_sizes > t_plain
