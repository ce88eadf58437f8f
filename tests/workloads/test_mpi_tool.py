"""Tests for the MPI-style concurrent I/O tool (§6.1)."""

import pytest

from repro.bench.setups import (
    add_diesel,
    add_lustre,
    add_memcached,
    diesel_client_with_snapshot,
    make_testbed,
)
from repro.core.client import DieselClient
from repro.workloads.mpi_tool import (
    DieselBackend,
    LustreBackend,
    MemcachedBackend,
    MpiIoTool,
)

PATHS = [f"/mpi/f{i:04d}.bin" for i in range(48)]


def diesel_tool(n_nodes=4, ranks_per_node=2):
    tb = make_testbed(n_compute=n_nodes)
    add_diesel(tb)
    rank_nodes = [tb.compute_nodes[r % n_nodes]
                  for r in range(n_nodes * ranks_per_node)]
    clients = [
        DieselClient(tb.env, node, tb.diesel_servers, "mpi",
                     name=f"rank{r}", rank=r)
        for r, node in enumerate(rank_nodes)
    ]
    tool = MpiIoTool(tb.env, DieselBackend(clients), rank_nodes, PATHS,
                     file_size=2048)
    return tb, tool


class TestAssignment:
    def test_even_division(self):
        tb, tool = diesel_tool()
        sizes = [len(tool.assignment(r)) for r in range(tool.n_ranks)]
        assert sum(sizes) == len(PATHS)
        assert max(sizes) - min(sizes) <= 1

    def test_assignments_partition_paths(self):
        tb, tool = diesel_tool()
        seen = [p for r in range(tool.n_ranks) for p in tool.assignment(r)]
        assert sorted(seen) == sorted(PATHS)

    def test_needs_ranks(self):
        tb, _ = diesel_tool()
        with pytest.raises(ValueError):
            MpiIoTool(tb.env, None, [], PATHS)


class TestDieselRoundtrip:
    def test_write_then_read_verifies_clean(self):
        tb, tool = diesel_tool()
        w = tool.run_write_phase()
        assert w.files == len(PATHS)
        assert w.files_per_s > 0
        r = tool.run_read_phase()
        assert r.clean
        assert r.verified_ok == len(PATHS)

    def test_read_detects_corruption(self):
        tb, tool = diesel_tool()
        tool.run_write_phase()
        # Corrupt one stored chunk payload byte (past the header).
        key = tb.store.list_keys()[0]
        blob = bytearray(tb.store.peek(key))
        blob[-1] ^= 0xFF
        tb.store.load([(key, bytes(blob))])
        r = tool.run_read_phase()
        assert r.corrupted >= 1
        assert not r.clean

    def test_shuffled_and_sequential_read_same_verification(self):
        tb, tool = diesel_tool()
        tool.run_write_phase()
        assert tool.run_read_phase(shuffled=True).clean
        assert tool.run_read_phase(shuffled=False).clean


class TestLustreBackend:
    def test_roundtrip(self):
        tb = make_testbed(n_compute=2)
        fs = add_lustre(tb)
        rank_nodes = [tb.compute_nodes[r % 2] for r in range(4)]
        tool = MpiIoTool(tb.env, LustreBackend(fs), rank_nodes, PATHS,
                         file_size=1024)
        tool.run_write_phase()
        r = tool.run_read_phase()
        assert r.clean and r.verified_ok == len(PATHS)


class TestMemcachedBackend:
    def test_roundtrip_and_missing_on_failure(self):
        tb = make_testbed(n_compute=6)
        mc = add_memcached(tb, n_servers=4)
        rank_nodes = [tb.compute_nodes[4 + (r % 2)] for r in range(4)]
        tool = MpiIoTool(tb.env, MemcachedBackend(mc), rank_nodes, PATHS,
                         file_size=1024)
        tool.run_write_phase()
        assert tool.run_read_phase().clean
        # Kill one server: its keys read as missing, counted not hidden.
        mc.kill_server("memcached0")
        r = tool.run_read_phase()
        assert r.missing > 0
        assert r.verified_ok + r.missing == len(PATHS)


class TestThroughputComparison:
    def test_diesel_writes_faster_than_lustre(self):
        """The tool reproduces the Fig 9 ordering on a tiny workload."""
        tb, tool = diesel_tool()
        w_diesel = tool.run_write_phase()

        tb2 = make_testbed(n_compute=4)
        fs = add_lustre(tb2)
        rank_nodes = [tb2.compute_nodes[r % 4] for r in range(8)]
        w_lustre = MpiIoTool(
            tb2.env, LustreBackend(fs), rank_nodes, PATHS, file_size=2048
        ).run_write_phase()
        assert w_diesel.files_per_s > 5 * w_lustre.files_per_s
