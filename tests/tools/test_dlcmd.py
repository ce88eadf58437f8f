"""Tests for the DLCMD command-line tool."""

import hashlib

import pytest

from repro.tools import dlcmd


def run(tmp_path, *argv, dataset="ds"):
    """Invoke dlcmd against a workspace in tmp_path, capturing exit code."""
    ws_file = str(tmp_path / "test.workspace")
    return dlcmd.main(["-w", ws_file, "-d", dataset, *argv])


@pytest.fixture
def local_tree(tmp_path):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "a.bin").write_bytes(b"AAAA")
    (src / "b.bin").write_bytes(b"BBBBBB")
    (src / "sub" / "c.bin").write_bytes(b"CC")
    return src


class TestDlcmd:
    def test_put_single_file_and_get(self, tmp_path, local_tree, capsys):
        assert run(tmp_path, "put", str(local_tree / "a.bin"), "/data/a.bin") == 0
        out = tmp_path / "fetched.bin"
        assert run(tmp_path, "get", "/data/a.bin", str(out)) == 0
        assert out.read_bytes() == b"AAAA"

    def test_put_directory_recursive(self, tmp_path, local_tree, capsys):
        assert run(tmp_path, "put", str(local_tree), "/tree") == 0
        captured = capsys.readouterr().out
        assert "3 file(s)" in captured
        assert run(tmp_path, "ls", "/tree") == 0
        listing = capsys.readouterr().out
        assert "a.bin" in listing and "sub" in listing

    def test_ls_long(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree / "b.bin"), "/d/b.bin")
        capsys.readouterr()
        assert run(tmp_path, "ls", "-l", "/d") == 0
        out = capsys.readouterr().out
        assert "6" in out and "b.bin" in out

    def test_stat(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree / "a.bin"), "/x/a.bin")
        capsys.readouterr()
        assert run(tmp_path, "stat", "/x/a.bin") == 0
        out = capsys.readouterr().out
        assert "size:  4" in out
        assert "chunk:" in out

    def test_rm_and_purge(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        assert run(tmp_path, "rm", "/t/a.bin") == 0
        assert run(tmp_path, "purge") == 0
        out = capsys.readouterr().out
        assert "rewrote 1 chunk" in out
        # removed file is gone; sibling survives.
        assert run(tmp_path, "get", "/t/a.bin", str(tmp_path / "x")) == 1
        assert run(tmp_path, "get", "/t/b.bin", str(tmp_path / "y")) == 0
        assert (tmp_path / "y").read_bytes() == b"BBBBBB"

    def test_save_meta(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        snap = tmp_path / "meta.snap"
        assert run(tmp_path, "save-meta", str(snap)) == 0
        from repro.core.snapshot import MetadataSnapshot

        loaded = MetadataSnapshot.deserialize(snap.read_bytes())
        assert loaded.file_count == 3

    def test_datasets_and_info(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree / "a.bin"), "/a", dataset="one")
        run(tmp_path, "put", str(local_tree / "b.bin"), "/b", dataset="two")
        capsys.readouterr()
        assert run(tmp_path, "datasets") == 0
        out = capsys.readouterr().out
        assert "one" in out and "two" in out
        assert run(tmp_path, "info") == 0
        out = capsys.readouterr().out
        assert "datasets:     2" in out

    def test_missing_source_errors(self, tmp_path, capsys):
        assert run(tmp_path, "put", str(tmp_path / "ghost"), "/x") == 1
        assert "error" in capsys.readouterr().err

    def test_get_missing_file_errors(self, tmp_path, capsys):
        assert run(tmp_path, "get", "/nope", str(tmp_path / "out")) == 1

    def test_persistence_across_invocations(self, tmp_path, local_tree, capsys):
        """Each dlcmd run is a fresh process-equivalent: state must persist."""
        run(tmp_path, "put", str(local_tree / "a.bin"), "/persist/a.bin")
        capsys.readouterr()
        # A second, completely fresh invocation sees the data.
        assert run(tmp_path, "ls", "/persist") == 0
        assert "a.bin" in capsys.readouterr().out

    def test_stats_prints_layer_table(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "-j", "2", "stats", "-n", "2") == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split()
        assert header[:2] == ["op", "layer"]
        assert "get" in out and "server" in out
        assert "rpc_get_file" in out

    def test_stats_empty_dataset_errors(self, tmp_path, capsys):
        assert run(tmp_path, "stats") == 1
        assert "error" in capsys.readouterr().err

    def test_trace_writes_chrome_json(self, tmp_path, local_tree, capsys):
        import json

        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        dest = tmp_path / "trace.json"
        assert run(tmp_path, "trace", str(dest), "-n", "3") == 0
        assert "trace events" in capsys.readouterr().out
        events = json.loads(dest.read_text())
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X"}
        # Spans carry sim-microsecond timing and a layer attribution.
        span = next(e for e in events if e["ph"] == "X")
        assert span["dur"] >= 0 and "layer" in span["args"]

    def test_bad_sample_count_errors(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree / "a.bin"), "/a.bin")
        capsys.readouterr()
        assert run(tmp_path, "stats", "-n", "0") == 1
        assert "--sample" in capsys.readouterr().err

    def test_verify_clean_workspace(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "verify") == 0
        out = capsys.readouterr().out
        assert "3 files verified, 0 problems" in out

    def test_verify_empty_dataset_errors(self, tmp_path, capsys):
        assert run(tmp_path, "verify") == 1
        assert "no such dataset" in capsys.readouterr().err

    def test_locality_compares_placements(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "locality", "-N", "2") == 0
        out = capsys.readouterr().out
        assert "placement probe: 2 task node(s)" in out
        assert "hash:" in out and "locality:" in out
        assert "local_hits" in out and "coalesced_pulls" in out
        assert "chunks per master:" in out

    def test_locality_empty_dataset_errors(self, tmp_path, capsys):
        assert run(tmp_path, "locality") == 1
        assert "no such dataset" in capsys.readouterr().err

    def test_stats_includes_locality_counters(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "stats", "-n", "2") == 0
        out = capsys.readouterr().out
        assert "task cache locality" in out
        assert "local_hits" in out and "replicated_chunks" in out

    def test_scale_probe_needs_no_workspace(self, tmp_path, capsys):
        # Pure simulation-substrate probe: runs against a nonexistent
        # workspace file and prints the two-variant comparison table.
        assert run(tmp_path, "scale", "-n", "500", "-N", "10", "-b", "16") == 0
        out = capsys.readouterr().out
        assert "engine scale" in out
        assert "per-request" in out and "batched" in out
        assert "events_per_sec" in out and "speedup" in out

    def test_scale_rejects_bad_sizes(self, tmp_path, capsys):
        assert run(tmp_path, "scale", "-n", "0") == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_tenants_probe_prints_usage_and_counters(self, tmp_path,
                                                     local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "tenants", "-N", "3") == 0
        out = capsys.readouterr().out
        assert "shared-tier probe: 3 concurrent task(s)" in out
        assert "tenant0" in out and "tenant2" in out
        assert "interactive" in out and "batch" in out
        assert "warm_admissions" in out and "qos_denied" in out
        assert "quota_rejections" in out
        assert "NO" not in out  # every tenant within quota

    def test_tenants_quota_flag_is_reported(self, tmp_path, local_tree,
                                            capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "tenants", "-N", "2", "-q", "1000000") == 0
        out = capsys.readouterr().out
        assert "976.56 KiB" in out  # the quota column, humanized

    def test_tenants_rejects_bad_args(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "tenants", "-N", "0") == 1
        assert "--tasks must be >= 1" in capsys.readouterr().err

    def test_tenants_empty_dataset_errors(self, tmp_path, capsys):
        assert run(tmp_path, "tenants") == 1
        assert "no such dataset" in capsys.readouterr().err

    def test_tiers_probe_reports_disk_overflow(self, tmp_path, local_tree,
                                               capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        # A RAM budget far below the dataset: chunks overflow to disk.
        assert run(tmp_path, "tiers", "-m", "64") == 0
        out = capsys.readouterr().out
        assert "tiered-store probe" in out
        assert "tiers-n0" in out and "tiers-n1" in out
        assert "disk admits" in out
        assert "compression off" in out

    def test_tiers_compression_summary(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "tiers", "-m", "64", "-z") == 0
        out = capsys.readouterr().out
        assert "compression on" in out
        assert "chunks compressed" in out
        assert "logical stored as" in out

    def test_tiers_rejects_bad_args(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "tiers", "-m", "0") == 1
        assert "--ram must be >= 1" in capsys.readouterr().err

    def test_meta_probe_reports_journal_and_registry(self, tmp_path,
                                                     local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        run(tmp_path, "put", str(local_tree / "a.bin"), "/a", dataset="other")
        capsys.readouterr()
        assert run(tmp_path, "meta") == 0
        out = capsys.readouterr().out
        assert "registry:         2 dataset(s)" in out
        assert "journal horizon:" in out
        # One row per dataset with version, depth and retained span.
        assert "ds" in out and "other" in out
        for line in out.splitlines():
            if line.startswith("ds "):
                assert "v" in line.split()[-1]  # span column populated

    def test_meta_probe_on_empty_workspace(self, tmp_path, capsys):
        assert run(tmp_path, "meta") == 0
        out = capsys.readouterr().out
        assert "registry:         0 dataset(s)" in out
        assert "(no datasets)" in out

    def test_chaos_probe_prints_the_operator_view(self, tmp_path, local_tree,
                                                  capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "chaos") == 0
        out = capsys.readouterr().out
        assert "chaos probe: 3 task node(s) + 1 live joiner" in out
        # Membership grew by the live joiner and records the scale event.
        assert "membership (version 1): 4 master(s)" in out
        assert "scale event" in out and "scale_up chaos-j3" in out
        assert "[NIC degraded]" in out
        # EWMA rows and hedge counters populated by the three passes.
        assert "peer latency (EWMA, slowest first):" in out
        assert "sample(s), ewma" in out
        assert "hedge counters:" in out
        assert "hedges fired" in out
        # The armed schedule with its applied window.
        assert "chaos schedule:" in out
        assert "degrade_nic:" in out
        assert "apply degrade_nic" in out

    def test_chaos_probe_single_node(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree / "a.bin"), "/a")
        capsys.readouterr()
        assert run(tmp_path, "chaos", "-N", "1") == 0
        out = capsys.readouterr().out
        assert "membership (version 1): 2 master(s)" in out

    @pytest.mark.parametrize("argv, digest", [
        (["chaos"],
         "312e20c0d742c2eeddfdb64b444fcd7750a1e6616cc0b578e6f2b5c6a0ae061c"),
        (["chaos", "-N", "1"],
         "cad0ea8be80da8deb2422c798a84b1f7b38e729b7f874f0228ed8a16cee43970"),
    ], ids=["chaos", "chaos-N1"])
    def test_chaos_operator_view_is_pinned(self, tmp_path, local_tree,
                                           capsys, argv, digest):
        """The probe is deterministic: its whole stdout, byte for byte."""
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, *argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out

    def test_chaos_rejects_bad_args(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree), "/t")
        capsys.readouterr()
        assert run(tmp_path, "chaos", "-N", "0") == 1
        assert "--nodes must be >= 1" in capsys.readouterr().err

    def test_chaos_empty_dataset_errors(self, tmp_path, local_tree, capsys):
        run(tmp_path, "put", str(local_tree / "a.bin"), "/a")
        run(tmp_path, "rm", "/a")
        capsys.readouterr()
        assert run(tmp_path, "chaos") == 1
        assert "no files to probe" in capsys.readouterr().err

    def test_chaos_does_not_mutate_the_workspace(self, tmp_path, local_tree,
                                                 capsys):
        run(tmp_path, "put", str(local_tree / "a.bin"), "/a")
        capsys.readouterr()
        ws_file = tmp_path / "test.workspace"
        before = ws_file.read_bytes()
        assert run(tmp_path, "chaos") == 0
        assert ws_file.read_bytes() == before
