"""Tests for the DLCMD command-line tool."""

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
        assert run(tmp_path, "stats", "-n", "2") == 0
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
