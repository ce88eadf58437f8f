"""Tests for the experiment runner CLI."""

import pytest

from repro.bench import runner
from repro.bench.claims import CLAIMS, Claim
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.errors import ReproError


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_no_args_is_usage_error(self, capsys):
        assert runner.main([]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert runner.main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_one_experiment(self, capsys):
        # table2 is the fastest artifact (~10ms).
        assert runner.main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "files_per_s" in out
        assert out.count("claim ✓") == 3 and "claim ✗" not in out

    def test_runs_multiple(self, capsys):
        assert runner.main(["table2", "fig10b"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Fig 10b" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        def boom():
            raise ReproError("injected")

        monkeypatch.setitem(ALL_EXPERIMENTS, "table2", boom)
        assert runner.main(["table2", "fig10b"]) == 1
        captured = capsys.readouterr()
        assert "table2 FAILED" in captured.err
        assert "Fig 10b" in captured.out  # the run went on

    def test_a_failed_consistency_check_is_reported(self, capsys, monkeypatch):
        def inconsistent():
            raise AssertionError("variants disagree")

        monkeypatch.setitem(ALL_EXPERIMENTS, "table2", inconsistent)
        assert runner.main(["table2"]) == 1
        assert "variants disagree" in capsys.readouterr().err

    def test_a_failed_claim_fails_the_run(self, capsys, monkeypatch):
        def wrong(result):
            return [Claim("table2 reads 1 GB/s", "35.7k", False),
                    Claim("table2 has rows", "7", True)]

        monkeypatch.setitem(CLAIMS, "table2", wrong)
        assert runner.main(["table2", "fig10b"]) == 1
        out = capsys.readouterr().out
        assert "claim ✗ table2 reads 1 GB/s: 35.7k" in out
        assert "claim ✓ table2 has rows" in out
        assert "Fig 10b" in out  # the run went on

    def test_a_bug_in_an_experiment_propagates(self, monkeypatch):
        def typo():
            raise TypeError("injected")

        monkeypatch.setitem(ALL_EXPERIMENTS, "table2", typo)
        with pytest.raises(TypeError, match="injected"):
            runner.main(["table2"])

    def test_csv_export(self, capsys, tmp_path):
        out_dir = tmp_path / "csvs"
        assert runner.main(["table2", "fig10b", "--csv", str(out_dir)]) == 0
        t2 = out_dir / "table2.csv"
        assert t2.exists()
        import csv as csv_mod

        with t2.open() as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 7  # one row per Table 2 file size
        assert "files_per_s" in rows[0]
        assert float(rows[0]["file_size"]) == 1024
        assert (out_dir / "fig10b.csv").exists()
