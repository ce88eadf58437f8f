"""scripts/reach_map.py: a def is charged to the scenarios that ran it,
and the classes follow from the scenario kinds."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import runner

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "reach_map.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reach_map", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_id_attributes_what_it_ran(tmp_path):
    out = tmp_path / "reach.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "latency", "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    reach = json.loads(out.read_text())
    assert set(reach["scenarios"]) == {"(import)", "latency"}
    defs = reach["defs"]
    assert defs["repro/bench/experiments.py::latency_breakdown"] == ["latency"]
    assert defs["repro/core/client.py::DieselClient.get"] == ["latency"]
    # The id runs through the runner CLI: its claims judged, its rows
    # written as CSV and JSON.
    assert defs["repro/bench/claims.py::_latency"] == ["latency"]
    assert defs["repro/bench/runner.py::write_csv"] == ["latency"]
    assert defs["repro/bench/reporting.py::write_json"] == ["latency"]
    # Known by the AST walk, run by no scenario named.
    assert defs["repro/bench/experiments.py::fig_faults"] == []
    assert "repro/bench/experiments.py::fig_faults" in reach["unreached"]
    assert "(b)" in run.stdout and "(c)" in run.stdout


def test_a_failed_run_fails_the_scenario(monkeypatch):
    monkeypatch.setattr(runner, "main", lambda argv: 1)
    with pytest.raises(RuntimeError, match="latency failed under the runner"):
        load_script().run_and_judge("latency")


def test_classes_follow_the_scenario_kinds():
    reach_map = load_script()
    experiments = {"fig6": None, "latency": None, "faults": None}
    classes = reach_map.classify({
        "x.py::paper": ["fig6", "faults"],
        "x.py::workload": ["cached_epoch"],
        "x.py::one_showcase": ["faults"],
        "x.py::two_showcases": ["faults", "latency"],
        "x.py::nobody": [],
    }, experiments)
    assert classes == {
        "a": ["x.py::paper", "x.py::workload"],
        "b": ["x.py::one_showcase"],
        "showcases": ["x.py::two_showcases"],
        "c": ["x.py::nobody"],
    }
