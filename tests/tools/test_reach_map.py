"""scripts/reach_map.py: a def is charged to the scenarios that ran it,
and the classes follow from the scenario kinds."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
    # The id's claims are judged on its result, as the runner judges them.
    assert defs["repro/bench/claims.py::_latency"] == ["latency"]
    # Known by the AST walk, run by no scenario named.
    assert defs["repro/bench/experiments.py::fig_faults"] == []
    assert "repro/bench/experiments.py::fig_faults" in reach["unreached"]
    assert "(b)" in run.stdout and "(c)" in run.stdout


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
