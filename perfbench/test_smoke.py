"""Smoke test of the benchmark itself (not collected by tier-1).

Run as ``PYTHONPATH=src python -m pytest perfbench -q``.  Every workload
runs at ``--scale tiny``; the whole file takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

from perfbench.compare import compare
from perfbench.harness import run_workload
from perfbench.metrics import (
    BY_NAME, END_TO_END, PER_LAYER, SHARE_LAYERS, WORKLOADS, manifest,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def runs():
    """name -> (untraced, untraced again, traced) at tiny scale."""
    return {
        name: (
            run_workload(name, 0, 0, scale="tiny"),
            run_workload(name, 0, 0, scale="tiny"),
            run_workload(name, 0, 0, trace=True, scale="tiny"),
        )
        for name in WORKLOADS
    }


def test_benchmark_json_is_the_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == manifest()


def test_readme_is_the_metric_dictionary():
    with open(os.path.join(ROOT, "perfbench", "README.md")) as fh:
        text = fh.read()
    for m in [*END_TO_END, *PER_LAYER]:
        assert f"`{m.name}`" in text, m.name
    for name in WORKLOADS:
        assert f"**`{name}`**" in text


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(runs, name):
    plain, _, traced = runs[name]
    assert list(plain["end_to_end"]) == [m.name for m in END_TO_END]
    assert set(traced["per_layer"]) == {m.name for m in PER_LAYER}
    assert set(plain["per_layer"]) == {
        m.name for m in PER_LAYER if not m.traced_only}
    for run in (plain, traced):
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            for metric, m in run[section].items():
                assert m["unit"] == BY_NAME[metric].unit
                assert math.isfinite(m["value"])
    for m in plain["end_to_end"].values():
        assert m["value"] > 0  # the contract: end-to-end metrics are never 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sim_figures_repeat_exactly(runs, name):
    first, second, traced = runs[name]

    def sim(run, section):
        return {k: m["value"] for k, m in run[section].items()
                if BY_NAME[k].clock == "sim"}

    assert sim(first, "end_to_end") == sim(second, "end_to_end")
    assert sim(first, "per_layer") == sim(second, "per_layer")
    assert first["attempted"] == second["attempted"]
    # Tracing observes; it must not move the simulation.
    assert sim(traced, "end_to_end") == sim(first, "end_to_end")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_host_shares_sum_to_one(runs, name):
    traced = runs[name][2]["per_layer"]
    shares = [traced[f"{layer}.host_share"]["value"]
              for layer in SHARE_LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert traced["trace.samples"]["value"] > 0


@pytest.mark.parametrize("name,fault", [
    ("cached_epoch", "corrupt"),  # a proxy flips one byte of one payload
    ("cached_epoch", "missing"),  # a read of a file that was never loaded
    ("ingest_meta", "missing"),   # a stat of a file that was never put
])
def test_the_verifier_can_fail(name, fault):
    result = run_workload(name, 0, 0, scale="tiny", fault=fault)
    assert result["failed"] == 1
    assert result["failed_op_frac"] > 0
    assert not result["correct"]


def _merged(runs, sha="abc"):
    return {
        "header": {"git_sha": sha, "git_dirty": False, "seed": 0,
                   "scale": "tiny"},
        "workloads": {
            name: {"untraced": plain, "traced": traced}
            for name, (plain, _, traced) in runs.items()
        },
    }


def test_compare_accepts_a_rerun_and_rejects_a_regression(runs, capsys):
    a = _merged(runs)
    b = copy.deepcopy(a)
    for name, (_, second, _) in runs.items():
        b["workloads"][name]["untraced"] = copy.deepcopy(second)
        # Tiny blocks are too short for the host bounds; only the sim
        # identity and the bound arithmetic are under test here.
        for m in END_TO_END:
            if m.clock == "host":
                b["workloads"][name]["untraced"]["end_to_end"][m.name] = (
                    a["workloads"][name]["untraced"]["end_to_end"][m.name])
    assert compare(a, b) == []

    slower = copy.deepcopy(b)
    e2e = slower["workloads"]["stream_epoch"]["untraced"]["end_to_end"]
    e2e["host_us_per_op"]["value"] *= 1.5
    assert any("host_us_per_op" in v for v in compare(a, slower))

    drifted = copy.deepcopy(b)
    drifted["workloads"]["ingest_meta"]["untraced"]["per_layer"][
        "kvstore.keys"]["value"] += 1
    assert any("kvstore.keys" in v for v in compare(a, drifted))
    # Different commits: counters may move, only the bounds apply.
    drifted["header"]["git_sha"] = "def"
    assert compare(a, drifted) == []
    capsys.readouterr()


def test_command_line_contract():
    """The last stdout line is the JSON object the driver parses."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
        out = subprocess.run(
            [sys.executable, "-m", "perfbench", "--workload", "cached_epoch",
             "--seed", "7", "--seconds", "0", "--trace", str(trace),
             "--scale", "tiny"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=120,
        ).stdout
        last = json.loads(out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert list(last["metrics"]) == [m.name for m in wanted]
        for m in last["metrics"].values():
            assert set(m) == {"value", "unit"}
