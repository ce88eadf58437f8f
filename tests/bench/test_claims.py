"""Every experiment's claims hold on its committed BENCH rows, and bind.

A claim reads only ``result.rows``, so the committed ``BENCH_<id>.json``
files are judged here as the runner judges a live run.  For each of
them one perturbed row value must make some claim fail: a claim that
no row change can trip guards nothing.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import ExperimentResult

ROOT = Path(__file__).resolve().parents[2]

#: id -> (row index, column, value) that breaks one of its claims.
PERTURB = {
    "capacity": (0, "lost_chunks", 1),
    "fanout": (0, "duplicate_reads", 1),
    "faults": (1, "failed_reads", 1),
    "ingest": (0, "server_ingests", 23),
    "latency": (0, "get_server_n", 2),
    "locality": (1, "duplicate_backend_fetches", 1),
    "metaplane": (1, "bit_identical", False),
    "prefetch": (3, "prefetch_misses", 1),
    "scale": (1, "reads", 999_999),
    "sharing": (0, "warm_ratio", 0.5),
}


def committed(name):
    bench = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    return ExperimentResult(
        bench["name"], bench["paper_ref"], bench["rows"], bench["notes"]
    )


def failed(name, result):
    return [c.text for c in CLAIMS[name](result) if not c.ok]


def test_every_experiment_has_claims():
    assert sorted(CLAIMS) == sorted(ALL_EXPERIMENTS)


def test_every_committed_bench_file_has_a_perturbation():
    names = sorted(p.name[len("BENCH_"):-len(".json")]
                   for p in ROOT.glob("BENCH_*.json"))
    assert names == sorted(PERTURB)


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_claims_hold_on_the_committed_rows(name):
    assert failed(name, committed(name)) == []


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_a_perturbed_row_fails_a_claim(name):
    result = committed(name)
    index, column, value = PERTURB[name]
    rows = copy.deepcopy(result.rows)
    assert column in rows[index] and rows[index][column] != value
    rows[index][column] = value
    result.rows = rows
    assert failed(name, result) != []
