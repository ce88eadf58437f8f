#!/usr/bin/env python3
"""Parent/change pairs of one perfbench workload, as a markdown table.

Runs ``python3 -m perfbench --workload W --seed N --seconds S --trace 0``
once in each of two checkouts per seed, alternating which side goes
first, and prints the table EXPERIMENTS.md uses for a claimed gain: per
end-to-end metric each side's median [q1, q3], how many pairs the change
won, how many tied, and the distance between the medians beside the
parent's inter-quartile distance (choosing-metrics §8: a gain needs
nine tenths of the pairs and a median shift larger than that distance).
A second table lists every pair.

Each checkout is measured with its own ``perfbench/``; which way a
metric is better comes from ``CHANGE_DIR/BENCHMARK.json``.  Nothing is
imported from either tree.

Exit status: 0; 1 when a run reported failed ops or ``correct: false``,
or when a ``--must-tie`` metric differed within a pair (the CI smoke
runs one checkout against itself, where every sim-clock metric has to
repeat).

Usage::

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds 1-10 [--seconds S] [--scale tiny] [--must-tie M[,M...]]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"3"`` or ``"1,4,7-9"`` -> the seeds, in order."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             scale: str) -> dict:
    """One untraced run in ``checkout``; the JSON on its last stdout line."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--scale", scale],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"perfbench failed in {checkout} (seed {seed}): "
            f"exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def _num(x: float) -> str:
    return f"{x:.4g}"


def _value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def table(workload: str, metrics: list[dict], parent: list[dict],
          change: list[dict]) -> list[str]:
    """The markdown rows; ``parent[i]`` and ``change[i]`` are one pair."""
    n = len(parent)
    lines = [
        f"| metric (`{workload}`, {n} pairs) | parent median [q1, q3] "
        "| change median [q1, q3] | change better | ties "
        "| median shift / parent IQR |",
        "|---|---|---|---|---|---|",
    ]
    for m in metrics:
        name = m["name"]
        a = [_value(run, name) for run in parent]
        b = [_value(run, name) for run in change]
        sign = -1.0 if m["better"] == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        (ma, a1, a3), (mb, b1, b3) = quartiles(a), quartiles(b)
        shift = f"{(mb - ma) / ma:+.1%}" if ma else _num(mb - ma)
        lines.append(
            f"| `{name}` ({m['unit']}) "
            f"| {_num(ma)} [{_num(a1)}, {_num(a3)}] "
            f"| {_num(mb)} [{_num(b1)}, {_num(b3)}] "
            f"| {wins}/{n} | {ties} "
            f"| {shift} ({_num(abs(mb - ma))} / {_num(a3 - a1)}) |"
        )
    return lines


def pair_rows(seeds: list[int], metrics: list[dict], parent: list[dict],
              change: list[dict]) -> list[str]:
    """Every run made: one row per pair, ``parent -> change`` per metric."""
    names = [m["name"] for m in metrics]
    lines = [
        "| seed | ran first | " + " | ".join(f"`{n}`" for n in names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for i, (seed, a, b) in enumerate(zip(seeds, parent, change)):
        cells = [
            f"{_num(_value(a, n))} -> {_num(_value(b, n))}" for n in names
        ]
        first = "parent" if i % 2 == 0 else "change"
        lines.append(f"| {seed} | {first} | " + " | ".join(cells) + " |")
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of CHANGE_DIR/BENCHMARK.json")
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--must-tie", default="", metavar="M[,M...]",
                    help="metrics that have to be equal within every pair")
    args = ap.parse_args(argv)

    contract = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    metrics = contract["end_to_end"]
    seconds = args.seconds or contract["run_seconds"]
    must_tie = [m for m in args.must_tie.split(",") if m]
    unknown = set(must_tie) - {m["name"] for m in metrics}
    if unknown:
        ap.error(f"--must-tie: not end-to-end metrics: {sorted(unknown)}")

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            print(f"seed {seed}: {side} ...", file=sys.stderr, flush=True)
            runs[side].append(run_once(
                sides[side], args.workload, seed, seconds, args.scale))

    print("\n".join(
        table(args.workload, metrics, runs["parent"], runs["change"])))
    print()
    print("\n".join(
        pair_rows(args.seeds, metrics, runs["parent"], runs["change"])))
    status = 0
    for side, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{side}: {failed}/{attempted} ops failed, "
              f"correct: {str(correct).lower()}", end="")
        if failed or not correct:
            status = 1
    print()
    for name in must_tie:
        for seed, a, b in zip(args.seeds, runs["parent"], runs["change"]):
            va, vb = _value(a, name), _value(b, name)
            if va != vb:
                print(f"{name} differs on seed {seed}: {va!r} vs {vb!r}")
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
