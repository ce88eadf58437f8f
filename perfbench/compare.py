"""``python3 -m perfbench compare A.json B.json``.

A and B are ``result.json`` files written by ``python3 -m perfbench
run``; A is the reference.  For every workload and end-to-end metric
the two values, the relative delta and the bound are printed; B may be
worse than A by at most the bound.  When both files are runs of the
same commit with the same seed and scale (the two-set acceptance
check), every sim-clock figure and counter must also be identical to
the last digit, and in either file the traced run's sim-clock
end-to-end figures must equal the untraced run's.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from perfbench.metrics import BY_NAME, END_TO_END, FAILED_OP_FRAC


def _worse_by(metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    return delta / abs(a) if a else float(delta != 0)


def _sim_figures(run: Dict[str, Any]) -> Dict[str, float]:
    """Every figure of one run that must repeat exactly."""
    out = {
        name: m["value"]
        for section in ("end_to_end", "per_layer")
        for name, m in run[section].items()
        if BY_NAME[name].clock == "sim"
    }
    # ``attempted`` also counts the extra blocks, as many as fit in
    # ``--seconds`` on the day; the ops of the fixed blocks must repeat.
    out["sim_op samples"] = run["samples"]["sim_op"]
    out["failed"] = run["failed"]
    return out


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the table; return the violations (empty = B is acceptable)."""
    violations: List[str] = []
    ha, hb = a["header"], b["header"]
    same = all(
        ha[k] == hb[k] for k in ("git_sha", "git_dirty", "seed", "scale")
    ) and ha["git_sha"] != "unknown"
    print(f"A: {ha['git_sha'][:12]} seed={ha['seed']} scale={ha['scale']}   "
          f"B: {hb['git_sha'][:12]} seed={hb['seed']} scale={hb['scale']}   "
          f"{'same commit: sim figures must be identical' if same else 'bounds only'}")
    print(f"{'workload':14s} {'metric':22s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(name)
        if runs_b is None:
            violations.append(f"{name}: missing from B")
            continue
        ua, ub = runs_a["untraced"], runs_b["untraced"]
        for m in END_TO_END:
            va = ua["end_to_end"][m.name]["value"]
            vb = ub["end_to_end"][m.name]["value"]
            worse = _worse_by(m, va, vb)
            flag = ""
            if worse > m.bound:
                flag = "  VIOLATION"
                violations.append(
                    f"{name}: {m.name} worse by {worse:.4f} > {m.bound}")
            print(f"{name:14s} {m.name:22s} {va:14.6f} {vb:14.6f} "
                  f"{worse:+9.4f} {m.bound:6.2f}{flag}")
        fa, fb = ua["failed_op_frac"], ub["failed_op_frac"]
        flag = ""
        if fb > fa + FAILED_OP_FRAC.bound:
            flag = "  VIOLATION"
            violations.append(f"{name}: failed_op_frac {fb} > {fa}")
        print(f"{name:14s} {'failed_op_frac':22s} {fa:14.6f} {fb:14.6f} "
              f"{fb - fa:+9.4f} {0.0:6.2f}{flag}")

        for label, runs in (("A", runs_a), ("B", runs_b)):
            if "traced" not in runs:
                continue
            for m in END_TO_END:
                if m.clock != "sim":
                    continue
                traced = runs["traced"]["end_to_end"][m.name]["value"]
                plain = runs["untraced"]["end_to_end"][m.name]["value"]
                if traced != plain:
                    violations.append(
                        f"{name}: {label} traced {m.name} {traced!r} != "
                        f"untraced {plain!r}")
        if same:
            for mode in ("untraced", "traced"):
                if mode not in runs_a or mode not in runs_b:
                    continue
                sa, sb = _sim_figures(runs_a[mode]), _sim_figures(runs_b[mode])
                for key in sorted(set(sa) | set(sb)):
                    if sa.get(key) != sb.get(key):
                        violations.append(
                            f"{name}/{mode}: sim figure {key} differs: "
                            f"{sa.get(key)!r} vs {sb.get(key)!r}")
    for v in violations:
        print("VIOLATION:", v)
    print(f"{len(violations)} violation(s)")
    return violations


def main(argv) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m perfbench compare")
    ap.add_argument("a", help="reference result.json")
    ap.add_argument("b", help="result.json to judge against it")
    args = ap.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        return 1 if compare(json.load(fa), json.load(fb)) else 0
