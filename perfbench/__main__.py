"""Command line of perfbench.

::

    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1
        one workload in this interpreter; the last line of stdout is the
        JSON result the benchmark contract asks for
    python3 -m perfbench run --seed N --out DIR [--trace] [--scale tiny]
        all four workloads, each in a fresh child interpreter, merged
        into DIR/result.json
    python3 -m perfbench compare A.json B.json
        both values, the relative delta and the bound, per workload and
        end-to-end metric; exit 1 on a violation
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _single(argv) -> int:
    from perfbench.harness import run_workload, warnings_for
    from perfbench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(prog="python3 -m perfbench")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", help="also write the full record (and, traced, "
                    "the span file) into this directory")
    args = ap.parse_args(argv)

    traced = bool(args.trace)
    stem = spans = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(
            args.out, args.workload + (".traced" if traced else ""))
        spans = os.path.join(args.out, f"spans-{args.workload}.json")
    result = run_workload(
        args.workload, args.seed, args.seconds, trace=traced,
        scale=args.scale, spans_path=spans if traced else None)
    if stem:
        with open(stem + ".json", "w") as fh:
            json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {result['attempted']} ops, "
          f"{result['failed']} failed, "
          f"{result['samples']['timed_blocks']}+"
          f"{result['samples']['extra_blocks']} timed blocks, "
          f"{result['samples']['sim_op']} sim_op samples "
          f"({result['samples']['sim_op_beyond_p99']} beyond p99), "
          f"sim_op_p50_ms {result['samples']['sim_op_p50_ms']:.6f}")
    for section in ("end_to_end", "per_layer"):
        for name, m in result[section].items():
            print(f"{name:48s} {m['value']:>18.6f} {m['unit']}")
    print(f"{'failed_op_frac':48s} {result['failed_op_frac']:>18.6f} ratio "
          f"({result['failed']}/{result['attempted']})")
    if traced:
        detail = result["trace_detail"]
        print(f"# sim self-time by layer (s), op total "
              f"{detail['sim_op_total_s']:.6f}, residual "
              f"{detail['residual_s']:.3e}")
        for layer, self_s in sorted(detail["sim_self_s"].items()):
            print(f"sim_self_s[{layer}]".ljust(48) + f" {self_s:>18.6f} s")
    for why in result["errors"]:
        print(f"# failed op: {why}")
    for why in warnings_for(result):
        print(f"# warning: {why}", file=sys.stderr)

    wanted = PER_LAYER if traced else END_TO_END
    section = result["per_layer" if traced else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: section[m.name] for m in wanted},
    }))
    return 0


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=_ROOT, capture_output=True, text=True,
            check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _run_all(argv) -> int:
    import platform

    from perfbench.metrics import RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(prog="python3 -m perfbench run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true",
                    help="repeat each workload once more with tracing on")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = ap.parse_args(argv)

    merged = {
        "schema": 1,
        "header": {
            "git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": bool(_git("status", "--porcelain", "--", "src")),
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load_before": os.getloadavg()[0],
        },
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = merged["workloads"][name] = {}
        for mode in ("untraced", "traced") if args.trace else ("untraced",):
            traced = mode == "traced"
            subprocess.run(
                [sys.executable, "-m", "perfbench", "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(int(traced)), "--scale", args.scale,
                 "--out", args.out],
                cwd=_ROOT, check=True)
            part = os.path.join(
                args.out, name + (".traced" if traced else "") + ".json")
            with open(part) as fh:
                runs[mode] = json.load(fh)
            os.remove(part)
        if args.trace:
            # The definition: traced / untraced host_us_per_op - 1.  (The
            # traced run's own per-layer figure is a one-run estimate.)
            host = [runs[m]["end_to_end"]["host_us_per_op"]["value"]
                    for m in ("traced", "untraced")]
            runs["trace_overhead_frac"] = host[0] / host[1] - 1.0
    merged["header"]["load_after"] = os.getloadavg()[0]
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(merged, fh, indent=1)
    return 0


def main(argv) -> int:
    # Fresh-interpreter hygiene: string hashing must not vary run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "perfbench", *argv])
    # The program is measured from the source tree next to this package,
    # never from an installed copy.
    src = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [_ROOT, src]
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare_main
        return compare_main(argv[1:])
    if argv[:1] == ["run"]:
        return _run_all(argv[1:])
    return _single(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
