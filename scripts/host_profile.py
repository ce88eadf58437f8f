#!/usr/bin/env python3
"""Function-level host profile of one perfbench workload's timed blocks.

perfbench's traced run attributes host samples to *layers*
(``core.meta.host_share`` ...); this prints the view underneath: which
functions the samples land in (self) and pass through (cumulative).
A 1 ms interval timer samples the Python stack while the workload's
blocks 1..n run — the fixture, block 0 (task start) and the benchmark's
reference loops are outside the sampled region, so the shares are of
the program's steady-state work only.  ``ITIMER_REAL`` rather than
``ITIMER_PROF``: the latter only fires at 250 Hz on this kernel
(perfbench/trace.py made the same choice).

CPython runs the handler at the next eval-breaker check, not when the
timer fires, and a C-level operation (a ``bytes`` compare, a copy) has
none: the tick that fell inside it is delivered at the ``RESUME`` of the
next Python function called.  A sample whose innermost frame has not run
past that first instruction is therefore charged to the caller.

Drives ``perfbench.workloads`` through perfbench's own op proxy,
read-only; nothing is written but the ``--json`` file.  ``--diff`` reads
two such files — a parent clone's and the change's — and prints the
per-function before/after table: functions are matched by qualified
name and file, not line, so an edit above one does not split its row.

Usage::

    python scripts/host_profile.py ingest_meta [--seed N] [--scale tiny] [--top K] [--json OUT]
    python scripts/host_profile.py --diff A.json B.json [--top K]
"""

from __future__ import annotations

import argparse
import json
import opcode
import signal
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_INTERVAL_S = 0.001
_RESUME = opcode.opmap.get("RESUME")  # None before Python 3.11


class NoTicks:
    """Stands in for perfbench's calibrator: no reference loops run, so
    none can be sampled."""

    def tick(self) -> None:
        pass


class Sampler:
    """Counts, per function, the samples it was running in (``self``)
    and the samples it was anywhere on the stack of (``cum``)."""

    def __init__(self) -> None:
        self.self_hits: Counter = Counter()
        self.cum_hits: Counter = Counter()
        self.samples = 0
        self._entry: dict = {}  # code object -> offset of its first RESUME

    @staticmethod
    def _key(frame):
        """The frame's code object — with the class of ``self`` beside it
        for generated code (every dataclass ``__init__`` is
        ``<string>:2``)."""
        code = frame.f_code
        if code.co_filename.startswith("<"):
            return code, type(frame.f_locals.get("self")).__name__
        return code, ""

    def _just_entered(self, frame) -> bool:
        """Whether ``frame`` has run nothing yet: it sits on its first
        ``RESUME`` (3.11+) or before its first instruction (3.10), where
        a tick that fired in the caller's C-level work is delivered."""
        code = frame.f_code
        entry = self._entry.get(code)
        if entry is None:
            entry = self._entry[code] = (
                -1 if _RESUME is None else 2 * code.co_code[::2].index(_RESUME))
        return frame.f_lasti <= entry

    def _on_sample(self, signum, frame) -> None:
        self.samples += 1
        if frame.f_back is not None and self._just_entered(frame):
            frame = frame.f_back
        self.self_hits[self._key(frame)] += 1
        seen = set()
        while frame is not None:
            seen.add(self._key(frame))
            frame = frame.f_back
        self.cum_hits.update(seen)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _where(key, line: bool = True) -> str:
    code, owner = key
    name = getattr(code, "co_qualname", code.co_name)
    if owner:
        return f"{owner}.{code.co_name}  (generated)"
    path = Path(code.co_filename)
    for base in (ROOT / "src", ROOT):
        if path.is_relative_to(base):
            path = path.relative_to(base)
            break
    at = f"{path}:{code.co_firstlineno}" if line else path
    return f"{name}  ({at})"


def report(sampler: Sampler, top: int) -> list[str]:
    total = sampler.samples or 1
    lines = []
    for title, hits in (("self", sampler.self_hits),
                        ("cumulative", sampler.cum_hits)):
        lines.append(f"\n{'share':>7}  {'samples':>7}  by {title}")
        for key, n in hits.most_common(top):
            lines.append(f"{n / total:7.1%}  {n:7d}  {_where(key)}")
    return lines


def to_json(sampler: Sampler, header: dict) -> dict:
    """The whole profile, keyed for ``--diff``: ``{function: [self, cum]}``."""
    functions: dict[str, list[int]] = {}
    for column, hits in enumerate((sampler.self_hits, sampler.cum_hits)):
        for key, n in hits.items():
            functions.setdefault(_where(key, line=False), [0, 0])[column] += n
    return {**header, "samples": sampler.samples, "functions": functions}


def diff(before: dict, after: dict, top: int) -> list[str]:
    """Before/after shares of each function's self and cumulative samples,
    the ``top`` largest moves of self share first."""
    lines = [
        f"{side}: {p['workload']} seed {p['seed']} scale {p['scale']}, "
        f"{p['samples']} samples over {p['ops']} ops"
        for side, p in (("before", before), ("after", after))
    ]
    total_a, total_b = before["samples"] or 1, after["samples"] or 1
    rows = []
    for name in before["functions"].keys() | after["functions"].keys():
        (sa, ca), (sb, cb) = (
            p["functions"].get(name, (0, 0)) for p in (before, after)
        )
        rows.append((abs(sa / total_a - sb / total_b), name, sa, sb, ca, cb))
    rows.sort(key=lambda r: (-r[0], r[1]))
    lines.append(f"\n{'self before -> after':>30}  {'cum before -> after':>30}")
    for _, name, sa, sb, ca, cb in rows[:top]:
        lines.append(
            f"{sa / total_a:6.1%} {sa:5d} -> {sb / total_b:6.1%} {sb:5d}  "
            f"{ca / total_a:6.1%} {ca:5d} -> {cb / total_b:6.1%} {cb:5d}  {name}"
        )
    return lines


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.harness import OpLog
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--top", type=int, default=25,
                    help="functions listed per ranking (default: 25)")
    ap.add_argument("--json", metavar="OUT", type=Path,
                    help="also write the whole profile to OUT")
    ap.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"), type=Path,
                    help="print the before/after table of two --json files")
    args = ap.parse_args(argv)
    if args.diff:
        before, after = (json.loads(path.read_text()) for path in args.diff)
        print("\n".join(diff(before, after, args.top)))
        return 0
    if args.workload is None:
        ap.error("a workload is required unless --diff is given")

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    wl.make_inputs()
    wl.setup()
    log = OpLog(wl.tb.env, NoTicks(), wl.ops_per_loop)
    wl.run_block(0, log)
    warm_ops = log.attempted
    sampler = Sampler()
    for b in range(1, wl.n_blocks):
        with sampler:
            wl.run_block(b, log)
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"{sampler.samples} samples at {SAMPLE_INTERVAL_S * 1e3:g} ms over "
          f"blocks 1..{wl.n_blocks - 1} ({log.attempted - warm_ops} ops, "
          f"{log.failed} failed)")
    print("\n".join(log.errors + report(sampler, args.top)))
    if args.json:
        header = {"workload": args.workload, "seed": args.seed,
                  "scale": args.scale, "ops": log.attempted - warm_ops}
        args.json.write_text(json.dumps(to_json(sampler, header), indent=1))
    return 1 if log.failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
