"""Experiment runner CLI.

Regenerate any paper table/figure from the command line::

    python -m repro.bench.runner table2 fig12      # specific artifacts
    python -m repro.bench.runner --all             # everything
    python -m repro.bench.runner --list            # what's available
    python -m repro.bench.runner fig12 --csv out/  # also dump rows as CSV

Prints each experiment's paper-style table and notes, then one
``claim ✓``/``claim ✗`` line per claim :data:`~repro.bench.claims.CLAIMS`
makes about its rows; ``--csv DIR`` additionally writes one
``<experiment>.csv`` per artifact (the series a plotting tool would
consume) and ``--json DIR`` one ``BENCH_<experiment>.json`` (rows +
notes, machine-readable).

An experiment that fails — a false claim, a
:class:`~repro.errors.ReproError` from the simulated system, or an
``AssertionError`` from its own consistency checks — is reported and the
run goes on to the next one, exiting non-zero at the end; any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.claims import CLAIMS
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import ExperimentResult
from repro.bench.reporting import format_result, write_json
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.runner",
        description="Regenerate the DIESEL paper's evaluation artifacts",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help=f"artifact ids: {', '.join(ALL_EXPERIMENTS)}",
    )
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each experiment's rows to DIR/<id>.csv")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write each experiment (rows + notes) "
                             "to DIR/BENCH_<id>.json")
    return parser


def write_csv(result: ExperimentResult, path: Path) -> None:
    """Dump an experiment's rows as CSV (union of all row columns)."""
    columns: list[str] = []
    for row in result.rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list:
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {doc}")
        return 0
    names = list(ALL_EXPERIMENTS) if args.all else args.experiments
    if not names:
        print("nothing to run; pass experiment ids, --all, or --list",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    csv_dir: Optional[Path] = None
    if args.csv is not None:
        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)
    json_dir: Optional[Path] = None
    if args.json is not None:
        json_dir = Path(args.json)
        json_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in names:
        try:
            result = ALL_EXPERIMENTS[name]()
        except (ReproError, AssertionError) as exc:
            print(f"== {name} FAILED: {exc!r}", file=sys.stderr)
            failures += 1
            continue
        print(format_result(result))
        for claim in CLAIMS[name](result):
            if claim.ok:
                print(f"claim ✓ {claim.text}")
            else:
                print(f"claim ✗ {claim.text}: {claim.measured}")
                failures += 1
        if csv_dir is not None:
            target = csv_dir / f"{name}.csv"
            write_csv(result, target)
            print(f"(rows written to {target})")
        if json_dir is not None:
            target = json_dir / f"BENCH_{name}.json"
            write_json(result, target)
            print(f"(result written to {target})")
        print()
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
