#!/usr/bin/env python3
"""Compare the ``rows`` and ``notes`` of two sets of BENCH files.

``BENCH_<name>.json`` files (``python -m repro.bench.runner <name>
--json DIR``) carry the deterministic sim-clock results in ``rows`` /
``notes`` beside host-clock figures (``wall_seconds``, ``engine``) that
change from run to run.  This compares only the former, so a refactor
can show it left every counter where it was.

Exit status: 0 when every compared file agrees, 1 otherwise (each
differing key is printed as ``name rows[i].key: A -> B``; a row whose
shared columns come in another order — every printed table changes —
and two files whose top-level key sets differ — one schema for every
BENCH file — count as differing), 2 when a file is missing.

Usage::

    python scripts/bench_rows_diff.py A_DIR B_DIR [name ...]

Without names, every ``BENCH_*.json`` present in ``A_DIR`` is compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_MISSING = "<absent>"


def diff_rows(a: list, b: list) -> list[str]:
    """Differences between two ``rows`` lists, one line per key."""
    out = []
    if len(a) != len(b):
        out.append(f"rows: {len(a)} rows -> {len(b)} rows")
    for i, (ra, rb) in enumerate(zip(a, b)):
        order_a = [k for k in ra if k in rb]
        order_b = [k for k in rb if k in ra]
        if order_a != order_b:
            out.append(f"rows[{i}]: column order {order_a} -> {order_b}")
        for key in list(ra) + [k for k in rb if k not in ra]:
            va, vb = ra.get(key, _MISSING), rb.get(key, _MISSING)
            if va != vb:
                out.append(f"rows[{i}].{key}: {va!r} -> {vb!r}")
    return out


def diff_notes(a: list, b: list) -> list[str]:
    out = []
    if len(a) != len(b):
        out.append(f"notes: {len(a)} notes -> {len(b)} notes")
    for i, (na, nb) in enumerate(zip(a, b)):
        if na != nb:
            out.append(f"notes[{i}]: {na!r} -> {nb!r}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_dir, b_dir = Path(argv[0]), Path(argv[1])
    names = argv[2:] or sorted(
        p.stem[len("BENCH_"):] for p in a_dir.glob("BENCH_*.json")
    )
    status = 0
    for name in names:
        paths = [d / f"BENCH_{name}.json" for d in (a_dir, b_dir)]
        absent = [str(p) for p in paths if not p.is_file()]
        if absent:
            print(f"{name}: missing {', '.join(absent)}", file=sys.stderr)
            return 2
        a, b = (json.loads(p.read_text()) for p in paths)
        lines = diff_rows(a["rows"], b["rows"]) + diff_notes(
            a.get("notes", []), b.get("notes", [])
        )
        if set(a) != set(b):
            lines.append(f"schema: keys {sorted(a)} -> {sorted(b)}")
        for line in lines:
            print(f"{name} {line}")
        if lines:
            status = 1
        else:
            print(f"{name}: rows and notes identical")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
