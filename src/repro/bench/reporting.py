"""Experiment reporting: tables, JSON artifacts, and the stats seam.

Everything an experiment emits goes through this module:

* :func:`format_table` / :func:`format_result` — aligned plain-text
  tables for the runner's stdout;
* :func:`result_to_dict` / :func:`write_json` — the machine-readable
  ``BENCH_<id>.json`` artifacts;
* :func:`stats_row` (from :mod:`repro.obs.counters`) — the one path
  from a stats object or an ``obs.SpanRecorder`` into experiment rows;
* :func:`ratio` — safe speedup ratios.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.bench.harness import ExperimentResult
from repro.obs.counters import stats_row


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def format_result(result: ExperimentResult) -> str:
    """Full report block for one experiment."""
    parts = [
        f"== {result.name} ({result.paper_ref}) ==",
        format_table(result.rows),
    ]
    for note in result.notes:
        parts.append(f"note: {note}")
    if result.wall_seconds:
        parts.append(f"(ran in {result.wall_seconds:.2f}s wall)")
    if result.engine:
        e = result.engine
        parts.append(
            f"(engine: {e.get('sim_events', 0):,} events @ "
            f"{e.get('events_per_sec', 0.0):,.0f}/s, "
            f"peak occupancy {e.get('peak_occupancy', 0):,}, "
            f"scheduler {e.get('scheduler', '?')})"
        )
    return "\n".join(parts)


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Plain-dict form of an ExperimentResult (JSON-serializable)."""
    return {
        "name": result.name,
        "paper_ref": result.paper_ref,
        "rows": result.rows,
        "notes": result.notes,
        "wall_seconds": result.wall_seconds,
        # Engine throughput (events_per_sec, peak scheduler occupancy)
        # for the environments the experiment ran — every BENCH_*.json
        # records how hard the DES kernel worked to produce it.
        "engine": result.engine,
    }


def write_json(result: ExperimentResult, path) -> None:
    """Dump one experiment as a machine-readable JSON artifact."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=False) + "\n"
    )


def ratio(a: float, b: float) -> float:
    """Safe a/b for speedup reporting."""
    return a / b if b else float("inf")


def add_relative(
    result: ExperimentResult, base: Dict[str, Any], columns: Dict[str, str],
    speedup: bool = False,
) -> None:
    """The "columns relative to the base row" step of a sweep.

    For each ``new: src`` in ``columns``, every row of ``result`` that
    carries ``src`` gains ``new = row[src] / base[src]`` — or, with
    ``speedup`` (``src`` is a time: smaller is faster), ``base[src] /
    row[src]``.  The base row itself reads 1.0.
    """
    for row in result.rows:
        for new, src in columns.items():
            if src in row:
                a, b = row[src], base[src]
                row[new] = ratio(b, a) if speedup else ratio(a, b)
