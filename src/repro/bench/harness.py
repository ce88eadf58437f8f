"""Experiment result containers and run helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.sim.engine import tally_runs


@dataclass
class ExperimentResult:
    """The output of one table/figure reproduction."""

    name: str
    paper_ref: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Engine throughput over the experiment's ``Environment.run`` calls
    #: — scheduler, sim_events, events_per_sec, peak_occupancy; stamped
    #: by :class:`timer`, empty when no environment ran inside it.
    engine: Dict[str, Any] = field(default_factory=dict)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, key: str) -> list:
        return [r[key] for r in self.rows]

    def where(self, **conditions: Any) -> List[Dict[str, Any]]:
        out = []
        for r in self.rows:
            if all(r.get(k) == v for k, v in conditions.items()):
                out.append(r)
        return out

    def one(self, **conditions: Any) -> Dict[str, Any]:
        matches = self.where(**conditions)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one row matching {conditions}, "
                f"found {len(matches)}"
            )
        return matches[0]


class timer:
    """Context manager stamping wall time — and engine throughput of
    every ``Environment.run`` inside the block (one block at a time) —
    onto an ExperimentResult."""

    def __init__(self, result: ExperimentResult) -> None:
        self.result = result

    def __enter__(self) -> ExperimentResult:
        tally_runs(True)
        self._t0 = time.perf_counter()
        return self.result

    def __exit__(self, *exc) -> None:
        self.result.wall_seconds = time.perf_counter() - self._t0
        stats = tally_runs(False)
        if stats is not None:
            self.result.engine = stats.to_dict()
