#!/usr/bin/env python3
"""Which scenario reaches each def of ``src/repro``: a measured reach map.

Runs every registered experiment (``ALL_EXPERIMENTS``, at its default
size) through the runner CLI (``repro.bench.runner.main`` with ``--csv``
and ``--json``, so its claims are judged and its rows written), each
perfbench workload at ``--scale tiny`` (through
``perfbench.harness.run_workload``) and each ``examples/*.py`` under a
``sys.setprofile`` hook that notes the code object of every Python
call, deduplicated per scenario.  The defs of ``src/repro`` files are
kept, each named ``<path under src>::<qualified name>``.  Every module
of ``repro`` is imported first, as the scenario ``(import)``, so a def
that only import-time code calls is not charged to whichever scenario
happened to import its module first.  Each scenario then runs in a
fresh interpreter (two at a time) that imports every module before the
hook goes on, so no memo, cache or free list one scenario filled hides
a call from the next, and the order scenarios run in changes nothing.

``--json OUT`` writes data, not prose: each def with the sorted
scenarios that reached it, and the defs (by the same names, from an
AST walk of ``src/repro``) that none reached.  The report classifies
every def:

* (a) reached by a paper figure (a ``fig*`` / ``table*`` id), a
  perfbench workload, an example or ``(import)``: it stays;
* (b) reached by exactly one showcase experiment (any other id) and
  nothing else: a rent-probe candidate;
* (c) reached by no scenario: tests only, or dead code.

Defs reached by several showcases and nothing else are listed after
(b).  A whole run covers 22 ids, four workloads and five examples in
4–5 minutes on a 2-vCPU host, as long as ``scale`` alone takes under
the hook (8–9 minutes of scenario time); naming scenarios runs only
those.  The garbage a scenario leaves is collected before its
hook comes off, so a generator's ``finally`` that runs when the
collector frees a suspended process counts for that scenario every
time (``Semaphore.abandon`` under ``fig9``).

Blind spots: the workloads run at ``--scale tiny``, so a def that only
a full-scale run reaches reads (c); check a deletion candidate against
``scripts/host_profile.py <workload> --exact`` at full scale.  A def
counts only when a Python frame runs its code.  An
``__init__`` that the fast path bypasses reads as unreached although
its class is in use: ``Chunk.__init__`` (``Chunk`` objects are built
with ``cls.__new__``).  Two defs with one qualified name (a
property's getter and setter) share one entry.  Python 3.11 has no
``sys.monitoring``, so the hook also sees every C call; only ``call``
events are kept.

Usage::

    python scripts/reach_map.py [SCENARIO ...] [--json OUT]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import importlib
import io
import json
import multiprocessing
import pkgutil
import re
import runpy
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_PAPER = re.compile(r"(fig|table)\d")
#: Scenarios run at once, each in its own process.
WORKERS = 2


def def_name(code) -> str | None:
    """``repro/…/mod.py::Qual.name`` of a code object of ``src/repro``,
    or None for anything else (another file, a lambda, a comprehension,
    a module body)."""
    if code.co_name.startswith("<"):
        return None
    try:
        rel = Path(code.co_filename).resolve().relative_to(SRC)
    except ValueError:
        return None
    if rel.parts[0] != "repro":
        return None
    return f"{rel.as_posix()}::{code.co_qualname}"


def all_defs() -> set[str]:
    """Every def of ``src/repro`` by the name :func:`def_name` gives it."""
    names = set()

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{path}::{prefix}{child.name}")
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for file in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(file.read_text()), file.relative_to(SRC).as_posix(), "")
    return names


def probe(fn) -> set:
    """The code objects of every Python call ``fn()`` makes."""
    codes: set = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            fn()
        # A process left suspended in a reference cycle runs its
        # generator's ``finally`` when the collector frees it: collect
        # here, so that code is charged to this scenario every time
        # rather than whenever a collection happens to fall inside it.
        gc.collect()
    finally:
        sys.setprofile(None)
    return codes


def import_all() -> None:
    """Import every module of ``repro``."""
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)


def run_and_judge(experiment: str) -> None:
    """Run one experiment through the runner CLI, as an operator does:
    its table printed, its claims judged, its rows written as CSV and
    JSON.  A failed claim or a raised error fails the scenario."""
    from repro.bench.runner import main

    with tempfile.TemporaryDirectory() as out:
        if main([experiment, "--csv", out, "--json", out]):
            raise RuntimeError(f"{experiment} failed under the runner")


def scenarios() -> dict:
    """Scenario name → a no-argument callable that runs it."""
    from perfbench.harness import run_workload
    from perfbench.workloads import WORKLOADS
    from repro.bench.experiments import ALL_EXPERIMENTS

    out = {name: partial(run_and_judge, name) for name in ALL_EXPERIMENTS}
    for name in WORKLOADS:
        out[name] = partial(run_workload, name, seed=0, seconds=1, scale="tiny")
    for path in sorted((ROOT / "examples").glob("*.py")):
        out[f"examples/{path.name}"] = partial(
            runpy.run_path, str(path), run_name="__main__")
    return out


def kind(scenario: str, experiments) -> str:
    """``"paper"``, ``"showcase"`` or ``"other"`` (a workload, an
    example, ``(import)``)."""
    if scenario not in experiments:
        return "other"
    return "paper" if _PAPER.match(scenario) else "showcase"


def classify(reach: dict, experiments) -> dict:
    """The (a) / (b) / (c) classes of a map ``{def: [scenarios]}`` (a
    def with no scenario is (c)), plus ``"showcases"``: the defs only
    several showcases reach."""
    classes = {"a": [], "b": [], "showcases": [], "c": []}
    for name, where in sorted(reach.items()):
        kinds = {kind(s, experiments) for s in where}
        if not where:
            classes["c"].append(name)
        elif kinds != {"showcase"}:
            classes["a"].append(name)
        elif len(where) == 1:
            classes["b"].append(name)
        else:
            classes["showcases"].append(name)
    return classes


def run_one(scenario: str) -> tuple[str, list[str], float]:
    """Run one scenario; the defs it reached and its wall seconds."""
    import_all()
    run = scenarios()[scenario]
    t0 = time.perf_counter()
    codes = probe(run)
    names = sorted({n for n in map(def_name, codes) if n is not None})
    return scenario, names, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenarios", nargs="*",
                    help="run only these (ids, workload names, examples/<file>)")
    ap.add_argument("--json", metavar="OUT", help="write the map here")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(SRC)]

    reach: dict = {name: [] for name in all_defs()}
    t0 = time.perf_counter()
    for code in probe(import_all):
        name = def_name(code)
        if name is not None:
            reach.setdefault(name, []).append("(import)")
    seconds = {"(import)": time.perf_counter() - t0}
    from repro.bench.experiments import ALL_EXPERIMENTS

    runs = scenarios()
    unknown = [s for s in args.scenarios if s not in runs]
    if unknown:
        print(f"unknown scenarios: {unknown}; available: {', '.join(runs)}",
              file=sys.stderr)
        return 2
    # The longest scenario starts first, so the two workers end together.
    order = sorted(args.scenarios or runs, key=lambda s: s != "scale")
    pool = multiprocessing.get_context("spawn").Pool(WORKERS, maxtasksperchild=1)
    with pool:
        for scenario, names, secs in pool.imap_unordered(run_one, order):
            for name in names:
                reach.setdefault(name, []).append(scenario)
            seconds[scenario] = secs
            print(f"{scenario:32s} {secs:7.1f} s", file=sys.stderr)
    wall = time.perf_counter() - t0

    reach = {name: sorted(where) for name, where in sorted(reach.items())}
    classes = classify(reach, ALL_EXPERIMENTS)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"scenarios": dict(sorted(seconds.items())), "defs": reach,
             "unreached": classes["c"]}, indent=1) + "\n")
    print(f"{len(reach)} defs, {len(seconds)} scenarios, {wall:.0f} s wall "
          f"({sum(seconds.values()):.0f} s in scenarios, {WORKERS} at a time)")
    print(f"(a) {len(classes['a'])} defs reached by a paper figure, "
          "a workload, an example or import")
    print(f"(b) {len(classes['b'])} defs reached by one showcase only:")
    for name in classes["b"]:
        print(f"    {name}  ({reach[name][0]})")
    print(f"    {len(classes['showcases'])} more reached by several "
          "showcases only:")
    for name in classes["showcases"]:
        print(f"    {name}  ({', '.join(reach[name])})")
    print(f"(c) {len(classes['c'])} defs reached by no scenario:")
    for name in classes["c"]:
        print(f"    {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
