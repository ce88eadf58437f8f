#!/usr/bin/env python3
"""Function-level host profile of one perfbench workload's timed blocks.

perfbench's traced run attributes host samples to *layers*
(``core.meta.host_share`` ...); this prints the view underneath: which
functions the samples land in (self) and pass through (cumulative).
A 1 ms interval timer samples the Python stack while the workload's
blocks 1..n run — the fixture, block 0 (task start) and the benchmark's
reference loops are outside the sampled region, so the shares are of
the program's steady-state work only.  ``--setup`` samples one set-up
pass instead, the region perfbench's ``setup_s`` times (deployment,
bulk load, snapshot loads).  ``ITIMER_REAL`` rather than
``ITIMER_PROF``: the latter only fires at 250 Hz on this kernel
(perfbench/trace.py made the same choice).

CPython runs the handler at the next eval-breaker check, not when the
timer fires, and a C-level operation (a ``bytes`` compare, a copy) has
none: the tick that fell inside it is delivered at the ``RESUME`` of the
next Python function called.  A sample whose innermost frame has not run
past that first instruction is therefore charged to the caller.

``--exact`` profiles the same region deterministically instead, with
``cProfile``: every call is timed, so C-level work is charged to the
function that ran it and a per-function figure does not depend on where
a tick happened to land.  It prints each function's ``tottime`` (self)
and ``cumtime`` (cumulative) in milliseconds with their shares of the
region's total; the profiler's own per-call cost inflates cheap Python
calls, so read its shares beside the sampler's, not instead of them.

``--gc`` also times the cyclic garbage collector inside the region: a
``gc.callbacks`` hook, registered only while the region runs, counts
collections per generation and sums the time between each ``start`` and
``stop``.  The collector's time is the program's and the profiler's
alike (either one's allocations can trigger a collection), so read it
beside an unprofiled run's figure when they disagree.  With ``--by-op``
each collection's runs and time are also charged to the op kind whose
resumption was running when it started, or to the time outside any op;
that time is already inside the row's own microseconds.

``--by-op`` splits the same region's host time by op kind instead of by
function: the generator each op hands perfbench's op proxy
(``DieselClient.put``, ``.delete``, ``.stat``, ``.ls``,
``.refresh_meta``, ``CacheReader.read`` ...), timed on the host clock
across every resumption, the server handler it runs inline included.
Each kind gets its calls, milliseconds, microseconds per call and share
of the region, and one row holds the time outside any op (background
ingest flushes, prefetch, the event loop).  No sampler runs; the two
clock reads per resumption are charged to the op.

``--census`` counts the kernel's deliveries in the same region instead
of timing anything: each event the loop pops is named by kind — a
timeout, a semaphore grant, a process start, a process end, a condition
(an all-of) or other (a plain event: an interrupt, a hand-made wake-up)
— and printed per op.  It wraps ``repro.sim.engine.heappop``, the
loop's one pop per delivered event, in this process only; no file of
``src/`` changes.  An order-preserving kernel change leaves it
identical.

Drives ``perfbench.workloads`` through perfbench's own op proxy (a
subclass of it for ``--by-op``), read-only; nothing is written but the
``--json`` file.  ``--diff`` reads
two such files of one kind — a parent clone's and the change's — and
prints the per-function before/after table: functions are matched by
qualified name and file, not line, so an edit above one does not split
its row.  Two ``--by-op`` files print the per-kind table instead.

Usage::

    python scripts/host_profile.py ingest_meta [--seed N] [--scale tiny] [--setup] [--exact] [--gc] [--top K] [--json OUT]
    python scripts/host_profile.py ingest_meta --by-op [--gc] [--seed N] [--scale tiny] [--json OUT]
    python scripts/host_profile.py ingest_meta --census [--seed N] [--scale tiny] [--json OUT]
    python scripts/host_profile.py --diff A.json B.json [--top K]
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import opcode
import re
import signal
import sys
import time
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


class ExactProfile:
    """``cProfile`` over the same region as :class:`Sampler`, in the same
    shape: ``self_hits`` / ``cum_hits`` hold each function's ``tottime``
    / ``cumtime`` in microseconds and ``samples`` their total (the sum
    of every ``tottime``), so :func:`report`, :func:`to_json` and
    :func:`diff` read either."""

    unit = "us"

    def __init__(self) -> None:
        self.self_hits: Counter = Counter()
        self.cum_hits: Counter = Counter()
        self.samples = 0
        self._profile = cProfile.Profile()

    def __enter__(self) -> "ExactProfile":
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self.self_hits.clear()
        self.cum_hits.clear()
        for entry in self._profile.getstats():
            code = entry.code  # a code object, or a built-in's name
            key = (code, "") if not isinstance(code, str) else (code, "builtin")
            self.self_hits[key] = round(entry.inlinetime * 1e6)
            self.cum_hits[key] = round(entry.totaltime * 1e6)
        self.samples = sum(self.self_hits.values())


class GcTimer:
    """Collector runs per generation and collector time while inside the
    region (the hook is registered on entry, removed on exit; entering
    again adds to the same totals).  Given ``kind_of``, a callable naming
    the op kind running now (``None`` outside any op), each collection is
    also charged to the kind running when it started: ``by_kind`` maps
    it to ``[runs, seconds]``."""

    def __init__(self, kind_of=None) -> None:
        self.runs = [0, 0, 0]
        self.seconds = 0.0
        self.collected = 0
        self.by_kind: dict[str, list] = {}
        self._kind_of = kind_of
        self._t0: float | None = None
        self._kind: str | None = None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            if self._kind_of is not None:
                self._kind = self._kind_of() or OUTSIDE
        elif self._t0 is not None:  # a stop whose start was in the region
            elapsed = time.perf_counter() - self._t0
            self.seconds += elapsed
            self.runs[info["generation"]] += 1
            self.collected += info["collected"]
            if self._kind is not None:
                row = self.by_kind.setdefault(self._kind, [0, 0.0])
                row[0] += 1
                row[1] += elapsed
            self._t0 = self._kind = None

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._t0 = None

    def to_json(self) -> dict:
        out = {"runs": list(self.runs), "ms": round(self.seconds * 1e3, 3),
               "collected": self.collected}
        if self._kind_of is not None:
            out["by_op"] = {kind: [runs, round(seconds * 1e6)]
                            for kind, (runs, seconds) in self.by_kind.items()}
        return out


class Census:
    """Kernel deliveries by kind while inside the region: the engine's
    module-level ``heappop`` is wrapped on entry (and restored on exit),
    and each popped event counted under :attr:`KINDS`.  A grant is an
    event a :class:`~repro.sim.engine.Semaphore` granted a slot with; a
    grant released before its delivery counts as other."""

    KINDS = ("timeout", "semaphore grant", "process start", "process end",
             "condition", "other")

    def __init__(self) -> None:
        from repro.sim import engine

        self.counts: Counter = Counter()
        self._engine = engine
        self._pop = engine.heappop

    def kind(self, event) -> str:
        """The :attr:`KINDS` entry ``event`` counts under."""
        engine = self._engine
        if isinstance(event, engine.Timeout):
            return "timeout"
        if isinstance(event, engine._Initialize):
            return "process start"
        if isinstance(event, engine.Process):
            return "process end"
        if isinstance(event, engine.AllOf):
            return "condition"
        if getattr(event, "_granted", False):
            return "semaphore grant"
        return "other"

    def __enter__(self) -> "Census":
        pop, counts, kind = self._pop, self.counts, self.kind

        def counted(heap):
            entry = pop(heap)
            counts[kind(entry[2])] += 1
            return entry

        self._engine.heappop = counted
        return self

    def __exit__(self, *exc) -> None:
        self._engine.heappop = self._pop

    def report(self, ops: int) -> list[str]:
        """Events, events per op and share, per kind, then the total."""
        total = sum(self.counts.values())
        lines = [f"\n{'event kind':<16} {'events':>9} {'per op':>9} {'share':>7}"]
        for kind in (*self.KINDS, "total"):
            n = total if kind == "total" else self.counts[kind]
            lines.append(f"{kind:<16} {n:9d} {n / max(ops, 1):9.3f} "
                         f"{n / max(total, 1):7.1%}")
        return lines


def op_log_by_kind(OpLog):
    """A subclass of perfbench's op proxy ``OpLog`` that also charges the
    host time of every op to its kind (imported late, with perfbench)."""

    class ByOpLog(OpLog):
        """``OpLog`` whose ``timed`` drives each op through
        :meth:`_clocked`; ``kinds`` maps the op generator's qualified
        name to ``[calls, seconds]``, and ``current`` names the kind of
        the resumption running now (``None`` between them)."""

        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.kinds: dict[str, list] = {}
            self.current: str | None = None

        def timed(self, gen, expect=None, nbytes: int = 0):
            return super().timed(self._clocked(gen), expect, nbytes)

        def _clocked(self, gen):
            """``yield from gen``, with the host time of each of its
            resumptions added to its kind's row."""
            code = gen.gi_code
            kind = getattr(code, "co_qualname", code.co_name)  # 3.11+
            row = self.kinds.setdefault(kind, [0, 0.0])
            row[0] += 1
            clock = time.perf_counter
            step, arg = gen.send, None
            while True:
                self.current = kind
                t0 = clock()
                try:
                    event = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    row[1] += clock() - t0
                    self.current = None
                try:
                    arg, step = (yield event), gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown into the op: pass it on
                    arg, step = exc, gen.throw

    return ByOpLog


def by_op_json(kinds: dict, region_s: float, header: dict) -> dict:
    """The per-kind table, keyed for ``--diff``: ``{kind: [calls, us]}``
    and the region's total microseconds."""
    return {**header, "by_op": True, "region_us": round(region_s * 1e6),
            "kinds": {kind: [calls, round(seconds * 1e6)]
                      for kind, (calls, seconds) in kinds.items()}}


OUTSIDE = "(outside any op)"


def _op_rows(table: dict) -> list[tuple[str, int, int]]:
    """``(kind, calls, us)`` per kind, largest first, then the time
    outside any op (calls 0)."""
    rows = sorted(((kind, calls, us) for kind, (calls, us)
                   in table["kinds"].items()), key=lambda r: (-r[2], r[0]))
    inside = sum(us for _, _, us in rows)
    return rows + [(OUTSIDE, 0, table["region_us"] - inside)]


def _gc_cells(table: dict, kind: str) -> str:
    """The collector's runs and ms charged to ``kind`` (``--by-op --gc``),
    or nothing when the table holds no collector figures."""
    if "gc" not in table:
        return ""
    runs, us = table["gc"]["by_op"].get(kind, (0, 0))
    return f" {runs:8d} {us / 1e3:8.1f}"


def report_by_op(table: dict) -> list[str]:
    """Calls, share of calls, ms, µs per call and share of the region's
    host time, per op kind; with ``--gc``, the collector's runs and ms
    charged to each."""
    total_calls = sum(calls for calls, _ in table["kinds"].values()) or 1
    total_us = table["region_us"] or 1
    gc_head = f" {'gc runs':>8} {'gc ms':>8}" if "gc" in table else ""
    lines = [f"\n{'op':<32} {'calls':>7} {'calls%':>7} {'ms':>9} "
             f"{'us/call':>9} {'share':>7}{gc_head}"]
    for kind, calls, us in _op_rows(table):
        per = f"{us / calls:9.2f}" if calls else f"{'-':>9}"
        ncalls = f"{calls:7d} {calls / total_calls:7.1%}" if calls else (
            f"{'-':>7} {'-':>7}")
        lines.append(f"{kind:<32} {ncalls} {us / 1e3:9.1f} {per} "
                     f"{us / total_us:7.1%}{_gc_cells(table, kind)}")
    return lines


def diff_by_op(before: dict, after: dict) -> list[str]:
    """Before/after calls, µs per call and share of each op kind."""
    lines = [
        f"{side}: {p['workload']} seed {p['seed']} scale {p['scale']}, "
        f"{p['region_us'] / 1e3:.1f} ms over {p['ops']} ops"
        for side, p in (("before", before), ("after", after))
    ]
    rows_a = {kind: (calls, us) for kind, calls, us in _op_rows(before)}
    rows_b = {kind: (calls, us) for kind, calls, us in _op_rows(after)}
    total_a, total_b = before["region_us"] or 1, after["region_us"] or 1
    lines.append(f"\n{'op':<32} {'calls before -> after':>22} "
                 f"{'us/call before -> after':>24} {'share before -> after':>22}")
    order = sorted(rows_a.keys() | rows_b.keys(),
                   key=lambda k: (k == OUTSIDE, -max(rows_a.get(k, (0, 0))[1],
                                                     rows_b.get(k, (0, 0))[1])))
    for kind in order:
        (ca, ua), (cb, ub) = rows_a.get(kind, (0, 0)), rows_b.get(kind, (0, 0))
        per = (f"{ua / ca if ca else 0:10.2f} -> {ub / cb if cb else 0:10.2f}"
               if kind != OUTSIDE else f"{'-':>24}")
        lines.append(f"{kind:<32} {ca:9d} -> {cb:9d} {per} "
                     f"{ua / total_a:9.1%} -> {ub / total_b:9.1%}")
    if "gc" in before or "gc" in after:
        lines.append(f"\n{'collector by op':<32} {'runs before -> after':>22} "
                     f"{'ms before -> after':>24}")
        for side, p in (("before", before), ("after", after)):
            if "gc" not in p:
                lines.append(f"gc {side}: not recorded")
        by_a, by_b = (p["gc"]["by_op"] if "gc" in p else {}
                      for p in (before, after))
        for kind in sorted(by_a.keys() | by_b.keys(),
                           key=lambda k: (k == OUTSIDE, k)):
            (ra, ga), (rb, gb) = by_a.get(kind, (0, 0)), by_b.get(kind, (0, 0))
            lines.append(f"{kind:<32} {ra:9d} -> {rb:9d} "
                         f"{ga / 1e3:10.1f} -> {gb / 1e3:10.1f}")
    return lines


def gc_line(stats: dict) -> str:
    """One line of ``GcTimer.to_json`` output."""
    g0, g1, g2 = stats["runs"]
    return (f"{sum(stats['runs'])} collections (gen0 {g0}, gen1 {g1}, "
            f"gen2 {g2}), {stats['ms']:.1f} ms, {stats['collected']} "
            f"objects freed")


def _where(key, line: bool = True) -> str:
    code, owner = key
    if owner == "builtin":  # a built-in's name, its address dropped
        return re.sub(r" at 0x[0-9a-f]+", "", code)
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


def report(sampler, top: int) -> list[str]:
    """The ``top`` functions by self and by cumulative share."""
    total = sampler.samples or 1
    exact = isinstance(sampler, ExactProfile)
    lines = []
    for title, hits in (("self", sampler.self_hits),
                        ("cumulative", sampler.cum_hits)):
        column = "ms" if exact else "samples"
        lines.append(f"\n{'share':>7}  {column:>9}  by {title}")
        for key, n in hits.most_common(top):
            count = f"{n / 1e3:9.1f}" if exact else f"{n:9d}"
            lines.append(f"{n / total:7.1%}  {count}  {_where(key)}")
    return lines


def to_json(sampler, header: dict) -> dict:
    """The whole profile, keyed for ``--diff``: ``{function: [self, cum]}``
    (samples, or microseconds when ``header["exact"]``)."""
    functions: dict[str, list[int]] = {}
    for column, hits in enumerate((sampler.self_hits, sampler.cum_hits)):
        for key, n in hits.items():
            functions.setdefault(_where(key, line=False), [0, 0])[column] += n
    return {**header, "samples": sampler.samples, "functions": functions}


def diff(before: dict, after: dict, top: int) -> list[str]:
    """Before/after shares of each function's self and cumulative samples,
    the ``top`` largest moves of self share first."""
    if bool(before.get("exact")) != bool(after.get("exact")):
        raise SystemExit("--diff: one profile is --exact, the other sampled")
    unit = "us (exact)" if before.get("exact") else "samples"
    lines = [
        f"{side}: {p['workload']} seed {p['seed']} scale {p['scale']}, "
        f"{p['samples']} {unit} over "
        + ("one set-up pass" if p.get("setup") else f"{p['ops']} ops")
        for side, p in (("before", before), ("after", after))
    ]
    total_a, total_b = before["samples"] or 1, after["samples"] or 1
    rows = []
    for name in before["functions"].keys() | after["functions"].keys():
        (sa, ca), (sb, cb) = (
            p["functions"].get(name, (0, 0)) for p in (before, after)
        )
        rows.append((abs(sa / total_a - sb / total_b), name, sa, sb, ca, cb))
    if "gc" in before or "gc" in after:
        lines += [
            f"gc {side}: " + (gc_line(p["gc"]) if "gc" in p else "not recorded")
            for side, p in (("before", before), ("after", after))
        ]
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
    ap.add_argument("--setup", action="store_true",
                    help="sample one set-up pass instead of blocks 1..n")
    ap.add_argument("--exact", action="store_true",
                    help="profile the region with cProfile (tottime and "
                         "cumtime per function) instead of sampling it")
    ap.add_argument("--gc", action="store_true",
                    help="also count collector runs per generation and "
                         "time them inside the region")
    ap.add_argument("--by-op", action="store_true",
                    help="split the timed blocks' host time by op kind "
                         "instead of by function")
    ap.add_argument("--census", action="store_true",
                    help="count the kernel's deliveries per op by event "
                         "kind instead of timing anything")
    ap.add_argument("--top", type=int, default=25,
                    help="functions listed per ranking (default: 25)")
    ap.add_argument("--json", metavar="OUT", type=Path,
                    help="also write the whole profile to OUT")
    ap.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"), type=Path,
                    help="print the before/after table of two --json files")
    args = ap.parse_args(argv)
    if args.diff:
        before, after = (json.loads(path.read_text()) for path in args.diff)
        if before.get("by_op") != after.get("by_op"):
            raise SystemExit("--diff: one file is --by-op, the other not")
        print("\n".join(diff_by_op(before, after) if before.get("by_op")
                        else diff(before, after, args.top)))
        return 0
    if args.workload is None:
        ap.error("a workload is required unless --diff is given")
    if args.by_op and (args.setup or args.exact):
        ap.error("--by-op times ops alone: no --setup or --exact")
    if args.census and (args.setup or args.exact or args.by_op or args.gc):
        ap.error("--census counts events alone: no --setup, --exact, "
                 "--by-op or --gc")

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    wl.make_inputs()
    if args.by_op:
        return main_by_op(wl, op_log_by_kind(OpLog), args)
    if args.census:
        return main_census(wl, OpLog, args)
    sampler = ExactProfile() if args.exact else Sampler()
    gc_timer = GcTimer() if args.gc else contextlib.nullcontext()
    header = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale, "setup": args.setup, "ops": 0,
              "exact": args.exact}
    failed, errors = 0, []
    if args.setup:
        with sampler, gc_timer:
            wl.setup()
        region = "one set-up pass"
    else:
        wl.setup()
        log = OpLog(wl.tb.env, NoTicks(), wl.ops_per_loop)
        wl.run_block(0, log)
        warm_ops = log.attempted
        for b in range(1, wl.n_blocks):
            with sampler, gc_timer:
                wl.run_block(b, log)
        header["ops"] = log.attempted - warm_ops
        failed, errors = log.failed, log.errors
        region = (f"blocks 1..{wl.n_blocks - 1} ({header['ops']} ops, "
                  f"{failed} failed)")
    how = (f"{sampler.samples / 1e3:.1f} ms profiled exactly"
           if args.exact else
           f"{sampler.samples} samples at {SAMPLE_INTERVAL_S * 1e3:g} ms")
    print(f"{args.workload} seed {args.seed} scale {args.scale}: {how} over "
          f"{region}")
    if args.gc:
        header["gc"] = gc_timer.to_json()
        print(f"gc: {gc_line(header['gc'])}")
    print("\n".join(errors + report(sampler, args.top)))
    if args.json:
        args.json.write_text(json.dumps(to_json(sampler, header), indent=1))
    return 1 if failed else 0


def main_by_op(wl, log_class, args) -> int:
    """``--by-op``: the per-kind table of blocks 1..n (block 0 warms up
    and is left out, as the sampler leaves it out)."""
    wl.setup()
    log = log_class(wl.tb.env, NoTicks(), wl.ops_per_loop)
    wl.run_block(0, log)
    warm_ops = log.attempted
    log.kinds.clear()
    gc_timer = (GcTimer(lambda: log.current) if args.gc
                else contextlib.nullcontext())
    region_s = 0.0
    for b in range(1, wl.n_blocks):
        with gc_timer:
            t0 = time.perf_counter()
            wl.run_block(b, log)
            region_s += time.perf_counter() - t0
    ops = log.attempted - warm_ops
    header = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale, "ops": ops}
    if args.gc:
        header["gc"] = gc_timer.to_json()
    table = by_op_json(log.kinds, region_s, header)
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"{region_s * 1e3:.1f} ms of host time over blocks "
          f"1..{wl.n_blocks - 1} ({ops} ops, {log.failed} failed), by op")
    if args.gc:
        print(f"gc: {gc_line(header['gc'])}")
    print("\n".join(log.errors + report_by_op(table)))
    if args.json:
        args.json.write_text(json.dumps(table, indent=1))
    return 1 if log.failed else 0


def main_census(wl, OpLog, args) -> int:
    """``--census``: the kernel's deliveries by kind over blocks 1..n
    (block 0 warms up and is left out, as the sampler leaves it out)."""
    wl.setup()
    log = OpLog(wl.tb.env, NoTicks(), wl.ops_per_loop)
    wl.run_block(0, log)
    warm_ops = log.attempted
    census = Census()
    for b in range(1, wl.n_blocks):
        with census:
            wl.run_block(b, log)
    ops = log.attempted - warm_ops
    print(f"{args.workload} seed {args.seed} scale {args.scale}: kernel "
          f"events over blocks 1..{wl.n_blocks - 1} ({ops} ops, "
          f"{log.failed} failed), by kind")
    print("\n".join(log.errors + census.report(ops)))
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "scale": args.scale, "ops": ops, "census": dict(census.counts)},
            indent=1))
    return 1 if log.failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
