"""Run one workload and measure it on both clocks.

The timed phase is ``n_blocks`` *fixed* blocks — the deterministic work
every sim-clock figure and counter is taken over — followed, for the
workloads whose blocks all do the same work, by extra blocks of the same
kind until ``--seconds`` of wall time have passed.  The extra blocks
only give the host clock more samples.

Every host figure is CPU time normalised by the reference loops that ran
in the same moments (``perfbench.calibrate``): the op proxy runs one
after every few ops, set-up is bracketed by bursts of them.
``host_us_per_op`` is the median over the timed blocks of a block's
normalised CPU time per op.
In a traced run the last blocks run with tracing detached and are the
untraced reference for ``trace.overhead_frac``.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from perfbench import layers
from perfbench.calibrate import Calibrator, Meter
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS

#: Set-up is timed in rounds of one or more full passes (as many as it
#: takes to fill ``round_min_s``); ``setup_s`` is the median round's
#: time per pass and the last pass's fixture is the one the run uses.
SETUP = {
    "full": {"rounds": 5, "round_min_s": 0.25},
    "tiny": {"rounds": 2, "round_min_s": 0.02},
}
#: Reference loops run before and after each set-up round and each
#: block (block 0 may have no ops to hang any on).
BURST = 25
#: Untraced reference blocks a traced run appends.
REFERENCE_BLOCKS = 4
#: Cap on extra blocks, so a very fast machine still ends.
MAX_EXTRA_BLOCKS = 64


class OpLog:
    """The benchmark-side op proxy: sim-clock latency, counts, checks."""

    def __init__(self, env, cal: Calibrator, ops_per_loop: int) -> None:
        self.env = env
        self.cal = cal
        #: One reference loop after every this many ops.
        self.ops_per_loop = ops_per_loop
        self.lat = array("d")
        self.attempted = 0
        self.failed = 0
        self.user_bytes = 0
        self.errors: List[str] = []
        self.tracer: Optional[Tracer] = None
        #: Test hook: flip one byte of the payload of this op number.
        self.corrupt_op: Optional[int] = None

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(why)

    def timed(self, gen, expect: Any = None, nbytes: int = 0):
        """Drive one op; time it, count it, compare it with ``expect``.

        A raised error, a refusal or a wrong answer is a failed op, not a
        failed run: this is the boundary that keeps the closed loop
        going and reports the failure.
        """
        env = self.env
        tracer = self.tracer
        span = tracer.open("op", "op") if tracer is not None else None
        t0 = env.now
        out = None
        try:
            out = yield from gen
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self._fail(f"{type(exc).__name__}: {exc}")
        else:
            if expect is not None:
                if self.attempted == self.corrupt_op:
                    out = bytes([out[0] ^ 0xFF]) + bytes(out[1:])
                if out != expect:
                    self._fail("payload differs from the generated input")
                    out = None
                elif isinstance(expect, (bytes, bytearray)):
                    nbytes = len(expect)
            self.user_bytes += nbytes
        finally:
            if span is not None:
                tracer.close(span)
        self.lat.append(env.now - t0)
        self.attempted += 1
        if not self.attempted % self.ops_per_loop:
            self.cal.tick()
        return out

    def check(self, ok: Callable[[], bool]) -> None:
        """An extra correctness check on an op's result (not an op)."""
        try:
            if not ok():
                self._fail("result differs from the dict model")
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self._fail(f"{type(exc).__name__}: {exc}")


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    """Exact order statistic (nearest rank), so sim figures repeat."""
    n = len(sorted_values)
    return float(sorted_values[max(0, -(-n * q // 100) - 1)]) if n else 0.0


def _val(metric, value) -> Dict[str, Any]:
    return {"value": value, "unit": metric.unit}


def _trim_heap() -> None:
    """Give freed heap back to the OS (glibc; elsewhere a no-op)."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _burst(meter: Meter) -> None:
    """A burst of reference loops, counted into ``meter``."""
    meter.start()
    for _ in range(BURST):
        meter.cal.tick()
    meter.stop()


def _set_up(wl, cal: Calibrator, scale: str) -> List[float]:
    """Build the fixture in rounds; normalised CPU seconds per pass of
    each round.  Only program calls are timed (``make_inputs`` ran
    before, tearing the previous fixture down is not set-up)."""
    rounds: List[float] = []
    for _ in range(SETUP[scale]["rounds"]):
        meter = Meter(cal)
        _burst(meter)
        passes = 0
        while not passes or meter.wall_s < SETUP[scale]["round_min_s"]:
            wl.teardown()
            if not passes:
                # Give the last round's fixture back to the OS, or peak
                # RSS would count the rounds and not the workload.
                gc.collect()
                _trim_heap()
            meter.start()
            wl.setup()
            cal.tick()  # a short set-up gets its loops here, not from the bursts
            meter.stop()
            passes += 1
        _burst(meter)
        rounds.append(meter.normalised_s / passes)
    return rounds


def _timed_phase(wl, log: OpLog, cal: Calibrator, tracer: Optional[Tracer],
                 seconds: float, fault: Optional[str]) -> Dict[str, Any]:
    """Fixed blocks, the gated snapshot, then the extra blocks."""
    env = wl.tb.env
    base = layers.Baseline(wl)
    blocks: List[Dict[str, float]] = []

    def run_block(b: int) -> None:
        ops0, sim0 = log.attempted, env.now
        meter = Meter(cal)
        _burst(meter)
        meter.start()
        wl.run_block(b, log)
        meter.stop()
        _burst(meter)
        if tracer is not None and tracer.attached:
            tracer.end_block()
            if b == 0:
                tracer.attach(wl)
        blocks.append({
            "ops": log.attempted - ops0, "sim_s": env.now - sim0,
            "host_s": meter.normalised_s, "cpu_s": meter.cpu_s,
            "wall_s": meter.wall_s, "slowdown": meter.slowdown,
            "objectstore_reads": layers.objectstore_reads(wl.tb),
        })

    def per_op_us(some: List[Dict[str, float]]) -> List[float]:
        return [blk["host_s"] / blk["ops"] * 1e6 for blk in some]

    phase_start = time.perf_counter()
    for b in range(wl.n_blocks):
        run_block(b)
    if fault == "missing":
        wl._run([log.timed(wl.probe("/perfbench/never-written"))])

    # Everything on the sim clock is taken here, over the fixed blocks.
    fixed_ops = log.attempted
    sim_time = env.now
    lat = np.sort(np.frombuffer(log.lat, dtype=np.float64)[:fixed_ops])
    counters = layers.read_layers(wl, base, log, sim_time, tracer)
    values = {
        "sim_time_s": sim_time,
        "sim_op_mean_ms": float(lat.mean()) * 1e3,
        "sim_op_p99_ms": _percentile(lat, 99) * 1e3,
        "backend_bytes_ratio":
            base.backend_bytes(wl.tb) / max(1, counters.pop("_user_bytes")),
    }
    fixed = blocks[1:]
    counters["sim.events_per_host_s"] = (
        counters.pop("_sim_events") / sum(blk["host_s"] for blk in blocks))

    # Extra blocks: host clock only.  Traced runs detach first, so these
    # are the untraced reference for the tracing overhead.
    if tracer is not None:
        tracer.detach()
        log.tracer = None
        tracer.start_sampler()
    n_fixed = len(blocks)
    while len(blocks) - n_fixed < MAX_EXTRA_BLOCKS and (
        len(blocks) - n_fixed < REFERENCE_BLOCKS if tracer is not None
        else wl.stationary and time.perf_counter() - phase_start < seconds
    ):
        run_block(len(blocks))
    if tracer is not None:
        tracer.stop_sampler()
        counters.update(tracer.sampler_figures())
    wl.finish(log)

    timed = fixed if tracer is not None else blocks[1:]
    per_op = per_op_us(timed)
    values["host_us_per_op"] = statistics.median(per_op)
    values["host_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    cpu_total = sum(blk["cpu_s"] for blk in timed)
    counters.update({
        "host.raw_us_per_op": statistics.median(
            blk["cpu_s"] / blk["ops"] for blk in timed) * 1e6,
        "host.machine_slowdown":
            statistics.median(blk["slowdown"] for blk in timed),
        "host.block_max_over_min": max(per_op) / min(per_op),
        "host.warmup_block_s": blocks[0]["host_s"],
        "host.wall_over_cpu":
            sum(blk["wall_s"] for blk in timed) / cpu_total,
    })
    if tracer is not None:
        # Like with like: as many traced blocks as reference blocks.
        counters["trace.overhead_frac"] = (
            statistics.median(per_op_us(fixed[-REFERENCE_BLOCKS:]))
            / statistics.median(per_op_us(blocks[n_fixed:])) - 1.0)
    return {
        "values": values, "counters": counters, "blocks": blocks,
        "samples": {
            "sim_op": fixed_ops,
            "sim_op_beyond_p99": fixed_ops - -(-fixed_ops * 99 // 100),
            "sim_op_p50_ms": _percentile(lat, 50) * 1e3,
            "timed_blocks": len(fixed),
            "extra_blocks": len(blocks) - n_fixed,
        },
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "full",
    fault: Optional[str] = None,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up, run and measure one workload; returns the result record.

    ``fault`` is the smoke test's proof that the verifier can fail:
    ``"corrupt"`` flips one byte of one delivered payload, ``"missing"``
    asks for a file the program was never given.
    """
    load_before = os.getloadavg()[0]
    walls = [time.perf_counter()]
    wl = WORKLOADS[name](seed, scale)
    wl.make_inputs()
    walls.append(time.perf_counter())
    cal = Calibrator()
    setup_rounds = _set_up(wl, cal, scale)
    walls.append(time.perf_counter())
    log = OpLog(wl.tb.env, cal, wl.ops_per_loop)
    if fault == "corrupt":
        log.corrupt_op = 3
    tracer = None
    # Everything alive now is fixture or input: keep the collector from
    # re-walking it during the timed phase (GC itself stays enabled).
    gc.collect()
    gc.freeze()
    try:
        if trace:
            tracer = log.tracer = Tracer(wl.tb.env)
            tracer.attach(wl)
        phase = _timed_phase(wl, log, cal, tracer, seconds, fault)
    finally:
        if tracer is not None:
            tracer.shutdown()
        gc.unfreeze()
    walls.append(time.perf_counter())

    values = {"setup_s": statistics.median(setup_rounds), **phase["values"]}
    result = {
        "schema": 2,
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "seconds": seconds,
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "failed_op_frac": log.failed / log.attempted,
        "errors": log.errors,
        "end_to_end": {m.name: _val(m, values[m.name]) for m in END_TO_END},
        "per_layer": {
            m.name: _val(m, phase["counters"][m.name])
            for m in PER_LAYER if m.name in phase["counters"]
        },
        "samples": {**phase["samples"], "setup_rounds_s": setup_rounds,
                    "reference_loops": cal.ticks},
        "blocks": phase["blocks"],
        "wall_s": dict(zip(("inputs", "setup", "timed_phase"),
                           (b - a for a, b in zip(walls, walls[1:])))),
        "host": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load_before": load_before,
            "load_after": os.getloadavg()[0],
        },
    }
    if tracer is not None:
        result["trace_detail"] = tracer.detail()
        if spans_path:
            result["trace_detail"]["spans_written"] = tracer.write_spans(
                spans_path)
    return result


def warnings_for(result: Dict[str, Any]) -> List[str]:
    """Reasons to distrust the host figures of ``result`` (never fatal)."""
    out = []
    host = result["host"]
    load = max(host["load_before"], host["load_after"])
    if load > host["nproc"]:
        out.append(f"load average {load:.2f} > nproc {host['nproc']}")
    spread = result["per_layer"]["host.block_max_over_min"]["value"]
    if spread > 1.5:
        out.append(f"host.block_max_over_min {spread:.2f} > 1.5")
    return out
