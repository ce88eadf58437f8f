"""The traced run: span proxies, the span recorder, a CPU sampler.

All three observe the program from outside.  *Span proxies* are set as
instance attributes over the public entry of each layer and record
(layer, name, sim start, sim end, op id, parent); the parent is the span
open in the same sim process, so a span started in a spawned process is
a root ("detached") — causal propagation across processes is a later
change inside the program.  A layer's sim self-time is its span minus
what its children cover.  The already-public ``repro.obs.SpanRecorder``
supplies the ``(op, layer)`` histograms.

The CPU sampler is a 1 ms ``ITIMER_REAL`` handler (``ITIMER_PROF`` only
fires at 250 Hz here) that charges each sample to the nearest enclosing
frame of the program (or of the benchmark itself: ``other``), so the
``*.host_share`` values sum to 1 by construction.  It runs over the
*reference* blocks, after the proxies and the recorder are detached:
with them on, a quarter of the samples land in the proxies and a tenth
in ``obs``, which says nothing about the program.  Samples that land in
a reference loop are dropped.
"""

from __future__ import annotations

import json
import os
import signal
from array import array
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import SpanRecorder, write_chrome_trace

from perfbench import layers
from perfbench.metrics import SHARE_LAYERS

SAMPLE_INTERVAL_S = 0.001
#: Raw spans kept for export (aggregates cover every span).
SPAN_WINDOW = 2_000

_SRC = os.sep + os.path.join("src", "repro") + os.sep
_BENCH = os.sep + "perfbench" + os.sep

#: Module path under ``src/repro/`` -> layer; first match wins.
_LAYER_OF = (
    ("sim/", "sim"), ("cluster/", "cluster"), ("rpc/", "rpc"),
    ("kvstore/", "kvstore"), ("objectstore/", "objectstore"),
    ("core/server", "core.server"),
    ("core/client", "core.client"), ("core/prefetch", "core.client"),
    ("core/shuffle", "core.client"), ("core/fuse", "core.client"),
    ("core/dist_cache", "core.dist_cache"),
    ("core/recovery", "core.dist_cache"),
    ("core/shared_cache", "core.shared_cache"),
    ("core/chunk_store", "core.chunk_store"),
    ("core/", "core.meta"),
    ("dlt/", "dlt"), ("util/", "util"), ("ft/", "ft"), ("obs/", "obs"),
)

#: Public entry points wrapped per instance, by layer.
_READER = ("dlt", ("read", "begin_epoch"))
_CLIENT = ("core.client", ("get", "put", "flush", "stat", "ls", "delete",
                           "refresh_meta"))
_CACHE = ("core.dist_cache", ("register", "wait_warm", "read_file"))
_SERVER = ("core.server", ("call", "call_batch"))
_ENDPOINT = ("rpc", ("call", "call_batch"))
_FABRIC = ("cluster", ("transfer",))
_DEVICE = ("cluster", ("read", "write"))
_KV = ("kvstore", ("get", "put", "pscan"))
_STORE = ("objectstore", ("get", "put", "get_range", "put_journaled"))
#: Zero-sim-time KV entry points: counted, not spanned.
_KV_LOCAL = ("local_put", "local_get", "local_get_or_none", "local_delete",
             "local_pscan", "local_pscan_page", "local_pcount")


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a source file; ``None`` for files of neither tree and
    ``"reference"`` for the reference loop's, whose samples are dropped."""
    at = filename.find(_SRC)
    if at < 0:
        if _BENCH not in filename:
            return None
        return "reference" if filename.endswith("calibrate.py") else "other"
    rel = filename[at + len(_SRC):].replace(os.sep, "/")
    for prefix, layer in _LAYER_OF:
        if rel.startswith(prefix):
            return layer
    return "other"


class LayerRecorder(SpanRecorder):
    """A ``SpanRecorder`` that also keeps the RPC queue/service samples
    of every endpoint together, for exact percentiles across methods."""

    def __init__(self, clock, capacity: int = SPAN_WINDOW) -> None:
        super().__init__(clock, capacity)
        self.rpc = {"queue": array("d"), "service": array("d")}

    def record(self, op: str, layer: str, duration: float, actor: str = "",
               **tags: Any) -> None:
        if op.startswith("rpc_") and layer in self.rpc:
            self.rpc[layer].append(duration)
        super().record(op, layer, duration, actor, **tags)


class _Span:
    __slots__ = ("layer", "name", "start", "end", "op", "parent", "children")

    def __init__(self, layer, name, start, op, parent) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.op = op
        self.parent = parent
        self.children = 0.0


class Tracer:
    """Owns the proxies, the recorder and the sampler of one traced run."""

    def __init__(self, env) -> None:
        self.env = env
        self.attached = False
        self.sampling = False
        self.recorder: Optional[LayerRecorder] = None
        self._wrapped: List[Tuple[Any, str]] = []
        self._recorded: list = []
        self._stacks: Dict[Any, List[_Span]] = {}
        self._next_op = 0
        #: (layer, name) -> [count, total sim s, self sim s], spans under
        #: an op and detached spans kept apart.
        self.in_op: Dict[Tuple[str, str], List[float]] = {}
        self.detached: Dict[Tuple[str, str], List[float]] = {}
        self.window: deque = deque(maxlen=SPAN_WINDOW)
        self.kv_calls = 0
        self._chunk_pulls: Dict[str, int] = {}
        self.duplicate_pulls = 0
        self.samples = {layer: 0 for layer in SHARE_LAYERS}
        self._file_layer: Dict[str, Optional[str]] = {}

    # -- spans ---------------------------------------------------------------
    def open(self, layer: str, name: str) -> _Span:
        stack = self._stacks.setdefault(self.env.active_process, [])
        parent = stack[-1] if stack else None
        if layer == "op":
            op = self._next_op
            self._next_op += 1
        else:
            op = parent.op if parent is not None else None
        span = _Span(layer, name, self.env.now, op, parent)
        stack.append(span)
        return span

    def close(self, span: _Span) -> None:
        proc = self.env.active_process
        stack = self._stacks.get(proc)
        if stack and stack[-1] is span:
            stack.pop()
            if not stack:
                del self._stacks[proc]
        span.end = self.env.now
        dur = span.end - span.start
        if span.parent is not None:
            span.parent.children += dur
        table = self.in_op if span.op is not None else self.detached
        row = table.get((span.layer, span.name))
        if row is None:
            row = table[(span.layer, span.name)] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - span.children
        self.window.append(span)

    def _span_proxy(self, layer: str, name: str, fn):
        def proxy(*args, **kwargs):
            span = self.open(layer, name)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                self.close(span)
        return proxy

    def _server_proxy(self, name: str, fn):
        # Besides the span, note which chunks are pulled more than once
        # per epoch block: the server's public stats cannot tell a
        # re-read from a first read.
        def proxy(client, *args, **kwargs):
            calls = [args] if name == "call" else args[0]
            for call in calls:
                if call[0] == "get_chunk":
                    self._chunk_pulls[call[2]] = (
                        self._chunk_pulls.get(call[2], 0) + 1)
            span = self.open("core.server", name)
            try:
                return (yield from fn(client, *args, **kwargs))
            finally:
                self.close(span)
        return proxy

    def _count_proxy(self, fn):
        def proxy(*args, **kwargs):
            self.kv_calls += 1
            return fn(*args, **kwargs)
        return proxy

    # -- attach / detach -----------------------------------------------------
    def _wrap(self, obj, names, make) -> None:
        for name in names:
            if name in vars(obj) or not hasattr(obj, name):
                continue  # already wrapped, or not part of this API
            setattr(obj, name, make(name, getattr(obj, name)))
            self._wrapped.append((obj, name))

    def _wrap_spans(self, objs, spec) -> None:
        layer, names = spec
        for obj in objs:
            self._wrap(obj, names,
                       lambda n, fn: self._span_proxy(layer, n, fn))

    def attach(self, wl) -> None:
        """Wrap every component ``wl`` has built so far.  Safe to repeat:
        readers and cache masters only exist after block 0."""
        tb = wl.tb
        components = [*wl.clients, *tb.diesel_servers, *wl.caches,
                      *tb.kv.instances]
        if wl.registry is not None:
            components.append(wl.registry)
        if self.recorder is None:
            self.recorder = LayerRecorder.attach(
                *components, capacity=SPAN_WINDOW)
        else:
            for comp in components:
                comp.recorder = self.recorder
        self._recorded = components
        self._wrap_spans(wl.readers, _READER)
        self._wrap_spans(wl.clients, _CLIENT)
        self._wrap_spans(wl.caches, _CACHE)
        self._wrap_spans([tb.kv], _KV)
        self._wrap_spans([tb.store], _STORE)
        self._wrap_spans(layers.endpoints(wl), _ENDPOINT)
        self._wrap_spans([tb.fabric], _FABRIC)
        self._wrap_spans(
            layers.store_devices(tb) + layers.cache_disks(wl), _DEVICE)
        for server in tb.diesel_servers:
            self._wrap(server, _SERVER[1], self._server_proxy)
        self._wrap(tb.kv, _KV_LOCAL, lambda n, fn: self._count_proxy(fn))
        self.attached = True

    def end_block(self) -> None:
        """Count chunks pulled from the server more than once in the
        block that just ended (a later epoch may pull them again)."""
        self.duplicate_pulls += sum(
            n - 1 for n in self._chunk_pulls.values())
        self._chunk_pulls.clear()

    def detach(self) -> None:
        for obj, name in self._wrapped:
            delattr(obj, name)
        self._wrapped.clear()
        SpanRecorder.detach(*self._recorded)
        self.attached = False

    def shutdown(self) -> None:
        """Leave nothing behind, wherever the run stopped."""
        if self.attached:
            self.detach()
        if self.sampling:
            self.stop_sampler()

    # -- sampler -------------------------------------------------------------
    def start_sampler(self) -> None:
        signal.signal(signal.SIGALRM, self._on_sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self.sampling = True

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sampling = False

    def _on_sample(self, signum, frame) -> None:
        cache = self._file_layer
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename, 0)
            if layer == 0:
                layer = cache[filename] = layer_of_file(filename)
            if layer is not None:
                if layer != "reference":
                    self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    # -- results -------------------------------------------------------------
    def sampler_figures(self) -> Dict[str, Any]:
        """Host self-time shares, from the sampled reference blocks."""
        total = sum(self.samples.values())
        out: Dict[str, Any] = {
            f"{layer}.host_share": n / total if total else 0.0
            for layer, n in self.samples.items()
        }
        out["trace.samples"] = total
        return out

    def layer_figures(self, ops: int) -> Dict[str, Any]:
        """The sim-clock figures only the proxies and the recorder see."""
        rec = self.recorder

        def pct(samples, q: float) -> float:
            if not len(samples):
                return 0.0
            s = np.sort(np.frombuffer(samples, dtype=np.float64))
            return float(s[(len(s) - 1) * q // 100]) * 1e3

        return {
            "rpc.queue_p50_ms": pct(rec.rpc["queue"], 50),
            "rpc.queue_p99_ms": pct(rec.rpc["queue"], 99),
            "rpc.service_p50_ms": pct(rec.rpc["service"], 50),
            "kvstore.calls_per_op": self.kv_calls / ops,
            "objectstore.chunk_read_p50_ms":
                rec.histogram("chunk_read", "objectstore").p50 * 1e3,
            "core.client.get_server_p99_ms":
                rec.histogram("get", "server").p99 * 1e3,
            "core.server.duplicate_chunk_reads": self.duplicate_pulls,
        }

    def detail(self) -> Dict[str, Any]:
        """Sim self-time per layer, reconciled against the op proxy."""
        op_total = self.in_op.get(("op", "op"), (0, 0.0, 0.0))[1]
        by_layer: Dict[str, float] = {}
        for (layer, _), (_, _, self_s) in self.in_op.items():
            by_layer[layer] = by_layer.get(layer, 0.0) + self_s

        def rows(table):
            return {
                f"{layer}:{name}": {"count": n, "total_s": t, "self_s": s}
                for (layer, name), (n, t, s) in sorted(table.items())
            }

        return {
            "sim_op_total_s": op_total,
            # Σ self over spans under an op, by layer; "op" is what no
            # wrapped layer covers (the benchmark's proxy and unwrapped
            # code such as peer RPCs between cache masters).
            "sim_self_s": by_layer,
            "residual_s": op_total - sum(by_layer.values()),
            "spans_in_op": rows(self.in_op),
            "spans_detached": rows(self.detached),
            "recorder": self.recorder.to_dict(),
            "sampler": dict(self.samples),
        }

    def write_spans(self, path: str) -> int:
        """Chrome-trace file: the recorder's spans plus the proxy spans
        still in the window (pid 2, one track per layer)."""
        n = write_chrome_trace(self.recorder, path)
        with open(path) as fh:
            events = json.load(fh)
        tids: Dict[str, int] = {}
        for span in self.window:
            tid = tids.setdefault(span.layer, len(tids) + 1)
            events.append({
                "name": f"{span.layer}:{span.name}", "cat": span.layer,
                "ph": "X", "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6, "pid": 2, "tid": tid,
                "args": {"op": span.op},
            })
        with open(path, "w") as fh:
            json.dump(events, fh)
        return n + len(self.window)
