"""Sim-clock spans and the zero-cost-when-detached span recorder.

The attach pattern: instrumented components carry a ``recorder``
attribute that defaults to ``None``, and every instrumentation site is
guarded by a single ``if recorder is None`` check — with no recorder
attached the hot path pays one attribute read and allocates nothing.

A :class:`Span` times one operation on the simulation clock and is
tagged with the **layer** that resolved it (for reads: ``group_cache |
task_cache | server | objectstore``, the Fig 4 chain; for writes and
cache maintenance: the pipeline stage).  Finished spans feed one
:class:`~repro.obs.histogram.Histogram` per ``(op, layer)`` pair, so
``p50/p90/p99`` per layer fall out for free, and are retained in a
bounded ring for trace export (:mod:`repro.obs.export`).

Usage::

    rec = SpanRecorder.attach(client, server, cache)
    ... run the workload ...
    rec.to_dict()                  # flat row for bench.reporting.stats_row
    rec.histogram("get", "server").p99
    write_chrome_trace(rec, "trace.json")
    SpanRecorder.detach(client, server, cache)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.obs.histogram import Histogram


def _sanitize(name: str) -> str:
    """Make an op/layer name safe as a flat column-name fragment."""
    return name.replace(":", "_").replace("/", "_").replace(" ", "_")


class Span:
    """One timed operation: ``op`` on ``actor``, resolved by ``layer``."""

    __slots__ = ("op", "actor", "start", "end", "layer", "tags")

    def __init__(self, op: str, actor: str, start: float) -> None:
        """Open a span at sim time ``start`` (use ``SpanRecorder.start``)."""
        self.op = op
        self.actor = actor
        self.start = start
        self.end: Optional[float] = None
        self.layer = ""
        self.tags: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        """Elapsed sim seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:
        """Debug form: op/layer plus timing."""
        return (
            f"Span({self.op!r}, layer={self.layer!r}, actor={self.actor!r}, "
            f"start={self.start:.9f}, dur={self.duration:.9f})"
        )


class SpanRecorder:
    """Collects spans, per-(op, layer) histograms, and event counters.

    ``clock`` is any zero-argument callable returning the current time —
    normally ``env.now`` of the simulation driving the instrumented
    components (``attach`` wires this up automatically).  Finished spans
    are kept in a bounded ring (``capacity``); histograms and counters
    are cumulative and never dropped.
    """

    def __init__(self, clock, capacity: int = 100_000) -> None:
        """Create a recorder reading time from ``clock``."""
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._clock = clock
        self.capacity = capacity
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self._hist: Dict[Tuple[str, str], Histogram] = {}
        self._counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def attach(cls, *components: Any, capacity: int = 100_000
               ) -> "SpanRecorder":
        """Create a recorder and set it on every component.

        The sim clock is taken from the first component's ``env``.  Each
        component's ``recorder`` attribute is assigned; components whose
        ``recorder`` is a propagating property (servers, task caches, KV
        instances) forward the assignment to their internal endpoints.
        """
        if not components:
            raise ValueError("attach needs at least one component")
        env = getattr(components[0], "env", None)
        if env is None:
            raise ValueError(
                f"{components[0]!r} has no .env to take the clock from"
            )
        recorder = cls(lambda: env.now, capacity=capacity)
        for comp in components:
            comp.recorder = recorder
        return recorder

    @staticmethod
    def detach(*components: Any) -> None:
        """Remove the recorder from every component (hot path goes dark)."""
        for comp in components:
            comp.recorder = None

    # ------------------------------------------------------------ recording
    def now(self) -> float:
        """Current sim time as seen by this recorder."""
        return self._clock()

    def start(self, op: str, actor: str = "") -> Span:
        """Open a span for ``op`` at the current sim time."""
        return Span(op, actor, self._clock())

    def finish(self, span: Span, layer: str = "", **tags: Any) -> Span:
        """Close ``span``, attributing it to ``layer``; records it."""
        span.end = self._clock()
        span.layer = layer
        if tags:
            span.tags = tags
        self._store(span)
        return span

    def record(
        self, op: str, layer: str, duration: float, actor: str = "",
        **tags: Any,
    ) -> None:
        """Record a completed operation without an open span object.

        The span's start is back-dated by ``duration`` from now — the
        one-call form for sites that already know elapsed time.
        """
        end = self._clock()
        span = Span(op, actor, end - duration)
        span.end = end
        span.layer = layer
        if tags:
            span.tags = tags
        self._store(span)

    def count(self, op: str, layer: str = "", n: int = 1) -> None:
        """Bump the ``(op, layer)`` event counter by ``n`` (no timing)."""
        key = (op, layer)
        self._counts[key] = self._counts.get(key, 0) + n

    def _store(self, span: Span) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        key = (span.op, span.layer)
        hist = self._hist.get(key)
        if hist is None:
            hist = self._hist[key] = Histogram()
        hist.add(span.duration)

    # -------------------------------------------------------------- queries
    def spans(self) -> list:
        """Finished spans still in the retained window (oldest first)."""
        return list(self._spans)

    def __len__(self) -> int:
        """Number of retained spans."""
        return len(self._spans)

    def histogram(self, op: str, layer: str = "") -> Histogram:
        """The ``(op, layer)`` latency histogram (empty one if unseen)."""
        return self._hist.get((op, layer)) or Histogram()

    @property
    def counts(self) -> Dict[Tuple[str, str], int]:
        """All ``(op, layer)`` event counters."""
        return dict(self._counts)

    def layers(self, op: str) -> Dict[str, int]:
        """Per-layer resolution counts for ``op`` (histogram ∪ counters)."""
        out: Dict[str, int] = {}
        for (o, layer), hist in self._hist.items():
            if o == op:
                out[layer] = out.get(layer, 0) + hist.count
        for (o, layer), n in self._counts.items():
            if o == op:
                out[layer] = out.get(layer, 0) + n
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Flatten everything into one row of plain numbers.

        For every timed ``(op, layer)``: ``{op}_{layer}_n``,
        ``{op}_{layer}_p50_ms`` and ``{op}_{layer}_p99_ms``; for every
        counter: ``{op}_{layer}_count``.  The format
        ``bench.reporting.stats_row`` consumes — a recorder can be
        passed to it exactly like a stats object.
        """
        out: Dict[str, Any] = {}
        for (op, layer) in sorted(self._hist):
            hist = self._hist[(op, layer)]
            base = _sanitize(f"{op}_{layer}" if layer else op)
            out[f"{base}_n"] = hist.count
            out[f"{base}_p50_ms"] = hist.p50 * 1e3
            out[f"{base}_p99_ms"] = hist.p99 * 1e3
        for (op, layer) in sorted(self._counts):
            base = _sanitize(f"{op}_{layer}" if layer else op)
            out[f"{base}_count"] = self._counts[(op, layer)]
        return out

    def summary(self) -> str:
        """Human-readable per-(op, layer) table (for dlcmd stats)."""
        lines = [f"{'op':<18} {'layer':<12} {'n':>7} {'p50 ms':>10} "
                 f"{'p99 ms':>10} {'mean ms':>10}"]
        for (op, layer) in sorted(self._hist):
            hist = self._hist[(op, layer)]
            lines.append(
                f"{op:<18} {layer:<12} {hist.count:>7} "
                f"{hist.p50 * 1e3:>10.4f} {hist.p99 * 1e3:>10.4f} "
                f"{hist.mean * 1e3:>10.4f}"
            )
        for (op, layer) in sorted(self._counts):
            lines.append(
                f"{op:<18} {layer:<12} {self._counts[(op, layer)]:>7} "
                f"{'-':>10} {'-':>10} {'-':>10}"
            )
        return "\n".join(lines)
