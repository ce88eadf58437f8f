"""Request observability: span tracing + latency histograms.

The paper's argument is a latency-breakdown argument — the Fig 4 read
chain (group cache → task-grained cache → DIESEL server → object store)
wins because each hop it removes is measurable.  This package makes the
breakdown first-class for the reproduction:

* :class:`~repro.obs.span.Span` / :class:`~repro.obs.span.SpanRecorder`
  — sim-clock-timed spans tagged with the layer that resolved each
  request, zero-cost when no recorder is attached;
* :class:`~repro.obs.histogram.Histogram` — log-bucketed latency
  histograms with p50/p90/p99, one per (op, layer);
* :func:`~repro.obs.export.write_chrome_trace` — span dump loadable in
  ``chrome://tracing``; ``SpanRecorder.to_dict()`` merges, like every
  ``*Stats`` class on :mod:`repro.obs.counters`, into ``stats_row``.

The task cache's degraded path reports through the same recorder
under ``ft_*`` ops (``ft_peer_failure``, ``ft_dropped_pull``).  Same
zero-overhead contract: every site is one ``None`` check when no
recorder is attached.

See ``docs/OBSERVABILITY.md`` for the model and a worked example,
``docs/FAULTS.md`` for the failure scenarios.
"""

from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.obs.histogram import Histogram
from repro.obs.span import Span, SpanRecorder

__all__ = [
    "Histogram",
    "Span",
    "SpanRecorder",
    "chrome_trace_events",
    "write_chrome_trace",
]
