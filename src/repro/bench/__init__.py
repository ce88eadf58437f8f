"""Experiment harness regenerating every table and figure of §6.

One entry point per paper artifact, registered by id in
:data:`repro.bench.experiments.ALL_EXPERIMENTS` (DESIGN.md §4 maps ids
to figures); :data:`repro.bench.claims.CLAIMS` states what each one's
rows must show, and ``python -m repro.bench.runner`` runs and judges
them.

Experiments run scaled-down workloads (file counts shrunk, thread counts
trimmed) and report *rates and ratios*, which are the quantities the
paper's claims are about.  Every function returns an
:class:`repro.bench.harness.ExperimentResult` whose ``rows`` can be
printed with :func:`repro.bench.reporting.format_table`.
"""

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import format_table

__all__ = ["ExperimentResult", "format_table"]
