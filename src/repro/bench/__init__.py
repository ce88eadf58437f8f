"""Experiment harness regenerating every table and figure of §6.

One entry point per paper artifact (see DESIGN.md §4 for the index):

========  ====================================================
Table 2   :func:`repro.bench.experiments.table2_read_bandwidth`
Fig 6     :func:`repro.bench.experiments.fig6_cache_degradation`
Fig 9     :func:`repro.bench.experiments.fig9_write_throughput`
Fig 10a   :func:`repro.bench.experiments.fig10a_metadata_scaling`
Fig 10b   :func:`repro.bench.experiments.fig10b_snapshot_scaling`
Fig 10c   :func:`repro.bench.experiments.fig10c_ls_elapsed`
Fig 11a   :func:`repro.bench.experiments.fig11a_read_scaling`
Fig 11b   :func:`repro.bench.experiments.fig11b_cache_recovery`
Fig 12    :func:`repro.bench.experiments.fig12_shuffle_bandwidth`
Fig 13    :func:`repro.bench.experiments.fig13_shuffle_accuracy`
Fig 14    :func:`repro.bench.experiments.fig14_data_access_time`
Fig 15    :func:`repro.bench.experiments.fig15_training_time`
========  ====================================================

Experiments run scaled-down workloads (file counts shrunk, thread counts
trimmed) and report *rates and ratios*, which are the quantities the
paper's claims are about.  Every function returns an
:class:`repro.bench.harness.ExperimentResult` whose ``rows`` can be
printed with :func:`repro.bench.reporting.format_table`.
"""

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import format_table

__all__ = ["ExperimentResult", "format_table"]
