"""Deep-learning-training workload layer.

Two distinct concerns, matching how the paper evaluates:

* **I/O + timing** (Figs 14–15): :mod:`repro.dlt.trainer` runs a
  pipelined training loop in simulated time — I/O workers prefetch
  mini-batches through a storage reader while a compute process consumes
  them with per-model iteration costs
  (:data:`repro.calibration.MODEL_ZOO`).
* **Learning + accuracy** (Fig 13): :mod:`repro.dlt.sgd` trains a real
  numpy classifier on :mod:`repro.dlt.synthetic` data, comparing
  shuffle-over-dataset against chunk-wise shuffle orders.
"""

from repro.dlt.dataloader import Batch, SimDataLoader
from repro.dlt.sgd import SoftmaxClassifier, top_k_accuracy
from repro.dlt.synthetic import SyntheticDataset, decode_sample, encode_sample
from repro.dlt.trainer import IterationTiming, TrainingResult, run_training

__all__ = [
    "Batch",
    "IterationTiming",
    "SimDataLoader",
    "SoftmaxClassifier",
    "SyntheticDataset",
    "TrainingResult",
    "decode_sample",
    "encode_sample",
    "run_training",
    "top_k_accuracy",
]
