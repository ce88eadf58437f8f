"""Synthetic multi-class data for the shuffle-accuracy experiment (Fig 13).

The paper trains ResNet-50/ImageNet and ResNet-18/CIFAR-10 to show that
chunk-wise shuffle matches shuffle-over-dataset accuracy.  That claim is
*order-statistical* — it depends on the stream of training examples, not
on the vision architecture — so the reproduction trains a real numpy
classifier on a Gaussian-mixture dataset instead (see DESIGN.md §2).

Samples can be serialized to per-sample "files" so the exact DIESEL
chunk/shuffle machinery (not a shortcut) produces the training order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

_SAMPLE_HEAD = struct.Struct(">HH")  # n_features, label


def encode_sample(features: np.ndarray, label: int) -> bytes:
    """Pack one sample as a standalone file payload."""
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 1:
        raise ValueError("features must be a 1-D vector")
    if not 0 <= label < 1 << 16:
        raise ValueError("label out of range")
    return _SAMPLE_HEAD.pack(feats.shape[0], label) + feats.tobytes()


def decode_sample(blob: bytes) -> tuple[np.ndarray, int]:
    n_features, label = _SAMPLE_HEAD.unpack_from(blob, 0)
    feats = np.frombuffer(blob, dtype=np.float32, offset=_SAMPLE_HEAD.size,
                          count=n_features).copy()
    return feats, label


@dataclass
class SyntheticDataset:
    """A seeded Gaussian-mixture classification dataset."""

    X: np.ndarray  # (n, d) float32
    y: np.ndarray  # (n,) int64
    n_classes: int

    @classmethod
    def make(
        cls,
        n_samples: int = 4000,
        n_features: int = 32,
        n_classes: int = 10,
        class_sep: float = 2.0,
        noise: float = 1.0,
        seed: int = 0,
    ) -> "SyntheticDataset":
        """Gaussian blobs: one random unit-ish mean per class + noise."""
        if n_classes < 2:
            raise ValueError("need at least two classes")
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, 1.0, size=(n_classes, n_features))
        means *= class_sep / np.linalg.norm(means, axis=1, keepdims=True)
        y = rng.integers(0, n_classes, size=n_samples)
        X = means[y] + rng.normal(0.0, noise, size=(n_samples, n_features))
        return cls(X.astype(np.float32), y.astype(np.int64), n_classes)

    def split(self, test_fraction: float = 0.25, seed: int = 1):
        """(train, test) split with shuffled assignment."""
        if not 0 < test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        n = len(self.y)
        order = rng.permutation(n)
        n_test = int(n * test_fraction)
        test_idx, train_idx = order[:n_test], order[n_test:]
        train = SyntheticDataset(self.X[train_idx], self.y[train_idx], self.n_classes)
        test = SyntheticDataset(self.X[test_idx], self.y[test_idx], self.n_classes)
        return train, test

    def __len__(self) -> int:
        return len(self.y)

    def as_files(self, prefix: str = "/synth") -> dict[str, bytes]:
        """Serialize every sample as its own file (path → payload)."""
        return {
            f"{prefix}/class{int(self.y[i]):03d}/sample{i:06d}.bin":
                encode_sample(self.X[i], int(self.y[i]))
            for i in range(len(self.y))
        }
