"""Dataset shape specifications (ImageNet-1K, CIFAR-10, Open Images).

Shapes from the paper's §1/§6: ImageNet-1K has ~1.28 M files averaging
~110 KB over 1000 classes; Open Images ~9 M files at ~60 KB; CIFAR-10 is
60 K tiny records.  Experiments build shrunken specs with the same
per-file statistics; they report *rates*, which are scale-invariant once
steady state is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of a training dataset of small files."""

    name: str
    n_files: int
    mean_file_bytes: int
    n_classes: int
    #: Lognormal sigma of the size distribution (0 → constant size).
    size_sigma: float = 0.35
    min_file_bytes: int = 512
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_files < 1 or self.n_classes < 1:
            raise ValueError("n_files and n_classes must be positive")
        if self.mean_file_bytes < self.min_file_bytes:
            raise ValueError("mean_file_bytes below min_file_bytes")

    def path_of(self, index: int) -> str:
        """Deterministic path for the ``index``-th file."""
        cls = index % self.n_classes
        return f"/{self.name}/train/class{cls:04d}/img{index:07d}.jpg"

    def sizes(self) -> np.ndarray:
        """Vectorized per-file sizes (fast path for large specs)."""
        if self.size_sigma == 0:
            return np.full(self.n_files, self.mean_file_bytes, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        mu = np.log(self.mean_file_bytes) - self.size_sigma**2 / 2
        sizes = rng.lognormal(mu, self.size_sigma, size=self.n_files)
        return np.maximum(self.min_file_bytes, sizes.astype(np.int64))


#: ImageNet-1K (§1): 1.28 M files, ~110 KB average, 1000 categories.
IMAGENET_1K = DatasetSpec(
    "imagenet-1k", n_files=1_281_167, mean_file_bytes=110 * 1024, n_classes=1000
)

#: Open Images V4 (§1): ~9 M images at ~60 KB.
OPEN_IMAGES = DatasetSpec(
    "open-images", n_files=9_000_000, mean_file_bytes=60 * 1024, n_classes=600
)

#: CIFAR-10 (§6): 60 K tiny images (~3 KB each as stored files).
CIFAR10 = DatasetSpec(
    "cifar-10",
    n_files=60_000,
    mean_file_bytes=3 * 1024,
    n_classes=10,
    size_sigma=0.0,
    min_file_bytes=512,
)
