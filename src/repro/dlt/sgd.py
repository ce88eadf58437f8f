"""Real mini-batch SGD classifiers (numpy, fully vectorized).

Used by the Fig 13 reproduction: train the same model with different
epoch *orders* (shuffle-over-dataset vs chunk-wise shuffle at several
group sizes) and compare top-1/top-5 accuracy trajectories.  The training
step is ordinary cross-entropy SGD; nothing about the order is special-
cased, so any accuracy difference between orders is genuine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def top_k_accuracy(scores: np.ndarray, y: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose true label is within the top-k scores."""
    if scores.ndim != 2:
        raise ValueError("scores must be (n, classes)")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, scores.shape[1])
    # argpartition: top-k indices per row in O(n·C)
    topk = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    return float(np.mean((topk == y[:, None]).any(axis=1)))


class SoftmaxClassifier:
    """Multinomial logistic regression trained with mini-batch SGD."""

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        lr: float = 0.1,
        weight_decay: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if n_features < 1 or n_classes < 2:
            raise ValueError("invalid dimensions")
        rng = np.random.default_rng(seed)
        self.W = rng.normal(0, 0.01, size=(n_features, n_classes)).astype(np.float64)
        self.b = np.zeros(n_classes)
        self.lr = lr
        self.weight_decay = weight_decay

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.W + self.b

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        p = _softmax(self.scores(X))
        nll = -np.log(np.clip(p[np.arange(len(y)), y], 1e-12, None))
        return float(nll.mean())

    def _step(self, X: np.ndarray, y: np.ndarray) -> None:
        n = len(y)
        p = _softmax(self.scores(X))
        p[np.arange(n), y] -= 1.0
        grad_W = X.T @ p / n + self.weight_decay * self.W
        grad_b = p.mean(axis=0)
        self.W -= self.lr * grad_W
        self.b -= self.lr * grad_b

    def train_epoch(
        self,
        X: np.ndarray,
        y: np.ndarray,
        order: Sequence[int],
        batch_size: int = 32,
    ) -> None:
        """One pass over the data in the *given* order."""
        order = np.asarray(order)
        if order.shape[0] != len(y):
            raise ValueError("order must index every sample exactly once")
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            self._step(X[idx], y[idx])


def train_with_orders(
    model_factory,
    X: np.ndarray,
    y: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    orders_per_epoch: Sequence[Sequence[int]],
    batch_size: int = 32,
) -> list[dict]:
    """Train one model through a sequence of per-epoch orders.

    Returns per-epoch records: {'epoch', 'top1', 'top5', 'loss'} measured
    on the held-out set.  This is the Fig 13 measurement loop.
    """
    model = model_factory()
    history = []
    for epoch, order in enumerate(orders_per_epoch):
        model.train_epoch(X, y, order, batch_size=batch_size)
        scores = model.scores(X_test)
        record = {
            "epoch": epoch,
            "top1": top_k_accuracy(scores, y_test, 1),
            "top5": top_k_accuracy(scores, y_test, 5),
        }
        if hasattr(model, "loss"):
            record["loss"] = model.loss(X_test, y_test)
        history.append(record)
    return history
