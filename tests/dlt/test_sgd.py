"""Tests for the numpy SGD classifiers and synthetic data."""

import numpy as np
import pytest

from repro.dlt.sgd import (
    SoftmaxClassifier,
    top_k_accuracy,
    train_with_orders,
)
from repro.dlt.synthetic import SyntheticDataset, decode_sample, encode_sample


class TestSynthetic:
    def test_shapes(self):
        ds = SyntheticDataset.make(n_samples=500, n_features=16, n_classes=7)
        assert ds.X.shape == (500, 16)
        assert ds.y.shape == (500,)
        assert set(np.unique(ds.y)) <= set(range(7))

    def test_deterministic(self):
        a = SyntheticDataset.make(seed=5)
        b = SyntheticDataset.make(seed=5)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_split(self):
        ds = SyntheticDataset.make(n_samples=1000)
        train, test = ds.split(test_fraction=0.2)
        assert len(train) == 800 and len(test) == 200
        with pytest.raises(ValueError):
            ds.split(test_fraction=0)

    def test_separable_data_is_learnable(self):
        ds = SyntheticDataset.make(n_samples=2000, class_sep=4.0, noise=0.5)
        train, test = ds.split()
        clf = SoftmaxClassifier(ds.X.shape[1], ds.n_classes, lr=0.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            clf.train_epoch(train.X, train.y, rng.permutation(len(train)), 32)
        acc = top_k_accuracy(clf.scores(test.X), test.y, 1)
        assert acc > 0.9

    def test_sample_codec_roundtrip(self):
        feats = np.arange(8, dtype=np.float32)
        blob = encode_sample(feats, 3)
        out_f, out_l = decode_sample(blob)
        assert np.array_equal(out_f, feats) and out_l == 3

    def test_sample_codec_validation(self):
        with pytest.raises(ValueError):
            encode_sample(np.zeros((2, 2), np.float32), 0)
        with pytest.raises(ValueError):
            encode_sample(np.zeros(4, np.float32), 1 << 16)

    def test_as_files_roundtrip(self):
        ds = SyntheticDataset.make(n_samples=50, n_features=4)
        files = ds.as_files()
        assert len(files) == 50
        samples = [decode_sample(blob) for blob in files.values()]
        # Same multiset of labels, same feature width.
        assert sorted(label for _, label in samples) == sorted(ds.y.tolist())
        assert {feats.shape for feats, _ in samples} == {ds.X.shape[1:]}


class TestTopK:
    def test_top1(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert top_k_accuracy(scores, np.array([1, 0]), 1) == 1.0
        assert top_k_accuracy(scores, np.array([0, 1]), 1) == 0.0

    def test_topk_superset_of_top1(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(200, 10))
        y = rng.integers(0, 10, 200)
        t1 = top_k_accuracy(scores, y, 1)
        t5 = top_k_accuracy(scores, y, 5)
        assert t5 >= t1
        assert abs(t5 - 0.5) < 0.15  # random scores: top-5 of 10 ≈ 0.5

    def test_k_clamped_to_classes(self):
        scores = np.array([[0.3, 0.7]])
        assert top_k_accuracy(scores, np.array([0]), 99) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros(3), np.zeros(3, int), 1)
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((3, 2)), np.zeros(3, int), 0)


class TestClassifiers:
    @pytest.mark.parametrize("cls", [SoftmaxClassifier])
    def test_training_reduces_error(self, cls):
        ds = SyntheticDataset.make(n_samples=1500, class_sep=3.0, seed=2)
        train, test = ds.split()
        clf = cls(ds.X.shape[1], ds.n_classes)
        acc0 = top_k_accuracy(clf.scores(test.X), test.y, 1)
        rng = np.random.default_rng(0)
        for _ in range(15):
            clf.train_epoch(train.X, train.y, rng.permutation(len(train)), 32)
        acc1 = top_k_accuracy(clf.scores(test.X), test.y, 1)
        assert acc1 > acc0 + 0.2

    def test_order_must_cover_dataset(self):
        clf = SoftmaxClassifier(4, 3)
        X = np.zeros((10, 4))
        y = np.zeros(10, int)
        with pytest.raises(ValueError):
            clf.train_epoch(X, y, [0, 1, 2], 2)

    def test_deterministic_given_seed_and_order(self):
        ds = SyntheticDataset.make(n_samples=300)
        order = np.arange(300)
        a = SoftmaxClassifier(ds.X.shape[1], ds.n_classes, seed=3)
        b = SoftmaxClassifier(ds.X.shape[1], ds.n_classes, seed=3)
        a.train_epoch(ds.X, ds.y, order, 32)
        b.train_epoch(ds.X, ds.y, order, 32)
        assert np.array_equal(a.W, b.W)

    def test_train_with_orders_history(self):
        ds = SyntheticDataset.make(n_samples=800, class_sep=3.0)
        train, test = ds.split()
        rng = np.random.default_rng(1)
        orders = [rng.permutation(len(train)) for _ in range(5)]
        history = train_with_orders(
            lambda: SoftmaxClassifier(ds.X.shape[1], ds.n_classes),
            train.X, train.y, test.X, test.y, orders,
        )
        assert len(history) == 5
        assert history[-1]["top1"] > history[0]["top1"] - 0.05
        assert all(h["top5"] >= h["top1"] for h in history)
