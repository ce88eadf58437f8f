"""Tests for dataset specs and self-verifying file generation."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    CIFAR10,
    IMAGENET_1K,
    OPEN_IMAGES,
    DatasetSpec,
    generate_file,
    verify_file,
)


class TestFileGen:
    def test_size_exact(self):
        for size in (4, 100, 4096):
            assert len(generate_file("/a", size)) == size

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_file("/a", 3)

    def test_deterministic(self):
        assert generate_file("/a", 64, seed=1) == generate_file("/a", 64, seed=1)

    def test_distinct_paths_distinct_content(self):
        assert generate_file("/a", 64) != generate_file("/b", 64)

    def test_verification(self):
        data = generate_file("/x", 128)
        assert verify_file(data)
        corrupted = bytearray(data)
        corrupted[10] ^= 0xFF
        assert not verify_file(bytes(corrupted))
        assert not verify_file(data[:2])

    @settings(max_examples=25, deadline=None)
    @given(st.text(min_size=1, max_size=20), st.integers(4, 1024))
    def test_verify_property(self, path, size):
        assert verify_file(generate_file(path, size))


class TestDatasetSpec:
    def test_paper_shapes(self):
        assert IMAGENET_1K.n_files == 1_281_167
        assert IMAGENET_1K.n_classes == 1000
        assert IMAGENET_1K.mean_file_bytes == 110 * 1024
        assert OPEN_IMAGES.n_files == 9_000_000
        assert CIFAR10.n_files == 60_000
        assert CIFAR10.n_classes == 10

    def test_total_bytes_imagenet_is_about_150gb(self):
        """§6.5: ImageNet-1K is 'around 150GB'."""
        gb = IMAGENET_1K.n_files * IMAGENET_1K.mean_file_bytes / 2**30
        assert 100 < gb < 180

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec("x", 0, 1024, 10)
        with pytest.raises(ValueError):
            DatasetSpec("x", 10, 100, 10, min_file_bytes=200)

    def test_paths_are_stable_and_classed(self):
        spec = CIFAR10
        assert spec.path_of(0) == spec.path_of(0)
        assert "/class0003/" in spec.path_of(3)

    def test_sizes_deterministic_with_mean(self):
        spec = replace(IMAGENET_1K, n_files=200)
        sizes = spec.sizes().tolist()
        assert sizes == spec.sizes().tolist()
        mean = sum(sizes) / len(sizes)
        assert 0.6 * spec.mean_file_bytes < mean < 1.5 * spec.mean_file_bytes

    def test_constant_sizes_when_sigma_zero(self):
        spec = replace(CIFAR10, n_files=50)
        assert set(spec.sizes().tolist()) == {CIFAR10.mean_file_bytes}

    def test_vectorized_sizes_match_stats(self):
        spec = replace(IMAGENET_1K, n_files=1281)
        sizes = spec.sizes()
        assert len(sizes) == spec.n_files
        assert sizes.min() >= spec.min_file_bytes
        mean = sizes.mean()
        assert 0.8 * spec.mean_file_bytes < mean < 1.25 * spec.mean_file_bytes
