"""Integration with realistic dataset shapes (lognormal sizes, classed
paths): a scaled ImageNet-1K spec driven through the full DIESEL stack."""

from dataclasses import replace

import pytest

from repro.bench.setups import deploy, diesel_client_with_snapshot
from repro.workloads.datasets import CIFAR10, IMAGENET_1K
from repro.workloads.filegen import generate_file, verify_file


@pytest.fixture(scope="module")
def scaled_imagenet():
    # One file per class: 1000 files here, with the real lognormal
    # size distribution.
    spec = replace(IMAGENET_1K, n_files=IMAGENET_1K.n_classes,
                   name="imagenet-1k-small")
    files = {
        spec.path_of(i): generate_file(spec.path_of(i), int(size))
        for i, size in enumerate(spec.sizes())
    }
    tb = deploy(2, spec.name, files)
    client = diesel_client_with_snapshot(
        tb, spec.name, tb.compute_nodes[0], "reader"
    )
    return spec, tb, files, client


class TestScaledImagenet:
    def test_spec_scale(self, scaled_imagenet):
        spec, tb, files, client = scaled_imagenet
        assert spec.n_files == len(files) == 1000
        # Lognormal sizes: genuinely heterogeneous.
        sizes = {len(d) for d in files.values()}
        assert len(sizes) > 100

    def test_chunk_count_matches_size_arithmetic(self, scaled_imagenet):
        spec, tb, files, client = scaled_imagenet
        total = sum(len(d) for d in files.values())
        n_chunks = len(tb.store.list_keys())
        # ~110KB files into 4MB chunks: about total/4MB chunks.
        assert n_chunks == pytest.approx(total / (4 * 2**20), abs=2)

    def test_every_file_roundtrips(self, scaled_imagenet):
        spec, tb, files, client = scaled_imagenet

        def verify():
            for path, expected in files.items():
                data = yield from client.get(path)
                assert data == expected
                assert verify_file(data)

        tb.run(verify())

    def test_class_directories_listed(self, scaled_imagenet):
        spec, tb, files, client = scaled_imagenet

        def proc():
            listing = yield from client.ls(f"/{spec.name}/train")
            return listing

        listing = tb.run(proc())
        # 1000 files round-robin over 1000 classes: one dir each.
        assert len(listing) == 1000

    def test_chunkwise_epoch_on_heterogeneous_sizes(self, scaled_imagenet):
        spec, tb, files, client = scaled_imagenet
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=1)
        assert sorted(plan.files) == sorted(files)

        def epoch():
            for path in plan.files[:100]:
                data = yield from client.get(path)
                assert data == files[path]

        tb.run(epoch())


class TestCifarShape:
    def test_cifar_files_constant_size(self):
        sizes = replace(CIFAR10, n_files=60).sizes()
        assert len(set(sizes.tolist())) == 1  # sigma=0: constant sizes
        assert all(s == CIFAR10.mean_file_bytes for s in sizes)
