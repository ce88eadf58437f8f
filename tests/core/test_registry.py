"""Tests for the sharded dataset registry."""

import pytest

from repro.core.registry import (
    MAX_REGISTRY_SHARDS,
    DatasetRegistry,
    registry_key,
)

from tests.kvstore.test_kv import build_cluster


def make_registry(n_shards=8):
    _, _, kv, _ = build_cluster(n_instances=4)
    return kv, DatasetRegistry(kv, n_shards)


class TestMembership:
    def test_add_contains_remove(self):
        _, reg = make_registry()
        reg.add("imagenet")
        assert "imagenet" in reg
        assert "coco" not in reg
        assert reg.remove("imagenet") is True
        assert "imagenet" not in reg
        assert reg.remove("imagenet") is False

    def test_add_is_idempotent(self):
        _, reg = make_registry()
        reg.add("ds")
        reg.add("ds")
        assert reg.count() == 1

    def test_shard_bounds_validated(self):
        kv, _ = make_registry()
        with pytest.raises(ValueError):
            DatasetRegistry(kv, 0)
        with pytest.raises(ValueError):
            DatasetRegistry(kv, MAX_REGISTRY_SHARDS + 1)

    def test_keys_live_under_their_hash_shard(self):
        kv, reg = make_registry()
        reg.add("imagenet")
        shard = reg.shard_of("imagenet")
        key = registry_key(shard, "imagenet")
        assert kv.local_get_or_none(key) == b""


class TestListing:
    def populated(self, n=50, n_shards=8):
        kv, reg = make_registry(n_shards)
        names = [f"ds-{i:03d}" for i in range(n)]
        for name in names:
            reg.add(name)
        return kv, reg, names

    def test_dataset_names_sorted_and_complete(self):
        _, reg, names = self.populated()
        assert reg.dataset_names() == sorted(names)

    def test_count_and_occupancy(self):
        _, reg, names = self.populated()
        occ = reg.occupancy()
        assert len(occ) == reg.n_shards
        assert sum(occ) == reg.count() == len(names)

    def test_paged_listing_is_bit_identical_to_full(self):
        _, reg, names = self.populated()
        for limit in (1, 7, 49, 50, 500):
            walked, cursor = [], None
            while True:
                page, cursor = reg.list_page(cursor, limit)
                walked.extend(page)
                if cursor is None:
                    break
            assert walked == sorted(names)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_rejected(self, limit):
        _, reg, _ = self.populated()
        with pytest.raises(ValueError):
            reg.list_page(limit=limit)

    def test_page_is_globally_sorted_across_shards(self):
        _, reg, names = self.populated(n=40, n_shards=16)
        page, _ = reg.list_page(limit=10)
        assert page == sorted(names)[:10]
