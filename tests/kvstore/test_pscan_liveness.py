"""Liveness semantics of sharded scans."""

import pytest

from repro.errors import ShardUnavailableError

from tests.kvstore.test_kv import build_cluster


def populate(kv, n=40):
    for i in range(n):
        kv.local_put(f"k/{i:03d}", b"v" * 8)


class TestUpFrontValidation:
    def test_pscan_fails_fast_before_paying_any_shard(self):
        kv = build_cluster(n_instances=4)
        populate(kv)
        kv.instances[2].node.kill()
        kv.instances[3].node.kill()
        with pytest.raises(ShardUnavailableError) as exc_info:
            kv.local_pscan("k/")
        # All dead shards named in one error, before any shard is read.
        assert "kv2" in str(exc_info.value)
        assert "kv3" in str(exc_info.value)

    def test_local_pscan_same_validation(self):
        kv = build_cluster(n_instances=4)
        populate(kv)
        kv.instances[1].node.kill()
        with pytest.raises(ShardUnavailableError):
            kv.local_pscan_page("k/")

    def test_all_alive_scan_is_complete_and_sorted(self):
        kv = build_cluster(n_instances=4)
        populate(kv, n=25)
        out = kv.local_pscan("k/")
        assert [k for k, _ in out] == sorted(f"k/{i:03d}" for i in range(25))
