"""Liveness semantics of sharded scans and shard RPCs."""

import pytest

from repro.errors import NodeDownError, ShardUnavailableError
from repro.sim import run_sync

from tests.kvstore.test_kv import build_cluster


def populate(env, kv, client, n=40):
    def writer(env):
        for i in range(n):
            yield from kv.put(client, f"k/{i:03d}", b"v" * 8)

    run_sync(env, writer(env))


class TestUpFrontValidation:
    def test_pscan_fails_fast_before_paying_any_shard(self):
        env, _, kv, (client,) = build_cluster(n_instances=4)
        populate(env, kv, client)
        kv.instances[2].node.kill()
        kv.instances[3].node.kill()
        t0 = env.now
        with pytest.raises(ShardUnavailableError) as exc_info:
            run_sync(env, kv.pscan(client, "k/"))
        # All dead shards named in one error, and no RPC cost was paid:
        # the scan rejected before touching even the live shards.
        assert "kv2" in str(exc_info.value)
        assert "kv3" in str(exc_info.value)
        assert env.now == t0

    def test_local_pscan_same_validation(self):
        env, _, kv, (client,) = build_cluster(n_instances=4)
        populate(env, kv, client)
        kv.instances[1].node.kill()
        with pytest.raises(ShardUnavailableError):
            kv.local_pscan("k/")

    def test_all_alive_scan_is_complete_and_sorted(self):
        env, _, kv, (client,) = build_cluster(n_instances=4)
        populate(env, kv, client, n=25)
        out = run_sync(env, kv.pscan(client, "k/"))
        assert [k for k, _ in out] == sorted(f"k/{i:03d}" for i in range(25))

    def test_dead_shard_get_fails_before_any_cost(self):
        env, _, kv, (client,) = build_cluster(n_instances=2)
        populate(env, kv, client, n=10)
        kv.owner("k/000").node.kill()
        t0 = env.now
        with pytest.raises(ShardUnavailableError):
            run_sync(env, kv.get(client, "k/000"))
        assert env.now == t0  # single up-check, nothing paid


class TestMidScanDeath:
    def test_shard_dying_mid_scan_raises(self):
        # Slow shards so the scan is in flight long enough to kill one.
        env, _, kv, (client,) = build_cluster(n_instances=4, qps=100)
        populate(env, kv, client)
        victim = kv.instances[3]  # scanned last

        def scan_and_kill(env):
            def killer(env):
                yield env.timeout(1e-4)
                victim.node.kill()

            env.process(killer(env))
            result = yield from kv.pscan(client, "k/")
            return result

        with pytest.raises((NodeDownError, ShardUnavailableError)):
            run_sync(env, scan_and_kill(env))
