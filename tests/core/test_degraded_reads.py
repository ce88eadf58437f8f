"""Degraded read paths: mid-flight peer death, breakers, tolerant pulls.

Covers the Fig 4 fall-through under failure: a read whose owning master
dies mid-call must land on the DIESEL server instead of erroring, and
an on-demand background fill must tolerate the master dying mid-pull.
"""

from repro.cluster.failure import FailureInjector
from repro.ft import RetryPolicy

from tests.core.test_dist_cache import setup_cache


def warm_rig(policy="oneshot", chunk_size=8 * 1024):
    dep, cache, clients, files, index = setup_cache(
        n_nodes=3, clients_per_node=1, policy=policy, chunk_size=chunk_size,
    )
    dep.run(cache.register())
    if policy == "oneshot":
        dep.run(cache.wait_warm())
    victim_node = dep.client_nodes[0]
    victim = cache.masters[victim_node.name]
    reader = next(c for c in clients if c.node.name != victim_node.name)
    path = next(
        p for p in files
        if cache.owner_of(index.lookup(p).chunk_id.encode()) is victim
    )
    return dep, cache, reader, victim_node, path, files, index


class TestMidFlightDegradation:
    def test_master_dying_mid_call_degrades_to_server(self):
        dep, cache, reader, victim_node, path, files, index = warm_rig()
        record = index.lookup(path)

        # Measure a warm peer hit to know how long the call takes.
        t0 = dep.env.now
        assert dep.run(cache.read_file(reader, record)) == files[path]
        hit_s = dep.env.now - t0
        assert hit_s > 0
        assert cache.stats.degraded_reads == 0

        # Kill the owner halfway through the next, identical call.
        inj = FailureInjector(dep.env)
        inj.kill_at(victim_node, dep.env.now + hit_s / 2)
        data = dep.run(cache.read_file(reader, record))
        assert data == files[path]  # served by the server, not an error
        assert cache.stats.degraded_reads == 1

    def test_known_dead_peer_degrades_without_attempting(self):
        dep, cache, reader, victim_node, path, files, index = warm_rig()
        victim_node.kill()
        for _ in range(3):
            assert dep.run(
                cache.read_file(reader, index.lookup(path))
            ) == files[path]
        assert cache.stats.degraded_reads == 3


class TestTolerantBackgroundPull:
    def test_pull_survives_master_death_as_a_dropped_pull(self):
        # Big chunks + tiny files: the background chunk pull far outlives
        # the read that triggered it, so the kill lands mid-pull.
        dep, cache, reader, victim_node, path, files, index = warm_rig(
            policy="on-demand", chunk_size=32 * 1024
        )
        record = index.lookup(path)
        victim = cache.masters[victim_node.name]
        data = dep.run(cache.read_file(reader, record))
        assert data == files[path]  # miss: fell through to the server
        # The on-demand fill is still in flight.
        assert not victim.has_chunk(record.chunk_id.encode())
        inj = FailureInjector(dep.env)
        inj.kill_at(victim_node, dep.env.now + 1e-6)
        dep.env.run()  # drain: the orphan pull must not blow up the sim
        assert cache.dropped_pulls == 1
        assert not victim.has_chunk(record.chunk_id.encode())

    def test_completed_pull_still_fills_the_cache(self):
        dep, cache, reader, victim_node, path, files, index = warm_rig(
            policy="on-demand", chunk_size=32 * 1024
        )
        record = index.lookup(path)
        victim = cache.masters[victim_node.name]
        dep.run(cache.read_file(reader, record))
        dep.env.run()  # let the pull finish undisturbed
        assert victim.has_chunk(record.chunk_id.encode())
        assert cache.dropped_pulls == 0


class TestBreakerShortCircuit:
    def test_tripped_breaker_skips_the_peer_and_still_serves_data(self):
        dep, cache, reader, victim_node, path, files, index = warm_rig()
        # An impossible deadline makes every peer attempt time out; after
        # two failures the breaker opens and later reads skip the peer.
        cache.configure_ft(
            RetryPolicy(retries=0, deadline_s=1e-7),
            breaker_threshold=2, breaker_reset_s=100.0,
        )
        record = index.lookup(path)
        for _ in range(4):
            assert dep.run(cache.read_file(reader, record)) == files[path]
        assert cache.stats.degraded_reads == 4
        breaker = cache._breakers[
            cache.masters[victim_node.name].client.name
        ]
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert breaker.rejections == 2  # reads 3 and 4 never hit the peer

    def test_retry_rides_out_a_blip_without_degrading(self):
        dep, cache, reader, victim_node, path, files, index = warm_rig()
        cache.configure_ft(RetryPolicy(retries=2, backoff_base_s=0.002))
        record = index.lookup(path)
        # Healthy peer + retry enabled: the warm hit is served normally.
        assert dep.run(cache.read_file(reader, record)) == files[path]
        assert cache.stats.degraded_reads == 0
