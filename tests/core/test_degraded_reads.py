"""Degraded read paths: mid-flight peer death, tolerant pulls.

Covers the Fig 4 fall-through under failure: a read whose owning master
dies mid-call must land on the DIESEL server instead of erroring, and
an on-demand background fill must tolerate the master dying mid-pull.
"""

from tests.core.test_dist_cache import setup_cache


def kill_after(env, delay_s, node):
    """A process body that kills ``node`` ``delay_s`` from now."""
    yield env.timeout(delay_s)
    node.kill()


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
        dep.env.process(kill_after(dep.env, hit_s / 2, victim_node))
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
        dep.env.process(kill_after(dep.env, 1e-6, victim_node))
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
