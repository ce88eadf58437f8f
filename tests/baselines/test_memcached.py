"""Tests for the Memcached cluster baseline."""

import pytest

from repro.baselines import MemcachedCluster
from repro.calibration import MemcachedProfile
from repro.cluster import NetworkFabric, Node
from repro.errors import NodeDownError
from repro.sim import Environment, run_sync


def make_cluster(n_servers=4, **profile_kw):
    env = Environment()
    fabric = NetworkFabric(env)
    nodes = [fabric.add_node(Node(env, f"mc{i}")) for i in range(n_servers)]
    client = fabric.add_node(Node(env, "client"))
    profile = MemcachedProfile(**profile_kw) if profile_kw else None
    return env, MemcachedCluster(env, fabric, nodes, profile=profile), client


class TestMemcached:
    def test_needs_nodes(self):
        env = Environment()
        fabric = NetworkFabric(env)
        with pytest.raises(ValueError):
            MemcachedCluster(env, fabric, [])

    def test_set_get_roundtrip(self):
        env, mc, client = make_cluster()

        def proc(env):
            yield from mc.set(client, "k", b"value")
            v = yield from mc.get(client, "k")
            return v

        assert run_sync(env, proc(env)) == b"value"

    def test_miss_returns_none(self):
        env, mc, client = make_cluster()

        def proc(env):
            v = yield from mc.get(client, "missing")
            return v

        assert run_sync(env, proc(env)) is None

    def test_delete(self):
        env, mc, client = make_cluster()

        def proc(env):
            yield from mc.set(client, "k", b"v")
            removed = yield from mc.delete(client, "k")
            v = yield from mc.get(client, "k")
            return removed, v

        removed, v = run_sync(env, proc(env))
        assert removed is True and v is None

    def test_keys_spread(self):
        env, mc, client = make_cluster(n_servers=4)

        def proc(env):
            for i in range(200):
                yield from mc.set(client, f"k{i}", b"v")

        run_sync(env, proc(env))
        counts = [len(s._data) for s in mc.servers.values()]
        assert sum(counts) == 200
        # Consistent hashing is uneven for small clusters, but the keyspace
        # must not collapse onto one server.
        assert sum(1 for c in counts if c > 0) >= 3
        assert max(counts) < 150

    def test_dead_server_reads_miss(self):
        """Fig 6 mechanism: a disabled instance turns its keys into misses."""
        env, mc, client = make_cluster(n_servers=4)

        def fill(env):
            for i in range(100):
                yield from mc.set(client, f"k{i}", b"v")

        run_sync(env, fill(env))
        victim = mc.server_for("k0")
        mc.kill_server(victim.name)

        def read_all(env):
            hits = 0
            for i in range(100):
                v = yield from mc.get(client, f"k{i}")
                hits += v is not None
            return hits

        hits = run_sync(env, read_all(env))
        dead_share = len(victim._data) / 100
        assert hits == pytest.approx(100 * (1 - dead_share))
        assert hits < 100

    def test_set_to_dead_server_raises(self):
        env, mc, client = make_cluster(n_servers=2)
        victim = mc.server_for("key-x")
        mc.kill_server(victim.name)

        def proc(env):
            yield from mc.set(client, "key-x", b"v")

        with pytest.raises(NodeDownError):
            run_sync(env, proc(env))

    def test_per_request_rpc_cost_binds_writes(self):
        """No batching: every SET is one RPC, so throughput is capped by
        the per-request service pipeline (write_speedup × server QPS),
        orders of magnitude below what batched chunk writes achieve."""
        env, mc, client = make_cluster(n_servers=1, server_qps=1000.0, proxy_extra_s=0.0)

        def writer(env):
            for i in range(100):
                yield from mc.set(client, f"k{i}", b"x")

        procs = [env.process(writer(env)) for _ in range(16)]
        env.run(until=env.all_of(procs))
        rate = 1600 / env.now
        cap = 1000.0 * mc.profile.write_speedup
        assert rate < cap * 1.2
        assert rate > cap * 0.5  # saturating clients do reach the cap

    def test_value_size_increases_cost(self):
        env, mc, client = make_cluster(n_servers=1)

        def timed_set(env, size):
            t0 = env.now
            yield from mc.set(client, "k", b"x" * size)
            return env.now - t0

        t_small = run_sync(env, timed_set(env, 10))
        t_big = run_sync(env, timed_set(env, 4 * 2**20))
        assert t_big > 3 * t_small


class TestBatchedGets:
    def test_get_many_matches_per_key_gets(self):
        env, mc, client = make_cluster()
        files = {f"/k{i}": bytes([i]) * 64 for i in range(16)}

        def proc(env):
            for k, v in files.items():
                yield from mc.set(client, k, v)
            one = yield from mc.get_many(client, list(files))
            batched = yield from mc.get_many(
                client, list(files), admission_batch=4
            )
            return one, batched

        one, batched = run_sync(env, proc(env))
        assert one == files
        assert batched == files

    def test_batched_admission_is_faster(self):
        env, mc, client = make_cluster()
        keys = [f"/k{i}" for i in range(32)]

        def proc(env):
            for k in keys:
                yield from mc.set(client, k, b"x" * 64)
            t0 = env.now
            yield from mc.get_many(client, keys, admission_batch=1)
            serial = env.now - t0
            t0 = env.now
            yield from mc.get_many(client, keys, admission_batch=8)
            batched = env.now - t0
            return serial, batched

        serial, batched = run_sync(env, proc(env))
        assert batched < serial

    def test_dead_server_keys_come_back_none(self):
        env, mc, client = make_cluster()
        keys = [f"/k{i}" for i in range(24)]

        def proc(env):
            for k in keys:
                yield from mc.set(client, k, b"v")
            victim = mc.server_for(keys[0]).name
            mc.kill_server(victim)
            result = yield from mc.get_many(client, keys, admission_batch=4)
            return victim, result

        victim, result = run_sync(env, proc(env))
        dead = [k for k in keys if mc.ring.lookup(k) == victim]
        assert dead
        for k in keys:
            expected = None if k in dead else b"v"
            assert result[k] == expected

    def test_validation(self):
        env, mc, client = make_cluster()

        def proc(env):
            yield from mc.get_many(client, ["k"], admission_batch=0)

        with pytest.raises(ValueError):
            run_sync(env, proc(env))
