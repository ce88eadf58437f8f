"""Tests for KVTable / KVInstance / ShardedKV."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import NetworkProfile
from repro.cluster import NetworkFabric, Node
from repro.errors import KeyNotFoundError, NodeDownError, ShardUnavailableError
from repro.kvstore import KVInstance, KVTable, ShardedKV
from repro.sim import Environment, run_sync
from repro.util.hashing import fnv1a_64


class TestKVTable:
    def test_put_get_delete(self):
        t = KVTable()
        t.put("a", b"1")
        assert t.get("a") == b"1"
        assert "a" in t
        t.delete("a")
        assert "a" not in t
        with pytest.raises(KeyNotFoundError):
            t.get("a")
        with pytest.raises(KeyNotFoundError):
            t.delete("a")

    def test_get_or_none(self):
        t = KVTable()
        assert t.get_or_none("missing") is None
        t.put("k", b"v")
        assert t.get_or_none("k") == b"v"

    def test_overwrite(self):
        t = KVTable()
        t.put("k", b"v1")
        t.put("k", b"v2")
        assert t.get("k") == b"v2"
        assert len(t) == 1

    def test_type_validation(self):
        t = KVTable()
        with pytest.raises(TypeError):
            t.put(1, b"v")
        with pytest.raises(TypeError):
            t.put("k", "not-bytes")

    def test_pscan_sorted_and_prefix_bounded(self):
        t = KVTable()
        for k in ("b/2", "a/1", "b/1", "c/1", "b/10"):
            t.put(k, k.encode())
        result = t.pscan("b/")
        assert [k for k, _ in result] == ["b/1", "b/10", "b/2"]

    def test_pscan_limit(self):
        t = KVTable()
        for i in range(10):
            t.put(f"p/{i}", b"x")
        assert len(t.pscan("p/", 3)) == 3

    def test_pscan_empty_prefix_is_full_scan(self):
        t = KVTable()
        t.put("x", b"1")
        t.put("a", b"2")
        assert [k for k, _ in t.pscan("")] == ["a", "x"]

    def test_pscan_after_mutation(self):
        """The lazy sorted index must invalidate on writes and deletes."""
        t = KVTable()
        t.put("a", b"")
        assert t.keys() == ["a"]
        t.put("b", b"")
        assert t.keys() == ["a", "b"]
        t.delete("a")
        assert t.keys() == ["b"]

    def test_clear_and_load(self):
        t = KVTable()
        t.load([("a", b"1"), ("b", b"2")])
        assert len(t) == 2
        t.clear()
        assert len(t) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10), st.binary(max_size=16), max_size=30
        ),
        st.text(max_size=3),
    )
    def test_pscan_matches_reference(self, data, prefix):
        t = KVTable()
        t.load(data.items())
        expected = sorted((k, v) for k, v in data.items() if k.startswith(prefix))
        assert t.pscan(prefix) == expected


def build_cluster(n_instances=4, n_client_nodes=1, qps=1e9):
    env = Environment()
    fabric = NetworkFabric(env, NetworkProfile(latency_s=0))
    instances = []
    for i in range(n_instances):
        node = fabric.add_node(Node(env, f"kv{i}"))
        instances.append(KVInstance(env, fabric, node, f"kv{i}", qps=qps))
    clients = [fabric.add_node(Node(env, f"c{i}")) for i in range(n_client_nodes)]
    return env, fabric, ShardedKV(instances), clients


class TestShardedKV:
    def test_requires_instances(self):
        with pytest.raises(ValueError):
            ShardedKV([])

    def test_put_get_roundtrip(self):
        env, _, kv, (client,) = build_cluster()

        def proc(env):
            yield from kv.put(client, "file/a", b"data-a")
            value = yield from kv.get(client, "file/a")
            return value

        assert run_sync(env, proc(env)) == b"data-a"

    def test_keys_spread_across_shards(self):
        env, _, kv, _ = build_cluster(n_instances=4)
        for i in range(400):
            kv.local_put(f"key-{i}", b"v")
        sizes = [len(inst.table) for inst in kv.instances]
        assert sum(sizes) == 400
        assert all(s > 0 for s in sizes)

    def test_owner_is_stable(self):
        env, _, kv, _ = build_cluster(n_instances=4)
        assert kv.owner("some-key") is kv.owner("some-key")

    def test_pscan_merges_across_shards(self):
        env, _, kv, (client,) = build_cluster(n_instances=4)
        for i in range(50):
            kv.local_put(f"ds/f{i:03d}", str(i).encode())

        def proc(env):
            result = yield from kv.pscan(client, "ds/")
            return result

        result = run_sync(env, proc(env))
        assert [k for k, _ in result] == [f"ds/f{i:03d}" for i in range(50)]

    def test_local_matches_rpc_view(self):
        env, _, kv, (client,) = build_cluster()
        kv.local_put("k", b"local-write")

        def proc(env):
            value = yield from kv.get(client, "k")
            return value

        assert run_sync(env, proc(env)) == b"local-write"
        assert kv.local_get("k") == b"local-write"

    def test_delete(self):
        env, _, kv, (client,) = build_cluster()
        kv.local_put("k", b"v")

        def proc(env):
            yield from kv.delete(client, "k")
            return (yield from kv.get_or_none(client, "k"))

        assert run_sync(env, proc(env)) is None

    def test_down_shard_raises(self):
        env, _, kv, (client,) = build_cluster(n_instances=2)
        kv.local_put("k", b"v")
        kv.owner("k").node.kill()

        def proc(env):
            yield from kv.get(client, "k")

        with pytest.raises((ShardUnavailableError, NodeDownError)):
            run_sync(env, proc(env))

    def test_lose_instance_clears_only_that_shard(self):
        env, _, kv, _ = build_cluster(n_instances=4)
        for i in range(200):
            kv.local_put(f"key-{i}", b"v")
        before = kv.total_keys()
        lost = kv.lose_instance(0)
        assert len(lost.table) == 0
        assert kv.total_keys() < before
        assert kv.total_keys() > 0

    def test_lose_all(self):
        env, _, kv, _ = build_cluster()
        kv.local_put("a", b"1")
        kv.lose_all()
        assert kv.total_keys() == 0

    def test_service_rate_limits_throughput(self):
        """The instance's aggregate QPS binds under saturating load.

        One instance capped at 1000 q/s, 16 saturating clients issuing
        192 calls total: ~192/1000 s.
        """
        env, _, kv, (client,) = build_cluster(n_instances=1, qps=1000)
        kv.local_put("k", b"v")

        def reader(env):
            for _ in range(12):
                yield from kv.get(client, "k")

        procs = [env.process(reader(env)) for _ in range(16)]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(192 / 1000, rel=0.1)


class TestShardFailover:
    """_live_owner routing when one shard's node dies (§4.1.2 scenario a)."""

    def setup_with_dead_shard(self, n_keys=200):
        env, _, kv, clients = build_cluster(n_instances=4)
        keys = [f"key-{i}" for i in range(n_keys)]
        for k in keys:
            kv.local_put(k, k.encode())
        victim = kv.instances[0]
        victim.node.kill()
        dead = [k for k in keys if kv.owner(k) is victim]
        live = [k for k in keys if kv.owner(k) is not victim]
        assert dead and live  # both populations exist at this key count
        return env, kv, clients, victim, dead, live

    def test_dead_shard_keys_raise_live_keys_unaffected(self):
        env, kv, _, victim, dead, live = self.setup_with_dead_shard()
        for k in dead[:5]:
            with pytest.raises(ShardUnavailableError):
                kv.local_get(k)
        for k in live[:5]:
            assert kv.local_get(k) == k.encode()

    def test_rpc_path_rejects_dead_owner_before_spending_time(self):
        env, kv, (client,), victim, dead, _ = self.setup_with_dead_shard()

        def proc(env):
            yield from kv.get(client, dead[0])

        t0 = env.now
        with pytest.raises(ShardUnavailableError):
            run_sync(env, proc(env))
        assert env.now == t0  # routing failed before any RPC cost accrued

    def test_routing_is_deterministic_across_calls(self):
        env, kv, _, victim, dead, live = self.setup_with_dead_shard()
        # The same key always maps to the same shard — dead keys stay
        # dead, live keys stay live, in any order of access.
        for k in (live[0], dead[0], live[1], dead[1], live[0]):
            if k in dead:
                with pytest.raises(ShardUnavailableError):
                    kv.local_get(k)
            else:
                assert kv.local_get(k) == k.encode()

    def test_hashed_batch_is_the_per_key_loop(self):
        """Same pairs written, same error, whichever shard is dead — and
        with none dead."""
        pairs = [(f"f:ds:/d{i % 3}/n{i}", bytes([i])) for i in range(40)]
        batch = [(k, v, fnv1a_64(k)) for k, v in pairs]

        def state_after(write, victim):
            _, _, kv, _ = build_cluster(n_instances=4)
            if victim is not None:
                kv.instances[victim].node.kill()
            try:
                write(kv)
            except ShardUnavailableError as exc:
                error = str(exc)
            else:
                error = None
            return [sorted(i.table.pscan("")) for i in kv.instances], error

        def loop(kv):
            for k, v in pairs:
                kv.local_put(k, v)

        prefixes = []
        for victim in (None, 0, 1, 2, 3):
            looped = state_after(loop, victim)
            assert state_after(lambda kv: kv.local_put_hashed(batch), victim) == looped
            written = sum(len(t) for t in looped[0])
            assert (looped[1] is None) == (victim is None) == (written == len(pairs))
            prefixes.append(written)
        # The dead shard's first key comes at a different point each time.
        assert len(set(prefixes)) == len(prefixes) and min(prefixes) < 5

    def test_pscan_refuses_partial_views(self):
        """A merged scan must never silently drop a dead shard's range."""
        env, kv, _, victim, dead, live = self.setup_with_dead_shard()
        with pytest.raises(ShardUnavailableError):
            kv.local_pscan("key-")

    def test_pscan_merged_ordering_deterministic(self):
        env, _, kv, (client,) = build_cluster(n_instances=4)
        keys = [f"key-{i:03d}" for i in range(60)]
        for k in reversed(keys):  # insert out of order on purpose
            kv.local_put(k, b"v")
        merged = kv.local_pscan("key-")
        assert [k for k, _ in merged] == sorted(keys)
        assert merged == kv.local_pscan("key-")
