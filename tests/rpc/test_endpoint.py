"""Tests for the RPC layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import NetworkProfile, RpcProfile
from repro.cluster import NetworkFabric, Node
from repro.errors import NodeDownError
from repro.rpc import ConnectionTable, RpcEndpoint
from repro.sim import Environment, run_sync


def setup_rpc(service_s=0.0, workers=16, latency=0.0):
    env = Environment()
    fabric = NetworkFabric(env, NetworkProfile(latency_s=latency))
    server_node = fabric.add_node(Node(env, "server"))
    client_node = fabric.add_node(Node(env, "client"))
    calls = []

    def handler(method, *args):
        calls.append((method, args))
        if method == "echo":
            return args[0]
        if method == "boom":
            raise NodeDownError("disk", "handler exploded")
        if method == "bug":
            raise TypeError("handler bug")
        return None

    ep = RpcEndpoint(
        env,
        fabric,
        server_node,
        "svc",
        handler,
        service_s=service_s,
        workers=workers,
        profile=RpcProfile(per_call_s=0.0, per_byte_s=0.0),
    )
    return env, fabric, client_node, server_node, ep, calls


class TestRpcEndpoint:
    def test_call_returns_handler_result(self):
        env, _, client, _, ep, calls = setup_rpc()

        def proc(env):
            result = yield from ep.call(client, "echo", b"hello")
            return result

        assert run_sync(env, proc(env)) == b"hello"
        assert calls == [("echo", (b"hello",))]

    def test_handler_exception_propagates(self):
        env, _, client, _, ep, _ = setup_rpc()

        def proc(env):
            yield from ep.call(client, "boom")

        with pytest.raises(NodeDownError, match="handler exploded"):
            run_sync(env, proc(env))
        assert ep.stats.errors == 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_only_a_modelled_failure_counts_as_an_error(self, batched):
        # A ReproError is the simulated system failing and is counted; a
        # TypeError is a bug in the handler: it propagates, uncounted.
        env, _, client, _, ep, _ = setup_rpc()

        def proc(env, method):
            if batched:
                yield from ep.call_batch(client, [("echo", b"x"), (method,)])
            else:
                yield from ep.call(client, method)

        with pytest.raises(TypeError, match="handler bug"):
            run_sync(env, proc(env, "bug"))
        assert ep.stats.errors == 0
        with pytest.raises(NodeDownError):
            run_sync(env, proc(env, "boom"))
        assert ep.stats.errors == 1

    def test_service_time_charged(self):
        env, _, client, _, ep, _ = setup_rpc(service_s=0.01)

        def proc(env):
            t0 = env.now
            yield from ep.call(client, "echo", b"x")
            return env.now - t0

        assert run_sync(env, proc(env)) == pytest.approx(0.01, rel=1e-3)

    def test_worker_pool_limits_throughput(self):
        env, _, client, _, ep, _ = setup_rpc(service_s=1.0, workers=2)

        def one(env):
            yield from ep.call(client, "echo", b"x")

        procs = [env.process(one(env)) for _ in range(6)]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(3.0, rel=1e-6)  # 6 calls / 2 workers

    def test_dead_endpoint_raises(self):
        env, _, client, server, ep, _ = setup_rpc()
        server.kill()

        def proc(env):
            yield from ep.call(client, "echo", b"x")

        with pytest.raises(NodeDownError):
            run_sync(env, proc(env))

    def test_death_mid_flight_raises(self):
        env, _, client, server, ep, _ = setup_rpc(service_s=1.0)

        def caller(env):
            yield from ep.call(client, "echo", b"x")

        def killer(env):
            yield env.timeout(0.5)
            server.kill()

        p = env.process(caller(env))
        env.process(killer(env))
        with pytest.raises(NodeDownError):
            env.run(until=p)

    def test_stats(self):
        env, _, client, _, ep, _ = setup_rpc()

        def proc(env):
            yield from ep.call(client, "echo", b"abcd", request_bytes=100)

        run_sync(env, proc(env))
        assert ep.stats.calls == 1
        assert ep.stats.request_bytes == 100
        assert ep.stats.response_bytes == 4  # len(b"abcd")

    def test_explicit_response_bytes(self):
        env, _, client, _, ep, _ = setup_rpc()

        def proc(env):
            yield from ep.call(client, "echo", b"ab", response_bytes=4096)

        run_sync(env, proc(env))
        assert ep.stats.response_bytes == 4096

    def test_service_time_callable(self):
        env = Environment()
        fabric = NetworkFabric(env, NetworkProfile(latency_s=0))
        server = fabric.add_node(Node(env, "s"))
        client = fabric.add_node(Node(env, "c"))
        ep = RpcEndpoint(
            env,
            fabric,
            server,
            "svc",
            lambda m, *a: b"****",
            service_s=lambda method, nbytes: nbytes * 1e-3,
            profile=RpcProfile(per_call_s=0, per_byte_s=0),
        )

        def proc(env):
            t0 = env.now
            yield from ep.call(client, "get")
            return env.now - t0

        assert run_sync(env, proc(env)) == pytest.approx(4e-3, rel=1e-2)


class TestConnectionTable:
    def test_connect_dedup(self):
        t = ConnectionTable()
        assert t.connect("a", "b")
        assert not t.connect("a", "b")
        assert t.count() == 1

    def test_self_connection_ignored(self):
        t = ConnectionTable()
        assert not t.connect("a", "a")
        assert t.count() == 0

    def test_drop_endpoint(self):
        t = ConnectionTable()
        t.connect("c1", "s")
        t.connect("c2", "s")
        t.connect("c1", "other")
        assert t.drop_endpoint("s") == 2
        assert t.count() == 1

    def test_full_mesh_count(self):
        """n clients all-to-all is n*(n-1) — the §4.2 baseline."""
        t = ConnectionTable()
        n = 8
        names = [f"cl{i}" for i in range(n)]
        for a in names:
            for b in names:
                t.connect(a, b)
        assert t.count() == n * (n - 1)


def recursive_sizeof(value):
    """The oracle: the bytes ``RpcEndpoint._sizeof`` charges, as one
    recursive walk over every item."""
    if value is None:
        return 16
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 16 + sum(recursive_sizeof(v) for v in value)
    if isinstance(value, dict):
        return 16 + sum(
            recursive_sizeof(k) + recursive_sizeof(v) for k, v in value.items()
        )
    return 32


names = st.text(max_size=12)
leaves = st.none() | st.binary(max_size=8) | names | st.integers()
payloads = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(names, inner, max_size=3)
        | st.frozensets(names, max_size=3)
    ),
    max_leaves=20,
)
#: ``ls`` replies, and lists that start with a name but hold others.
name_lists = (
    st.lists(names, max_size=12)
    | st.lists(names, min_size=1, max_size=6).map(tuple)
    | st.tuples(names, st.lists(leaves, min_size=1, max_size=4)).map(
        lambda t: [t[0], *t[1]]
    )
)


class TestSizeof:
    @settings(max_examples=300, deadline=None)
    @given(payloads | name_lists)
    def test_bytes_equal_the_recursive_walk(self, value):
        assert RpcEndpoint._sizeof(value) == recursive_sizeof(value)

    def test_non_ascii_names(self):
        for value in ("été", ["/données", "/a", "名前"], ("x", "ü"), ["ü", b"b"]):
            assert RpcEndpoint._sizeof(value) == recursive_sizeof(value)
