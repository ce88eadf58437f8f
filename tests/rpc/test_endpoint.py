"""Tests for the RPC layer."""

import pytest

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
            raise ValueError("handler exploded")
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

        with pytest.raises(ValueError, match="handler exploded"):
            run_sync(env, proc(env))
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
