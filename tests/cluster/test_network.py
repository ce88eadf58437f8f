"""Tests for nodes, the network fabric and failure injection."""

import pytest

from repro.calibration import NetworkProfile
from repro.cluster import FailureInjector, NetworkFabric, Node
from repro.errors import ClusterError, NodeDownError
from repro.sim import Environment, run_sync


def make_fabric(n=2, **profile_kw):
    env = Environment()
    fabric = NetworkFabric(env, NetworkProfile(**profile_kw))
    nodes = [fabric.add_node(Node(env, f"n{i}")) for i in range(n)]
    return env, fabric, nodes


class TestFabric:
    def test_transfer_time(self):
        env, fabric, (a, b) = make_fabric(2, bandwidth_bps=1e9, latency_s=1e-3)

        def proc(env):
            yield from fabric.transfer(a, b, 1_000_000)
            return env.now

        elapsed = run_sync(env, proc(env))
        assert elapsed == pytest.approx(1e-3 + 1e-3)

    def test_transfer_by_name(self):
        env, fabric, _ = make_fabric(2)

        def proc(env):
            yield from fabric.transfer("n0", "n1", 100)
            return True

        assert run_sync(env, proc(env))

    def test_unknown_node(self):
        env, fabric, _ = make_fabric(1)
        with pytest.raises(ClusterError):
            fabric.node("ghost")

    def test_duplicate_node_rejected(self):
        env, fabric, _ = make_fabric(1)
        with pytest.raises(ClusterError):
            fabric.add_node(Node(env, "n0"))

    def test_intra_node_transfer_is_fast(self):
        env, fabric, (a, b) = make_fabric(2, bandwidth_bps=1e9, latency_s=1e-3)

        def local(env):
            yield from fabric.transfer(a, a, 1_000_000)
            return env.now

        # Local copy skips NIC latency: must be far below network time.
        assert run_sync(env, local(env)) < 1e-3

    def test_transfer_to_dead_node_raises(self):
        env, fabric, (a, b) = make_fabric(2)
        b.kill()

        def proc(env):
            yield from fabric.transfer(a, b, 100)

        with pytest.raises(NodeDownError):
            run_sync(env, proc(env))

    def test_negative_bytes_rejected(self):
        env, fabric, (a, b) = make_fabric(2)

        def proc(env):
            yield from fabric.transfer(a, b, -1)

        with pytest.raises(ValueError):
            run_sync(env, proc(env))

    def test_ingress_contention_serializes(self):
        """Incast: many senders to one receiver share its ingress NIC."""
        env = Environment()
        fabric = NetworkFabric(env, NetworkProfile(bandwidth_bps=1e9, latency_s=0))
        dst = fabric.add_node(Node(env, "dst", nic_channels=1))
        senders = [
            fabric.add_node(Node(env, f"s{i}", nic_channels=1)) for i in range(4)
        ]

        def send(env, src):
            yield from fabric.transfer(src, dst, 1_000_000)

        procs = [env.process(send(env, s)) for s in senders]
        env.run(until=env.all_of(procs))
        # Four 1 ms transfers through a single ingress channel: ~4 ms total.
        assert env.now == pytest.approx(4e-3, rel=0.01)

    def test_stats(self):
        env, fabric, (a, b) = make_fabric(2)

        def proc(env):
            yield from fabric.transfer(a, b, 1000)
            yield from fabric.transfer(a, a, 50)

        run_sync(env, proc(env))
        assert fabric.stats.transfers == 2
        assert fabric.stats.bytes_moved == 1050
        assert fabric.stats.intra_node == 1


class TestNode:
    def test_kill_restore(self):
        env = Environment()
        n = Node(env, "x")
        assert n.alive
        n.kill()
        assert not n.alive
        with pytest.raises(ClusterError):
            n.kill()
        n.restore()
        assert n.alive
        with pytest.raises(ClusterError):
            n.restore()

    def test_on_fail_callbacks(self):
        env = Environment()
        n = Node(env, "x")
        fired = []
        n.on_fail(lambda: fired.append(1))
        n.on_fail(lambda: fired.append(2))
        n.kill()
        assert fired == [1, 2]

    def test_memory_container(self):
        env = Environment()
        n = Node(env, "x", memory_bytes=1000)
        assert n.memory.level == 1000

        def proc(env):
            yield n.memory.get(400)
            return n.memory.level

        assert run_sync(env, proc(env)) == 600


class TestFailureInjector:
    def test_kill_at(self):
        env = Environment()
        node = Node(env, "victim")
        inj = FailureInjector(env)
        inj.kill_at(node, when=5.0)
        env.run(until=4.9)
        assert node.alive
        env.run(until=5.1)
        assert not node.alive
        assert inj.log == [(5.0, "kill", "victim")]

    def test_restore_at(self):
        env = Environment()
        node = Node(env, "victim")
        inj = FailureInjector(env)
        inj.kill_at(node, when=1.0)
        inj.restore_at(node, when=2.0)
        env.run()
        assert node.alive
        assert [e[1] for e in inj.log] == ["kill", "restore"]

    def test_past_kill_rejected(self):
        env = Environment()
        env.timeout(10)
        env.run()
        node = Node(env, "v")
        inj = FailureInjector(env)
        with pytest.raises(ValueError):
            inj.kill_at(node, when=5.0)

    def test_trigger_kill(self):
        env = Environment()
        node = Node(env, "victim")
        inj = FailureInjector(env)
        counter = {"iters": 0}

        def workload(env):
            for _ in range(100):
                yield env.timeout(1e-3)
                counter["iters"] += 1

        inj.on_trigger(node, lambda: counter["iters"] >= 30)
        run_sync(env, workload(env))
        assert not node.alive
        # killed around iteration 30, certainly before the end
        assert counter["iters"] == 100
