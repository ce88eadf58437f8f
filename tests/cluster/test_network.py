"""Tests for nodes and the network fabric."""

import pytest

from repro.calibration import NetworkProfile
from repro.cluster import NetworkFabric, Node
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

    def test_transfer_between_attached_nodes(self):
        env, fabric, _ = make_fabric(2)
        a, b = fabric.nodes

        def proc(env):
            yield from fabric.transfer(a, b, 100)
            return True

        assert run_sync(env, proc(env))
        assert fabric.stats.bytes_moved == 100

    def test_unknown_node(self):
        env, fabric, (n0,) = make_fabric(1)
        ghost = Node(env, "ghost")
        assert fabric.nodes == (n0,)
        assert n0.fabric is fabric and ghost.fabric is None

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
