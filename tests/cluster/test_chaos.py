"""Tests for the declarative chaos schedule (timed adversity windows)."""

import pytest

from repro.cluster.failure import ChaosSchedule
from repro.cluster.node import Node
from repro.sim import Environment


def rig(n=2):
    env = Environment()
    nodes = [Node(env, f"n{i}") for i in range(n)]
    return env, nodes, ChaosSchedule(env)


class TestWindows:
    def test_slow_node_applies_and_reverts_on_schedule(self):
        env, (node, _), chaos = rig()
        chaos.slow_node(node, factor=8.0, at=1.0, duration_s=2.0).start()
        env.run(until=0.5)
        assert (node.nic_slow_factor, node.nic_extra_latency_s) == (1.0, 0.0)
        env.run(until=1.5)
        assert node.nic_slow_factor == 8.0
        assert chaos.log == [(1.0, "apply", "slow_node:n0x8")]
        env.run(until=3.5)
        assert (node.nic_slow_factor, node.nic_extra_latency_s) == (1.0, 0.0)
        assert chaos.log[-1] == (3.0, "revert", "slow_node:n0x8")

    def test_latency_spikes_fire_inside_the_window(self):
        env, nodes, chaos = rig()
        chaos.latency_spikes(
            nodes, extra_latency_s=0.01, at=0.0, duration_s=1.0,
            spikes=3, spike_s=0.01,
        ).start()
        env.run()
        ons = [t for t, a, _ in chaos.log if a == "spike_on"]
        offs = [t for t, a, _ in chaos.log if a == "spike_off"]
        assert len(ons) == 3 and len(offs) == 3
        assert all(0.0 <= t <= 1.0 + 0.01 for t in ons + offs)
        assert all(n.nic_extra_latency_s == 0.0 for n in nodes)

    def test_spike_schedule_is_seeded(self):
        def spike_times(seed):
            env = Environment()
            node = Node(env, "n0")
            chaos = ChaosSchedule(env, seed=seed)
            chaos.latency_spikes([node], 0.01, at=0.0, duration_s=1.0).start()
            env.run()
            return [t for t, a, _ in chaos.log if a == "spike_on"]

        assert spike_times(1) == spike_times(1)
        assert spike_times(1) != spike_times(2)


class TestActions:
    def test_flash_crowd_launches_all_readers_at_once(self):
        env, nodes, chaos = rig()
        starts = []

        def reader(i):
            starts.append((i, env.now))
            yield env.timeout(0.1)

        chaos.flash_crowd(
            at=2.0, readers=lambda: [reader(i) for i in range(8)]
        ).start()
        env.run()
        assert sorted(i for i, _ in starts) == list(range(8))
        assert all(t == 2.0 for _, t in starts)

    def test_at_escape_hatch_runs_once(self):
        env, nodes, chaos = rig()
        fired = []
        chaos.at(1.5, lambda: fired.append(env.now), label="poke").start()
        env.run()
        assert fired == [1.5]

    def test_at_drives_a_generator_action_inline(self):
        env, nodes, chaos = rig()

        def action():
            yield env.timeout(0.5)  # e.g. a recovery that takes time
            fired.append(env.now)

        fired = []
        chaos.at(1.0, action, label="slow").start()
        env.run()
        assert fired == [1.5]
        assert chaos.log == [(1.0, "apply", "slow"), (1.5, "revert", "slow")]

    def test_log_records_apply_and_revert(self):
        env, (node, _), chaos = rig()
        chaos.slow_node(node, 2.0, at=1.0, duration_s=1.0).start()
        env.run()
        actions = [(a, lbl) for _, a, lbl in chaos.log]
        assert ("apply", "slow_node:n0x2") in actions
        assert ("revert", "slow_node:n0x2") in actions


class TestLifecycle:
    def test_double_start_and_late_builders_rejected(self):
        env, (node, _), chaos = rig()
        chaos.slow_node(node, 2.0, at=0.0, duration_s=0.1).start()
        with pytest.raises(RuntimeError):
            chaos.start()
        with pytest.raises(RuntimeError):
            chaos.slow_node(node, 2.0, at=1.0, duration_s=0.1)

    def test_validation(self):
        env, (node, _), chaos = rig()
        with pytest.raises(ValueError):
            chaos.slow_node(node, 2.0, at=-1.0, duration_s=0.1)
        with pytest.raises(ValueError):
            chaos.latency_spikes([node], 0.01, at=0.0, duration_s=1.0, spikes=0)
