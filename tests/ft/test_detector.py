"""Tests for the heartbeat/probe failure detector."""

import pytest

from repro.errors import SimulationError
from repro.ft import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.sim import Environment


class Peer:
    """A minimal watchable target."""

    def __init__(self, up=True):
        self.up = up


def make(interval=0.05, timeout=0.25):
    env = Environment()
    det = FailureDetector(
        env, heartbeat_interval_s=interval, failure_timeout_s=timeout
    )
    return env, det


class TestStateMachine:
    def test_healthy_peer_stays_alive_with_no_events(self):
        env, det = make()
        det.watch("p", Peer())
        det.start()
        env.run(until=2.0)
        assert det.state("p") == ALIVE
        assert det.events == []

    def test_dead_peer_goes_suspect_then_dead(self):
        env, det = make(interval=0.05, timeout=0.25)
        peer = Peer()
        det.watch("p", peer)
        det.start()
        env.run(until=0.11)
        peer.up = False
        env.run(until=0.2)
        assert det.state("p") == SUSPECT
        env.run(until=1.0)
        assert det.state("p") == DEAD
        states = [s for _, n, s in det.events if n == "p"]
        assert states == [SUSPECT, DEAD]

    def test_detection_latency_bounded_by_timeout_plus_interval(self):
        env, det = make(interval=0.05, timeout=0.25)
        peer = Peer()
        det.watch("p", peer)
        det.start()
        env.run(until=0.11)
        peer.up = False
        env.run(until=2.0)
        lat = det.detection_latency_s("p")
        assert 0.25 <= lat <= 0.25 + 0.05 + 1e-9

    def test_recovered_peer_transitions_back_to_alive(self):
        env, det = make()
        peer = Peer()
        det.watch("p", peer)
        det.start()
        env.run(until=0.11)
        peer.up = False
        env.run(until=1.0)
        assert det.state("p") == DEAD
        peer.up = True
        env.run(until=1.2)
        assert det.state("p") == ALIVE
        states = [s for _, n, s in det.events if n == "p"]
        assert states == [SUSPECT, DEAD, ALIVE]

    def test_transition_callbacks_fire_in_order(self):
        env, det = make()
        peer = Peer()
        det.watch("p", peer)
        seen = []
        det.on_transition(lambda name, state, at: seen.append((name, state)))
        det.start()
        peer.up = False
        env.run(until=1.0)
        assert seen == [("p", SUSPECT), ("p", DEAD)]


class TestReportFailure:
    def test_report_makes_alive_peer_suspect_immediately(self):
        env, det = make()
        peer = Peer()
        det.watch("p", peer)
        det.start()
        env.run(until=0.11)
        peer.up = False
        # No heartbeat has seen the death yet; a data-path report
        # flips the state without waiting for the next probe.
        det.report_failure("p")
        assert det.state("p") == SUSPECT

    def test_report_after_grace_window_declares_dead(self):
        env, det = make(interval=0.05, timeout=0.25)
        peer = Peer()
        det.watch("p", peer)  # last successful probe: now (t=0)
        # Detector not started: only data-path reports drive the state.
        peer.up = False
        det.report_failure("p")
        assert det.state("p") == SUSPECT  # within the grace window
        # Advance past the grace window, then report again.
        env.run(until=0.3)
        det.report_failure("p")
        assert det.state("p") == DEAD

    def test_unknown_and_dead_names_are_ignored(self):
        env, det = make()
        det.report_failure("nobody")  # must not raise
        peer = Peer(up=False)
        det.watch("p", peer)
        det.start()
        env.run(until=1.0)
        assert det.state("p") == DEAD
        det.report_failure("p")  # already dead: no extra event
        assert [s for _, _, s in det.events].count(DEAD) == 1


class TestLifecycle:
    def test_duplicate_watch_rejected(self):
        _, det = make()
        det.watch("p", Peer())
        with pytest.raises(ValueError):
            det.watch("p", Peer())

    def test_unwatch_stops_probing(self):
        env, det = make()
        peer = Peer()
        det.watch("p", peer)
        det.start()
        det.unwatch("p")
        peer.up = False
        env.run(until=1.0)
        assert det.events == []
        assert det.watched() == []
        det.unwatch("p")  # idempotent

    def test_stop_lets_the_simulation_drain(self):
        env, det = make()
        det.watch("p", Peer())
        det.start()
        env.run(until=0.2)
        det.stop()
        env.run()  # would never return with the loop still scheduled
        assert det._proc is None

    def test_double_start_rejected(self):
        _, det = make()
        det.start()
        with pytest.raises(SimulationError):
            det.start()

    def test_bad_intervals_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FailureDetector(env, heartbeat_interval_s=0.0)
        with pytest.raises(ValueError):
            FailureDetector(
                env, heartbeat_interval_s=0.1, failure_timeout_s=0.1
            )


def probe_times(det, env, until):
    """Run the detector, recording the sim time of every probe round."""
    times = []
    original = det.probe_now

    def recording():
        times.append(env.now)
        original()

    det.probe_now = recording
    det.start()
    env.run(until=until)
    det.stop()
    return times


class TestHeartbeatJitter:
    def test_zero_jitter_keeps_fixed_interval_schedule(self):
        env = Environment()
        det = FailureDetector(env, heartbeat_interval_s=0.05, jitter=0.0)
        det.watch("p", Peer())
        times = probe_times(det, env, until=0.5)
        assert times == pytest.approx([0.05 * (i + 1) for i in range(len(times))])
        assert len(times) >= 9

    def test_jittered_schedule_is_seeded_and_deterministic(self):
        def schedule(seed):
            env = Environment()
            det = FailureDetector(
                env, heartbeat_interval_s=0.05, jitter=0.3, seed=seed
            )
            det.watch("p", Peer())
            return probe_times(det, env, until=0.5)

        a, b = schedule(7), schedule(7)
        assert a == b  # same seed: byte-identical probe schedule
        assert schedule(7) != schedule(8)

    def test_jittered_gaps_stay_within_the_band(self):
        env = Environment()
        det = FailureDetector(env, heartbeat_interval_s=0.05, jitter=0.2)
        det.watch("p", Peer())
        times = probe_times(det, env, until=1.0)
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert all(0.05 * 0.8 - 1e-12 <= g <= 0.05 * 1.2 + 1e-12 for g in gaps)
        # De-synchronized: not every round lands on the exact interval.
        assert any(abs(g - 0.05) > 1e-9 for g in gaps)

    def test_jitter_does_not_break_detection(self):
        env = Environment()
        det = FailureDetector(
            env,
            heartbeat_interval_s=0.05,
            failure_timeout_s=0.25,
            jitter=0.4,
        )
        peer = Peer()
        det.watch("p", peer)
        det.start()
        env.run(until=0.11)
        peer.up = False
        env.run(until=2.0)
        assert det.state("p") == DEAD

    def test_bad_jitter_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FailureDetector(env, jitter=1.0)
        with pytest.raises(ValueError):
            FailureDetector(env, jitter=-0.1)
