"""Tests for hedged reads and the per-peer EWMA latency tracker."""

import pytest

from repro.errors import InterruptError
from repro.ft.hedge import HedgeStats, PeerLatencyTracker, hedged_call
from repro.sim import Environment, Semaphore


class TestPeerLatencyTracker:
    def test_first_sample_seeds_mean_and_half_deviation(self):
        t = PeerLatencyTracker(dev_mult=1.0, min_samples=1)
        t.observe("p", 0.010)
        assert t.mean("p") == pytest.approx(0.010)
        assert t.hedge_delay("p") == pytest.approx(0.010 + 0.005)
        assert t.samples("p") == 1

    def test_jacobson_update(self):
        t = PeerLatencyTracker(alpha=0.5, dev_mult=1.0, min_samples=1)
        t.observe("p", 0.010)  # mean=0.010 dev=0.005
        t.observe("p", 0.020)
        # err = 0.010; mean += 0.5*err; dev += 0.5*(|err| - dev)
        assert t.mean("p") == pytest.approx(0.015)
        assert t.hedge_delay("p") == pytest.approx(0.015 + 0.0075)

    def test_hedge_delay_needs_min_samples(self):
        t = PeerLatencyTracker(alpha=1.0, dev_mult=4.0, min_samples=3)
        t.observe("p", 0.010)
        assert t.hedge_delay("p") is None
        t.observe("p", 0.010)
        assert t.hedge_delay("p") is None
        t.observe("p", 0.010)
        # alpha=1: mean=0.010, dev=0.0 after identical samples
        assert t.hedge_delay("p") == pytest.approx(0.010)

    def test_hedge_delay_applies_floor(self):
        t = PeerLatencyTracker(min_samples=1)
        t.observe("p", 0.001)
        assert t.hedge_delay("p", floor_s=0.5) == 0.5

    def test_unknown_peer_has_no_estimate(self):
        t = PeerLatencyTracker()
        assert t.mean("ghost") is None
        assert t.hedge_delay("ghost") is None
        assert t.samples("ghost") == 0

    def test_fastest_prefers_unobserved_then_lowest_mean(self):
        t = PeerLatencyTracker(min_samples=1)
        t.observe("slow", 0.100)
        t.observe("quick", 0.001)
        assert t.fastest(["slow", "quick"]) == "quick"
        # A never-observed peer ranks first (optimistically priced at 0).
        assert t.fastest(["slow", "quick", "new"]) == "new"
        assert t.fastest([]) is None

    def test_rows_sorted_slowest_first(self):
        t = PeerLatencyTracker(min_samples=3)
        t.observe("a", 0.001)
        t.observe("b", 0.100)
        rows = t.rows()
        assert [r["peer"] for r in rows] == ["b", "a"]
        assert rows[0]["samples"] == 1
        assert rows[0]["hedge_delay_s"] is None  # below min_samples

    def test_validation(self):
        with pytest.raises(ValueError):
            PeerLatencyTracker(alpha=0.0)
        with pytest.raises(ValueError):
            PeerLatencyTracker(alpha=1.5)
        with pytest.raises(ValueError):
            PeerLatencyTracker(dev_mult=0.0)
        with pytest.raises(ValueError):
            PeerLatencyTracker(min_samples=0)
        with pytest.raises(ValueError):
            PeerLatencyTracker().observe("p", -1.0)


def call(env, duration, value, log=None, tag="", error=None):
    """A fake remote call: sleep, then return (or raise)."""

    def gen():
        try:
            yield env.timeout(duration)
            if error is not None:
                raise error
            if log is not None:
                log.append((tag, env.now))
            return value
        except InterruptError:
            if log is not None:
                log.append((f"{tag}:cancelled", env.now))
            raise

    return gen


def drive(env, primary, backup, delay_s, stats=None):
    """Run one hedged_call to completion; return (outcome, error)."""
    box = {}

    def driver():
        try:
            box["out"] = yield from hedged_call(
                env, primary(), backup, delay_s, stats=stats
            )
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            box["err"] = exc
        finally:
            box["t_done"] = env.now

    env.process(driver())
    env.run()
    return box.get("out"), box.get("err"), box["t_done"]


class TestHedgedCall:
    def test_fast_primary_wins_without_hedging(self):
        env = Environment()
        stats = HedgeStats()
        out, err, t_done = drive(
            env, call(env, 0.01, "data"), call(env, 0.01, "dup"), 1.0, stats
        )
        assert err is None
        assert out.winner == "primary"
        assert out.value == "data"
        assert not out.hedged and not out.duplicate
        assert out.primary_latency_s == pytest.approx(0.01)
        assert stats.reads == 1
        assert stats.primary_wins == 1
        assert stats.hedges_fired == 0
        assert stats.cancelled_losers == 0

    def test_backup_wins_and_loser_is_cancelled(self):
        env = Environment()
        stats = HedgeStats()
        log = []
        out, err, t_done = drive(
            env,
            call(env, 10.0, "slow", log, "primary"),
            call(env, 0.05, "fast", log, "backup"),
            0.1,
            stats,
        )
        assert err is None
        assert out.winner == "backup"
        assert out.value == "fast"
        assert out.hedged and not out.duplicate
        assert t_done == pytest.approx(0.15)  # delay + backup, not 10s
        assert stats.hedges_fired == 1
        assert stats.backup_wins == 1
        assert stats.cancelled_losers == 1
        assert stats.duplicate_transfers == 0
        # The straggling primary was torn down, not left running.
        assert ("primary:cancelled", pytest.approx(0.15)) in log

    def test_same_tick_loser_counts_as_duplicate(self):
        env = Environment()
        stats = HedgeStats()
        # Primary completes at exactly delay + backup duration: both land
        # in the same tick, the loser cannot be cancelled any more.
        out, err, t_done = drive(
            env, call(env, 0.2, "p"), call(env, 0.1, "b"), 0.1, stats
        )
        assert err is None
        assert out.winner == "primary"
        assert out.duplicate
        assert stats.duplicate_transfers == 1
        assert stats.cancelled_losers == 0

    def test_primary_failure_before_delay_fires_failover(self):
        env = Environment()
        stats = HedgeStats()
        out, err, t_done = drive(
            env,
            call(env, 0.01, None, error=RuntimeError("peer down")),
            call(env, 0.05, "rescued"),
            1.0,
            stats,
        )
        assert err is None
        assert out.winner == "backup"
        assert out.value == "rescued"
        assert not out.hedged  # failover, not a hedge
        assert isinstance(out.primary_error, RuntimeError)
        assert stats.failovers == 1
        assert stats.primary_failures == 1
        assert stats.hedges_fired == 0

    def test_primary_failure_after_hedge_backup_survives(self):
        env = Environment()
        stats = HedgeStats()
        out, err, t_done = drive(
            env,
            call(env, 0.2, None, error=RuntimeError("late fail")),
            call(env, 0.5, "backup-data"),
            0.1,
            stats,
        )
        assert err is None
        assert out.winner == "backup"
        assert out.value == "backup-data"
        assert stats.hedges_fired == 1
        assert stats.primary_failures == 1
        assert stats.backup_wins == 1

    def test_both_fail_raises_primary_error(self):
        env = Environment()
        stats = HedgeStats()
        primary_err = RuntimeError("primary boom")
        out, err, t_done = drive(
            env,
            call(env, 0.2, None, error=primary_err),
            call(env, 0.3, None, error=RuntimeError("backup boom")),
            0.1,
            stats,
        )
        assert out is None
        assert err is primary_err
        assert stats.primary_failures == 1
        assert stats.backup_failures == 1

    def test_caller_interrupt_tears_down_both_racers(self):
        env = Environment()
        stats = HedgeStats()
        log = []
        box = {}

        def driver():
            try:
                yield from hedged_call(
                    env,
                    call(env, 10.0, "p", log, "primary")(),
                    call(env, 10.0, "b", log, "backup"),
                    0.1,
                    stats=stats,
                )
            except InterruptError as exc:
                box["err"] = exc

        proc = env.process(driver())

        def killer():
            yield env.timeout(0.5)  # after the hedge fired, both in flight
            proc.interrupt("caller gone")

        env.process(killer())
        env.run()
        assert isinstance(box["err"], InterruptError)
        cancelled = {tag for tag, _ in log}
        assert cancelled == {"primary:cancelled", "backup:cancelled"}
        assert stats.hedges_fired == 1


class TestHedgeResourceDiscipline:
    """Satellite: a cancelled loser must not leak slots or pay fetches."""

    def test_cancelled_loser_frees_its_semaphore_slot(self):
        env = Environment()
        # Two slots so the backup can actually race the primary.
        sem = Semaphore(env, capacity=2)
        fetches = []

        def guarded(duration, tag):
            def gen():
                slot = sem.acquire()
                try:
                    yield slot
                    yield env.timeout(duration)
                    fetches.append(tag)
                    return tag
                finally:
                    sem.abandon(slot)

            return gen

        out, err, t_done = drive(env, guarded(10.0, "primary"), guarded(0.05, "backup"), 0.1)
        assert err is None
        assert out.winner == "backup"
        # The cancelled primary's finally block released its slot: no
        # duplicate backend fetch was paid and nothing is still held.
        assert fetches == ["backup"]
        assert sem.in_flight == 0
        assert sem.queue_length == 0
        # The freed slot is immediately grantable again.
        assert sem.acquire().triggered

    def test_interrupt_during_hedge_leaves_semaphore_clean(self):
        env = Environment()
        sem = Semaphore(env, capacity=2)

        def guarded(duration):
            def gen():
                slot = sem.acquire()
                try:
                    yield slot
                    yield env.timeout(duration)
                    return "done"
                finally:
                    sem.abandon(slot)

            return gen

        def driver():
            try:
                yield from hedged_call(
                    env, guarded(10.0)(), guarded(10.0), 0.1
                )
            except InterruptError:
                pass

        proc = env.process(driver())

        def killer():
            yield env.timeout(0.5)
            proc.interrupt("teardown")

        env.process(killer())
        env.run()
        assert sem.in_flight == 0
        assert sem.queue_length == 0
