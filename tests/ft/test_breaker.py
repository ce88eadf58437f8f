"""Tests for the per-peer circuit breaker state machine."""

from repro.ft import CircuitBreaker
from repro.ft.breaker import CLOSED, HALF_OPEN, OPEN, RESET_S, THRESHOLD
from repro.sim import Environment


def make():
    env = Environment()
    return env, CircuitBreaker(env, "peer")


def fail(b, n=1):
    """``n`` admitted calls that each failed."""
    for _ in range(n):
        b.record_failure(b.allow())


def trip(b):
    fail(b, THRESHOLD)
    assert b.state == OPEN


class TestBreaker:
    def test_starts_closed_and_allows(self):
        _, b = make()
        assert b.state == CLOSED
        assert b.allow()

    def test_trips_after_threshold_consecutive_failures(self):
        _, b = make()
        fail(b, THRESHOLD - 1)
        assert b.state == CLOSED
        fail(b)
        assert b.state == OPEN
        assert b.trips == 1
        assert not b.allow()
        assert b.rejections == 1

    def test_success_resets_the_failure_streak(self):
        _, b = make()
        fail(b, THRESHOLD - 1)
        b.record_success()
        fail(b)
        assert b.state == CLOSED  # streak broken: not consecutive

    def test_half_open_after_reset_window(self):
        env, b = make()
        trip(b)
        env.run(until=RESET_S * 1.5)
        assert b.state == HALF_OPEN

    def test_half_open_allows_exactly_one_probe(self):
        env, b = make()
        trip(b)
        env.run(until=RESET_S * 1.5)
        assert b.allow()       # the probe
        assert not b.allow()   # concurrent calls still rejected

    def test_probe_success_closes(self):
        env, b = make()
        trip(b)
        env.run(until=RESET_S * 1.5)
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED
        assert b.allow()

    def test_probe_failure_reopens_for_a_fresh_window(self):
        env, b = make()
        trip(b)
        env.run(until=RESET_S * 1.5)
        fail(b)  # the probe
        assert b.state == OPEN
        assert b.trips == 2
        env.run(until=RESET_S * 2.0)  # half a window in: still open
        assert b.state == OPEN
        env.run(until=RESET_S * 2.6)
        assert b.state == HALF_OPEN


class TestAttemptTokens:
    """Stale stragglers — calls admitted before a trip — carry no news."""

    def test_allow_returns_distinct_truthy_tokens(self):
        _, b = make()
        t1, t2 = b.allow(), b.allow()
        assert t1 and t2 and t1 != t2

    def test_pre_open_straggler_cannot_retrip_recovered_breaker(self):
        env, b = make()
        straggler = b.allow()       # slow call admitted while healthy
        trip(b)
        env.run(until=RESET_S * 1.5)
        b.allow()                   # the probe
        b.record_success()
        assert b.state == CLOSED
        # The straggler's failure finally lands — the trip already priced
        # that peer in, so the recovered breaker must stay closed.
        b.record_failure(straggler)
        assert b.state == CLOSED
        assert b.trips == 1
        assert b.stale_reports == 1

    def test_stale_failure_does_not_restart_open_window(self):
        env, b = make()
        straggler = b.allow()
        trip(b)
        env.run(until=RESET_S * 0.8)
        b.record_failure(straggler)  # lands mid-window
        assert b.stale_reports == 1
        env.run(until=RESET_S * 1.2)
        # Window measured from the original trip, not the stale report.
        assert b.state == HALF_OPEN
        assert b.trips == 1

    def test_non_probe_failure_while_open_is_stale(self):
        env, b = make()
        trip(b)
        env.run(until=RESET_S * 1.5)
        probe = b.allow()
        # A post-trip token that is not the probe's failing must not
        # count as the probe's outcome.
        b.record_failure(probe + 1000)
        assert b.state == HALF_OPEN
        assert b.stale_reports == 1
        b.record_success()
        assert b.state == CLOSED

    def test_stale_success_still_closes(self):
        env, b = make()
        b.allow()                   # a straggler, admitted while healthy
        trip(b)
        b.record_success()          # the peer answered: it is reachable
        assert b.state == CLOSED
