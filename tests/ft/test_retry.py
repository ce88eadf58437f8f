"""Tests for backoff and retry_call."""

import random

import pytest

from repro.errors import CircuitOpenError, NodeDownError
from repro.ft import CircuitBreaker, retry_call
from repro.ft.breaker import THRESHOLD
from repro.ft.retry import BACKOFF_BASE_S, BACKOFF_MAX_S, RETRIES, backoff_s
from repro.sim import Environment, run_sync


class MidRng:
    """Jitter pinned at its midpoint: every backoff is exactly its base."""

    def uniform(self, lo, hi):
        return (lo + hi) / 2


def retry(env, attempt, breaker=None):
    return retry_call(
        env, attempt, rng=MidRng(),
        breaker=breaker or CircuitBreaker(env, "peer"),
        recorder=None, op="rpc", actor="peer",
    )


def flaky(env, log, fail_first, delay=0.01):
    """Factory of attempt generators that fail the first N tries."""

    def attempt():
        def gen():
            yield env.timeout(delay)
            log.append(env.now)
            if len(log) <= fail_first:
                raise NodeDownError("peer")
            return "ok"

        return gen()

    return attempt


class TestBackoff:
    def test_exponential_growth_capped(self):
        rng = MidRng()
        assert backoff_s(0, rng) == pytest.approx(BACKOFF_BASE_S)
        assert backoff_s(1, rng) == pytest.approx(2 * BACKOFF_BASE_S)
        assert backoff_s(2, rng) == pytest.approx(4 * BACKOFF_BASE_S)
        assert backoff_s(30, rng) == pytest.approx(BACKOFF_MAX_S)  # capped

    def test_jitter_is_bounded_and_deterministic(self):
        a = [backoff_s(2, random.Random(7)) for _ in range(20)]
        b = [backoff_s(2, random.Random(7)) for _ in range(20)]
        assert a == b  # same seed, same delays
        for d in a:
            assert 2 * BACKOFF_BASE_S <= d <= 6 * BACKOFF_BASE_S  # 4x base ±50%


class TestRetryCall:
    def test_transient_failures_are_retried_to_success(self):
        env = Environment()
        log = []
        out = run_sync(env, retry(env, flaky(env, log, fail_first=RETRIES)))
        assert out == "ok"
        assert len(log) == RETRIES + 1
        # Elapsed: 3 attempts x 0.01 + backoffs 1x and 2x the base.
        assert env.now == pytest.approx(0.03 + 3 * BACKOFF_BASE_S)

    def test_exhaustion_raises_the_last_error(self):
        env = Environment()
        log = []
        with pytest.raises(NodeDownError):
            run_sync(env, retry(env, flaky(env, log, fail_first=99)))
        assert len(log) == RETRIES + 1  # 1 try + the retries

    def test_non_transient_error_propagates_immediately(self):
        env = Environment()

        def attempt():
            def gen():
                yield env.timeout(0.01)
                raise ValueError("bug, not an outage")

            return gen()

        with pytest.raises(ValueError):
            run_sync(env, retry(env, attempt))
        assert env.now == pytest.approx(0.01)  # single attempt, no backoff

    def test_synchronously_raising_factory_is_retried(self):
        env = Environment()
        calls = []

        def attempt():
            calls.append(env.now)
            if len(calls) == 1:
                raise NodeDownError("peer")  # e.g. an up-front up check

            def gen():
                yield env.timeout(0.01)
                return "late ok"

            return gen()

        assert run_sync(env, retry(env, attempt)) == "late ok"
        assert len(calls) == 2


class TestBreakerIntegration:
    def test_open_breaker_fast_fails_without_attempting(self):
        env = Environment()
        breaker = CircuitBreaker(env, "peer")
        for _ in range(THRESHOLD):  # trip it
            breaker.record_failure(breaker.allow())
        log = []
        with pytest.raises(CircuitOpenError):
            run_sync(env, retry(env, flaky(env, log, 0), breaker))
        assert log == []  # no attempt paid
        assert env.now == 0.0

    def test_success_closes_the_breaker(self):
        env = Environment()
        breaker = CircuitBreaker(env, "peer")
        log = []
        run_sync(env, retry(env, flaky(env, log, fail_first=RETRIES), breaker))
        assert breaker.state == "closed"
        assert breaker.trips == 0  # 2 failures < threshold, then success
