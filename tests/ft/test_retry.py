"""Tests for retry policies, backoff, deadlines, and retry_call."""

import random

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    NodeDownError,
)
from repro.ft import CircuitBreaker, RetryPolicy, retry_call, run_with_deadline
from repro.sim import Environment, run_sync


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
        p = RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05, jitter=0.0)
        assert p.backoff_s(0) == pytest.approx(0.01)
        assert p.backoff_s(1) == pytest.approx(0.02)
        assert p.backoff_s(2) == pytest.approx(0.04)
        assert p.backoff_s(3) == pytest.approx(0.05)  # capped
        assert p.backoff_s(10) == pytest.approx(0.05)

    def test_jitter_is_bounded_and_deterministic(self):
        p = RetryPolicy(backoff_base_s=0.01, backoff_max_s=1.0, jitter=0.5)
        a = [p.backoff_s(2, random.Random(7)) for _ in range(20)]
        b = [p.backoff_s(2, random.Random(7)) for _ in range(20)]
        assert a == b  # same seed, same delays
        for d in a:
            assert 0.02 <= d <= 0.06  # 0.04 * [0.5, 1.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.01)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=-1)


class TestRetryCall:
    def test_transient_failures_are_retried_to_success(self):
        env = Environment()
        log = []
        p = RetryPolicy(retries=3, backoff_base_s=0.01, jitter=0.0)
        out = run_sync(env, retry_call(env, p, flaky(env, log, fail_first=2)))
        assert out == "ok"
        assert len(log) == 3
        # Elapsed: 3 attempts x 0.01 + backoffs 0.01 + 0.02.
        assert env.now == pytest.approx(0.06)

    def test_exhaustion_raises_the_last_error(self):
        env = Environment()
        log = []
        p = RetryPolicy(retries=2, backoff_base_s=0.01, jitter=0.0)
        with pytest.raises(NodeDownError):
            run_sync(env, retry_call(env, p, flaky(env, log, fail_first=99)))
        assert len(log) == 3  # 1 try + 2 retries

    def test_non_transient_error_propagates_immediately(self):
        env = Environment()

        def attempt():
            def gen():
                yield env.timeout(0.01)
                raise ValueError("bug, not an outage")

            return gen()

        p = RetryPolicy(retries=5, backoff_base_s=0.01)
        with pytest.raises(ValueError):
            run_sync(env, retry_call(env, p, attempt))
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

        p = RetryPolicy(retries=1, backoff_base_s=0.01, jitter=0.0)
        assert run_sync(env, retry_call(env, p, attempt)) == "late ok"
        assert len(calls) == 2

    def test_zero_retries_is_single_attempt(self):
        env = Environment()
        log = []
        p = RetryPolicy(retries=0, backoff_base_s=0.01)
        with pytest.raises(NodeDownError):
            run_sync(env, retry_call(env, p, flaky(env, log, fail_first=1)))
        assert len(log) == 1


class TestDeadline:
    def test_fast_call_passes_value_through(self):
        env = Environment()

        def gen():
            yield env.timeout(0.01)
            return 42

        assert run_sync(env, run_with_deadline(env, gen(), 1.0)) == 42

    def test_slow_call_is_abandoned(self):
        env = Environment()
        released = []

        def gen():
            try:
                yield env.timeout(10.0)
            finally:
                released.append(env.now)

        with pytest.raises(DeadlineExceededError):
            run_sync(env, run_with_deadline(env, gen(), 0.1))
        assert env.now == pytest.approx(0.1)
        env.run()  # drain the interrupt delivery to the abandoned child
        assert released == [pytest.approx(0.1)]  # finally ran: no leak

    def test_child_failure_propagates_unchanged(self):
        env = Environment()

        def gen():
            yield env.timeout(0.01)
            raise NodeDownError("peer")

        with pytest.raises(NodeDownError):
            run_sync(env, run_with_deadline(env, gen(), 1.0))

    def test_deadline_failures_are_retryable(self):
        env = Environment()
        tries = []

        def attempt():
            def gen():
                tries.append(env.now)
                if len(tries) == 1:
                    yield env.timeout(10.0)  # hangs: deadline fires
                else:
                    yield env.timeout(0.01)
                return "recovered"

            return gen()

        p = RetryPolicy(retries=1, backoff_base_s=0.01, jitter=0.0,
                        deadline_s=0.1)
        assert run_sync(env, retry_call(env, p, attempt)) == "recovered"
        # deadline 0.1 + backoff 0.01 + second attempt 0.01.
        assert env.now == pytest.approx(0.12)


class TestBreakerIntegration:
    def test_open_breaker_fast_fails_without_attempting(self):
        env = Environment()
        breaker = CircuitBreaker(env, threshold=1, reset_s=10.0)
        breaker.record_failure()  # trip it
        log = []
        p = RetryPolicy(retries=3, backoff_base_s=0.01)
        with pytest.raises(CircuitOpenError):
            run_sync(env, retry_call(env, p, flaky(env, log, 0),
                                     breaker=breaker))
        assert log == []  # no attempt paid
        assert env.now == 0.0

    def test_success_closes_the_breaker(self):
        env = Environment()
        breaker = CircuitBreaker(env, threshold=3, reset_s=10.0)
        log = []
        p = RetryPolicy(retries=3, backoff_base_s=0.01, jitter=0.0)
        run_sync(env, retry_call(env, p, flaky(env, log, fail_first=2),
                                 breaker=breaker))
        assert breaker.state == "closed"
        assert breaker.trips == 0  # 2 failures < threshold, then success
