"""Tests for the DES kernel: events, timeouts, processes, conditions."""

import pytest

from repro.errors import DeadlockError, InterruptError, SimulationError
from repro.sim import AllOf, AnyOf, Environment, run_sync


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_initial_time(self):
        assert Environment(initial_time=10.0).now == 10.0

    def test_timeout_advances_clock(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.5)
            return env.now

        assert run_sync(env, proc(env)) == 2.5

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_value(self):
        env = Environment()

        def proc(env):
            got = yield env.timeout(1, value="payload")
            return got

        assert run_sync(env, proc(env)) == "payload"

    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, 3, "c"))
        env.process(proc(env, 1, "a"))
        env.process(proc(env, 2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_same_time(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in "abcd":
            env.process(proc(env, tag))
        env.run()
        assert order == list("abcd")

    def test_run_until_time(self):
        env = Environment()

        def ticker(env, log):
            while True:
                yield env.timeout(1)
                log.append(env.now)

        log = []
        env.process(ticker(env, log))
        env.run(until=3.5)
        assert log == [1, 2, 3]
        assert env.now == 3.5

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(until=5)
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(4)
        assert env.peek() == 4


class TestProcesses:
    def test_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return 42

        assert run_sync(env, proc(env)) == 42

    def test_exception_propagates_through_run_until(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_sync(env, proc(env))

    def test_subroutine_yield_from(self):
        env = Environment()

        def inner(env):
            yield env.timeout(2)
            return "inner-result"

        def outer(env):
            result = yield from inner(env)
            return result + "!"

        assert run_sync(env, outer(env)) == "inner-result!"

    def test_wait_for_other_process(self):
        env = Environment()

        def worker(env):
            yield env.timeout(5)
            return "done"

        def waiter(env, worker_proc):
            result = yield worker_proc
            return (env.now, result)

        w = env.process(worker(env))
        assert run_sync(env, waiter(env, w)) == (5, "done")

    def test_waiting_on_finished_process_resumes_immediately(self):
        env = Environment()

        def worker(env):
            yield env.timeout(1)
            return "early"

        def late_waiter(env, w):
            yield env.timeout(10)
            result = yield w  # already processed
            return (env.now, result)

        w = env.process(worker(env))
        assert run_sync(env, late_waiter(env, w)) == (10, "early")

    def test_failed_process_propagates_to_waiter(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("inner failure")

        def waiter(env, p):
            yield p

        b = env.process(bad(env))
        w = env.process(waiter(env, b))
        with pytest.raises(RuntimeError, match="inner failure"):
            env.run(until=w)

    def test_waiter_can_catch_failure(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise RuntimeError("x")

        def waiter(env, p):
            try:
                yield p
            except RuntimeError:
                return "caught"
            return "not caught"

        b = env.process(bad(env))
        assert run_sync(env, waiter(env, b)) == "caught"

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42

        p = env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run(until=p)

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_immediate_return(self):
        env = Environment()

        def noop(env):
            return "instant"
            yield  # pragma: no cover

        assert run_sync(env, noop(env)) == "instant"


class TestInterrupt:
    def test_interrupt_wakes_process(self):
        env = Environment()
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except InterruptError as exc:
                log.append((env.now, exc.cause))
            return "survived"

        def killer(env, victim):
            yield env.timeout(3)
            victim.interrupt(cause="failure")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert log == [(3, "failure")]
        assert victim.value == "survived"

    def test_uncaught_interrupt_fails_process(self):
        env = Environment()

        def sleeper(env):
            yield env.timeout(100)

        def killer(env, victim):
            yield env.timeout(1)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        with pytest.raises(InterruptError):
            env.run(until=victim)

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_self_interrupt_rejected(self):
        env = Environment()

        def selfish(env):
            env.active_process.interrupt()
            yield env.timeout(1)

        p = env.process(selfish(env))
        with pytest.raises(SimulationError):
            env.run(until=p)


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, value="a")
            t2 = env.timeout(5, value="b")
            results = yield AllOf(env, [t1, t2])
            return (env.now, sorted(results.values()))

        assert run_sync(env, proc(env)) == (5, ["a", "b"])

    def test_any_of_returns_on_first(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1, value="fast")
            t2 = env.timeout(5, value="slow")
            results = yield AnyOf(env, [t1, t2])
            return (env.now, list(results.values()))

        assert run_sync(env, proc(env)) == (1, ["fast"])

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc(env):
            yield env.all_of([])
            return env.now

        assert run_sync(env, proc(env)) == 0

    def test_all_of_fails_fast(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise ValueError("child died")

        def proc(env):
            p = env.process(bad(env))
            t = env.timeout(100)
            yield env.all_of([p, t])

        with pytest.raises(ValueError, match="child died"):
            run_sync(env, proc(env))

    def test_condition_rejects_foreign_events(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(SimulationError):
            AllOf(env1, [env2.timeout(1)])


class TestRun:
    def test_deadlock_detection(self):
        env = Environment()

        def waits_forever(env):
            yield env.event()  # never triggered

        p = env.process(waits_forever(env))
        with pytest.raises(DeadlockError):
            env.run(until=p)

    def test_run_to_exhaustion_returns_none(self):
        env = Environment()
        env.timeout(5)
        assert env.run() is None
        assert env.now == 5

    def test_double_trigger_rejected(self):
        env = Environment()
        evt = env.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value
