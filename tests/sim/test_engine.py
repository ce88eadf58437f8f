"""Tests for the DES kernel: events, timeouts, processes, conditions."""

import hashlib
import random

import pytest

from repro.errors import DeadlockError, InterruptError, SimulationError
from repro.sim import AllOf, Environment, Semaphore, run_sync


def _first_of(env, events):
    """An event that fires when the first of ``events`` fires."""
    first = env.event()

    def fire(_):
        if not first.triggered:
            first.succeed()

    for evt in events:
        evt.callbacks.append(fire)
    return first


def _drain(env, procs):
    env.run()


def _until_each_process(env, procs):
    for proc in procs:
        env.run(until=proc)
    env.run()  # what outlives the last process


def _until_each_deadline(env, procs):
    # At most a second at a time, and exactly to the next event when it
    # is nearer: the clock ends where a plain run() leaves it.
    while env.peek() < float("inf"):
        env.run(until=min(env.peek(), env.now + 1.0))


def _step_by_step(env, procs):
    while env.peek() < float("inf"):
        env.step()


def _run_workload(seed: int, drive=_drain) -> tuple:
    """One randomized mixed workload, driven to the end by ``drive(env,
    processes)``; returns its full observable trace.

    ``TestPinnedTrace`` pins the trace's digest, so any edit here (even
    the interrupt cause) changes every pinned value."""
    rng = random.Random(seed)
    env = Environment()
    trace = []
    procs = []

    def sleeper(env, tag, delay):
        try:
            yield env.timeout(delay)
            trace.append(("slept", tag, env.now))
        except InterruptError as exc:
            trace.append(("interrupted", tag, env.now, exc.cause))

    def condition_waiter(env, tag, delays, mode):
        events = [env.timeout(d) for d in delays]
        yield (env.all_of(events) if mode == "all" else _first_of(env, events))
        trace.append((mode, tag, env.now))

    def sem_user(env, tag, sem, hold):
        slot = sem.acquire()
        yield slot
        trace.append(("acquired", tag, env.now))
        try:
            yield env.timeout(hold)
        finally:
            sem.release(slot)
        trace.append(("released", tag, env.now))

    def killer(env, victim, delay):
        yield env.timeout(delay)
        if victim.is_alive:
            victim.interrupt(cause="diff-test")

    sem = Semaphore(env, capacity=rng.randint(1, 3))
    for tag in range(rng.randint(5, 25)):
        kind = rng.randrange(4)
        if kind == 0:
            # Mixed magnitudes: sub-millisecond, second-scale and
            # far-future delays.
            delay = rng.choice([rng.uniform(0, 1e-4),
                                rng.uniform(0, 1.0),
                                rng.uniform(0, 500.0)])
            victim = env.process(sleeper(env, tag, delay))
            procs.append(victim)
            if rng.random() < 0.3:
                procs.append(
                    env.process(killer(env, victim, rng.uniform(0, 500.0)))
                )
        elif kind == 1:
            delays = [rng.uniform(0, 50) for _ in range(rng.randint(1, 5))]
            mode = rng.choice(["all", "any"])
            procs.append(env.process(condition_waiter(env, tag, delays, mode)))
        else:
            procs.append(
                env.process(sem_user(env, tag, sem, rng.uniform(0.01, 20)))
            )
    drive(env, procs)
    stats = env.engine_stats()
    return tuple(trace), env.now, stats.sim_events, sem.high_water


class TestPinnedTrace:
    """Delivery order is pinned: the digest of a randomized workload's
    trace (timeouts, interrupts, all-of and first-of waits, a semaphore)
    must not move, however the loop is driven."""

    DIGESTS = [
        (0, "1f1577cdcfad80b7"),
        (1, "2ee02d85a6be24ef"),
        (2, "cb44ffbe529a5d55"),
        (3, "bfd37cc60200573e"),
        (42, "ce7769c57d815e16"),
    ]

    @pytest.mark.parametrize("seed,digest", DIGESTS)
    def test_trace_digest(self, seed, digest):
        result = _run_workload(seed)
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("drive", [
        _until_each_process, _until_each_deadline, _step_by_step,
    ])
    @pytest.mark.parametrize("seed,digest", DIGESTS)
    def test_every_mode_of_the_loop_gives_the_digest(self, seed, digest, drive):
        result = _run_workload(seed, drive)
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == digest


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

    def test_peak_tracks_occupancy(self):
        env = Environment()
        for i in range(10):
            env.timeout(float(i))
        for _ in range(5):
            env.step()
        for i in range(3):
            env.timeout(100.0 + i)
        assert env.engine_stats().peak_occupancy == 10
