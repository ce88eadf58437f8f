"""Property-based tests of the DES kernel — the substrate every
experiment's correctness rests on."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Semaphore, run_sync


class TestTimeOrderingProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=30))
    def test_timeouts_fire_in_time_order(self, delays):
        env = Environment()
        fired = []

        def waiter(env, d):
            yield env.timeout(d)
            fired.append(env.now)

        for d in delays:
            env.process(waiter(env, d))
        env.run()
        assert fired == sorted(fired)
        assert fired == sorted(delays)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.001, 10, allow_nan=False), min_size=1,
                    max_size=20))
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observed = []

        def chain(env):
            for d in delays:
                yield env.timeout(d)
                observed.append(env.now)

        run_sync(env, chain(env))
        assert observed == sorted(observed)
        assert observed[-1] == pytest.approx(sum(delays))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 10_000))
    def test_same_time_events_fire_fifo(self, n, seed):
        """Events scheduled for the same instant fire in creation order,
        regardless of how many there are — determinism depends on it."""
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in range(n):
            env.process(proc(env, tag))
        env.run()
        assert order == list(range(n))


class TestResourceConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        jobs=st.lists(st.floats(0.01, 5, allow_nan=False), min_size=1,
                      max_size=25),
    )
    def test_never_exceeds_capacity_and_all_jobs_finish(self, capacity, jobs):
        env = Environment()
        res = Semaphore(env, capacity=capacity)
        peak = [0]
        done = []

        def job(env, hold):
            req = res.acquire()
            yield req
            peak[0] = max(peak[0], res.in_flight)
            try:
                yield env.timeout(hold)
            finally:
                res.release(req)
            done.append(hold)

        for hold in jobs:
            env.process(job(env, hold))
        env.run()
        assert peak[0] <= capacity
        assert len(done) == len(jobs)
        assert res.in_flight == 0 and res.queue_length == 0

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        n_jobs=st.integers(1, 20),
        hold=st.floats(0.5, 2.0, allow_nan=False),
    )
    def test_makespan_is_wave_count_times_hold(self, capacity, n_jobs, hold):
        """Identical jobs on a k-server: makespan = ceil(n/k) × hold."""
        env = Environment()
        res = Semaphore(env, capacity=capacity)

        def job(env):
            yield from res.use(hold)

        procs = [env.process(job(env)) for _ in range(n_jobs)]
        env.run(until=env.all_of(procs))
        waves = -(-n_jobs // capacity)
        assert env.now == pytest.approx(waves * hold)


class TestConditionAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=1,
                    max_size=10))
    def test_all_of_completes_at_max(self, delays):
        env = Environment()

        def proc(env):
            yield env.all_of([env.timeout(d) for d in delays])
            return env.now

        assert run_sync(env, proc(env)) == pytest.approx(max(delays))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 1000))
    def test_nested_conditions(self, n, seed):
        rng = random.Random(seed)
        delays = [rng.uniform(0.1, 5) for _ in range(n)]
        env = Environment()

        def proc(env):
            inner = [env.all_of([env.timeout(d)]) for d in delays]
            yield env.all_of(inner)
            return env.now

        assert run_sync(env, proc(env)) == pytest.approx(max(delays))


class TestDeterminismProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_seeded_contention_is_bit_identical(self, seed):
        def run_once():
            env = Environment()
            res = Semaphore(env, capacity=2)
            rng = random.Random(seed)
            trace = []

            def job(env, jid, hold):
                yield from res.use(hold)
                trace.append((jid, env.now))

            for jid in range(10):
                env.process(job(env, jid, rng.uniform(0.1, 3)))
            env.run()
            return tuple(trace), env.now

        assert run_once() == run_once()
