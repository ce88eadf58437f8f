"""Differential tests: calendar-queue vs heapq scheduler.

The calendar queue must be *observationally identical* to the flat
binary heap — same event delivery order, same final state — on any
workload.  These tests drive randomized workloads (mixed timeout
magnitudes, interrupts, AllOf/AnyOf, semaphores) through both
schedulers and assert bit-identical traces, plus unit-level adversarial
tests of the calendar queue itself (year-boundary float rounding,
resize, the sparse far-tail fallback).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterruptError
from repro.sim import Environment, Semaphore
from repro.sim.engine import _CalendarQueue, _HeapQueue


def _run_workload(scheduler: str, seed: int) -> tuple:
    """One randomized mixed workload; returns its full observable trace."""
    rng = random.Random(seed)
    env = Environment(scheduler=scheduler)
    trace = []

    def sleeper(env, tag, delay):
        try:
            yield env.timeout(delay)
            trace.append(("slept", tag, env.now))
        except InterruptError as exc:
            trace.append(("interrupted", tag, env.now, exc.cause))

    def condition_waiter(env, tag, delays, mode):
        events = [env.timeout(d) for d in delays]
        yield (env.all_of(events) if mode == "all" else env.any_of(events))
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
            # Mixed magnitudes: sub-width, width-scale, and far-future
            # delays, to cross calendar bucket-years and laps.
            delay = rng.choice([rng.uniform(0, 1e-4),
                                rng.uniform(0, 1.0),
                                rng.uniform(0, 500.0)])
            victim = env.process(sleeper(env, tag, delay))
            if rng.random() < 0.3:
                env.process(killer(env, victim, rng.uniform(0, 500.0)))
        elif kind == 1:
            delays = [rng.uniform(0, 50) for _ in range(rng.randint(1, 5))]
            mode = rng.choice(["all", "any"])
            env.process(condition_waiter(env, tag, delays, mode))
        else:
            env.process(sem_user(env, tag, sem, rng.uniform(0.01, 20)))
    env.run()
    stats = env.engine_stats()
    return tuple(trace), env.now, stats.sim_events, sem.high_water


class TestSchedulerDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000_000))
    def test_identical_trace_on_random_workload(self, seed):
        assert _run_workload("calendar", seed) == _run_workload("heap", seed)

    def test_identical_trace_on_dense_arrival_epoch(self):
        """Regression: a dense arrival stream (5000 events at exact
        ``i * (1/5000)`` instants) once tripped year-boundary float
        rounding in the calendar queue — an entry landed in a bucket
        the harvest revolution had already passed and was delivered a
        full lap late, so a later event ran first and the straggler
        popped with ``t < now`` ("scheduled time is in the past")."""

        def run(scheduler):
            env = Environment(scheduler=scheduler)
            fired = []
            gap = 1.0 / 5000

            def chain(env, i):
                yield env.timeout(i * gap)
                yield env.timeout(2e-6)  # RPC-ish sub-gap follow-up
                fired.append((i, env.now))

            for i in range(5000):
                env.process(chain(env, i))
            env.run()
            return fired, env.engine_stats().sim_events

        assert run("calendar") == run("heap")


class TestCalendarQueueUnit:
    def test_boundary_times_pop_sorted(self):
        """Times at and just around exact bucket-year boundaries must
        pop in global sorted order — int-year classification leaves no
        room for float drift between push and harvest."""
        q = _CalendarQueue(nbuckets=64, width=1e-3)
        times = []
        for k in range(300):
            for t in (k * 1e-3, k * 1e-3 * (1 + 1e-15), (k + 1) * 1e-3 - 1e-12):
                times.append(t)
        rng = random.Random(7)
        rng.shuffle(times)
        for seq, t in enumerate(times):
            q.push(t, seq, None)
        popped = [q.pop()[0] for _ in range(len(times))]
        assert popped == sorted(times)
        assert len(q) == 0

    def test_interleaved_push_pop_stays_sorted(self):
        """Steady-state churn across many harvest cycles (the regime
        where the old additive year accumulation drifted)."""
        q = _CalendarQueue(nbuckets=64, width=1e-3)
        rng = random.Random(11)
        now, seq, out = 0.0, 0, []
        for _ in range(200):
            q.push(now + rng.uniform(0, 0.05), seq, None)
            seq += 1
        for _ in range(5000):
            t, _, _ = q.pop()
            assert t >= now, "delivered into the past"
            now = t
            out.append(t)
            q.push(now + rng.uniform(0, 0.05), seq, None)
            seq += 1
        assert out == sorted(out)

    def test_sparse_far_tail_uses_direct_jump(self):
        """A pending set far beyond one calendar revolution must still
        pop correctly (the fruitless-revolution fallback)."""
        q = _CalendarQueue(nbuckets=64, width=1e-3)
        q.push(0.01, 0, None)
        assert q.pop()[0] == 0.01
        # 1e6 years away with 64 buckets: a full revolution finds nothing.
        q.push(1000.0, 1, None)
        q.push(2000.0, 2, None)
        assert q.peek_time() == 1000.0
        assert q.pop()[0] == 1000.0
        assert q.pop()[0] == 2000.0

    def test_resize_preserves_order_and_count(self):
        q = _CalendarQueue(nbuckets=64, width=1e-3)
        rng = random.Random(3)
        times = [rng.uniform(0, 100) for _ in range(5000)]  # forces growth
        for seq, t in enumerate(times):
            q.push(t, seq, None)
        assert q._nbuckets > 64
        popped = [q.pop()[0] for _ in range(len(times))]  # forces shrink
        assert popped == sorted(times)
        assert q._nbuckets == _CalendarQueue.MIN_BUCKETS

    def test_same_tick_fifo_by_seq(self):
        q = _CalendarQueue()
        for seq in (0, 1, 2, 3):
            q.push(5.0, seq, None)
        assert [q.pop()[1] for _ in range(4)] == [0, 1, 2, 3]

    def test_empty_pop_raises(self):
        q = _CalendarQueue()
        with pytest.raises(IndexError):
            q.pop()
        assert q.peek_time() == float("inf")

    def test_peak_tracks_occupancy(self):
        for cls in (_CalendarQueue, _HeapQueue):
            q = cls()
            for seq in range(10):
                q.push(float(seq), seq, None)
            for _ in range(5):
                q.pop()
            for seq in range(3):
                q.push(100.0 + seq, 10 + seq, None)
            assert q.peak == 10
