"""Tests for the Semaphore / Container / Store contention primitives.

The k-slot station cases here and the ``TestSemaphore`` cases of
``test_fanout.py`` run against the one class, ``repro.sim.Semaphore``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, Semaphore, Store, run_sync


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Semaphore(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self):
        env = Environment()
        res = Semaphore(env, capacity=2)

        def proc(env, res):
            r1 = res.acquire()
            r2 = res.acquire()
            yield env.all_of([r1, r2])
            return env.now

        assert run_sync(env, proc(env, res)) == 0

    def test_fifo_queueing(self):
        """Capacity-1 resource serializes holders in arrival order."""
        env = Environment()
        res = Semaphore(env, capacity=1)
        log = []

        def worker(env, res, tag, hold):
            req = res.acquire()
            yield req
            log.append((tag, "start", env.now))
            yield env.timeout(hold)
            res.release(req)
            log.append((tag, "end", env.now))

        env.process(worker(env, res, "a", 5))
        env.process(worker(env, res, "b", 3))
        env.process(worker(env, res, "c", 1))
        env.run()
        assert log == [
            ("a", "start", 0),
            ("a", "end", 5),
            ("b", "start", 5),
            ("b", "end", 8),
            ("c", "start", 8),
            ("c", "end", 9),
        ]

    def test_use_helper(self):
        env = Environment()
        res = Semaphore(env, capacity=1)

        def worker(env, res):
            yield from res.use(4)
            return env.now

        env.process(worker(env, res))
        p = env.process(worker(env, res))
        assert env.run(until=p) == 8

    def test_multi_server_throughput(self):
        """k-server station: n jobs of time t finish in ceil(n/k)*t."""
        env = Environment()
        res = Semaphore(env, capacity=4)

        def job(env, res):
            yield from res.use(10)

        procs = [env.process(job(env, res)) for _ in range(10)]
        env.run(until=env.all_of(procs))
        assert env.now == 30  # ceil(10/4)=3 waves

    def test_release_without_hold_rejected(self):
        env = Environment()
        res = Semaphore(env, capacity=1)

        def bad(env, res):
            req = res.acquire()
            yield req
            res.release(req)
            res.release(req)

        with pytest.raises(SimulationError):
            run_sync(env, bad(env, res))

    def test_cancel_queued_request(self):
        env = Environment()
        res = Semaphore(env, capacity=1)
        granted = []

        def holder(env, res):
            req = res.acquire()
            yield req
            yield env.timeout(5)
            res.release(req)

        def impatient(env, res):
            req = res.acquire()
            yield env.timeout(1)  # give up before grant
            res.abandon(req)

        def patient(env, res):
            yield env.timeout(0.5)
            req = res.acquire()
            yield req
            granted.append(env.now)
            res.release(req)

        env.process(holder(env, res))
        env.process(impatient(env, res))
        env.process(patient(env, res))
        env.run()
        # patient gets the slot at t=5 even though impatient queued first.
        assert granted == [5]

    def test_counters(self):
        env = Environment()
        res = Semaphore(env, capacity=1)

        def holder(env, res):
            req = res.acquire()
            yield req
            assert res.in_flight == 1
            yield env.timeout(1)
            res.release(req)

        def queuer(env, res):
            req = res.acquire()
            yield req
            res.release(req)

        env.process(holder(env, res))
        env.process(queuer(env, res))
        env.run(until=0.5)
        assert res.queue_length == 1
        env.run()
        assert res.in_flight == 0 and res.queue_length == 0

    def test_cancelled_waiters_are_not_pinned(self):
        """N requests cancelled on a station that is never released
        again leave the wait queue bounded, not N long."""
        env = Environment()
        res = Semaphore(env, capacity=1)
        res.acquire()  # held for good
        survivor = res.acquire()
        for _ in range(1000):
            res.abandon(res.acquire())
            assert res.queue_length <= 3
        assert res.queue_length == 1 and not survivor.triggered

    def test_release_after_cancellations_grants_first_live_waiter(self):
        env = Environment()
        res = Semaphore(env, capacity=1)
        held = res.acquire()
        gone = [res.acquire() for _ in range(3)]
        first, second = res.acquire(), res.acquire()
        for req in gone[:2]:  # two withdrawn: below the compaction bound
            res.abandon(req)
        res.abandon(gone[2])  # third tips it: the queue compacts
        res.release(held)
        assert first.triggered and not second.triggered
        assert not any(req.triggered for req in gone)
        assert res.in_flight == 1 and res.queue_length == 1


class TestContainer:
    def test_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Container(env, capacity=0)
        with pytest.raises(SimulationError):
            Container(env, capacity=10, init=11)

    def test_get_blocks_until_put(self):
        env = Environment()
        box = Container(env, capacity=100)

        def producer(env, box):
            yield env.timeout(5)
            yield box.put(10)

        def consumer(env, box):
            yield box.get(10)
            return env.now

        env.process(producer(env, box))
        assert run_sync(env, consumer(env, box)) == 5

    def test_put_blocks_at_capacity(self):
        env = Environment()
        box = Container(env, capacity=10, init=10)

        def producer(env, box):
            yield box.put(5)
            return env.now

        def consumer(env, box):
            yield env.timeout(3)
            yield box.get(5)

        env.process(consumer(env, box))
        assert run_sync(env, producer(env, box)) == 3

    def test_level_tracking(self):
        env = Environment()
        box = Container(env, capacity=50, init=20)

        def proc(env, box):
            yield box.get(5)
            yield box.put(30)
            return box.level

        assert run_sync(env, proc(env, box)) == 45

    def test_negative_amounts_rejected(self):
        env = Environment()
        box = Container(env, capacity=10)
        with pytest.raises(SimulationError):
            box.get(-1)
        with pytest.raises(SimulationError):
            box.put(-1)

    def test_oversized_put_rejected(self):
        env = Environment()
        box = Container(env, capacity=10)
        with pytest.raises(SimulationError):
            box.put(11)


class TestStore:
    def test_put_get_fifo(self):
        env = Environment()
        store = Store(env)

        def producer(env, store):
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer(env, store):
            out = []
            for _ in range(3):
                item = yield store.get()
                out.append(item)
            return out

        env.process(producer(env, store))
        assert run_sync(env, consumer(env, store)) == ["a", "b", "c"]

    def test_get_blocks_until_item(self):
        env = Environment()
        store = Store(env)

        def producer(env, store):
            yield env.timeout(7)
            yield store.put("late")

        def consumer(env, store):
            item = yield store.get()
            return (env.now, item)

        env.process(producer(env, store))
        assert run_sync(env, consumer(env, store)) == (7, "late")

    def test_bounded_store_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)

        def producer(env, store):
            yield store.put(1)
            yield store.put(2)  # blocks until the consumer drains one
            return env.now

        def consumer(env, store):
            yield env.timeout(4)
            yield store.get()

        env.process(consumer(env, store))
        assert run_sync(env, producer(env, store)) == 4

    def test_len_and_items(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        store.put("y")
        env.run()
        assert len(store) == 2
        assert store.items == ("x", "y")

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestInterruptSafety:
    def test_interrupted_user_releases_its_slot(self):
        """`use()` must release the resource even when interrupted
        mid-hold — otherwise a killed cache peer would leak device slots."""
        from repro.errors import InterruptError

        env = Environment()
        res = Semaphore(env, capacity=1)
        log = []

        def holder(env):
            try:
                yield from res.use(100.0)
            except InterruptError:
                log.append(("interrupted", env.now))

        def killer(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        def waiter(env):
            yield from res.use(1.0)
            log.append(("waiter-done", env.now))

        victim = env.process(holder(env))
        env.process(killer(env, victim))
        env.process(waiter(env))
        env.run()
        assert ("interrupted", 2.0) in log
        # The waiter got the slot right after the interrupt, not at t=100.
        assert ("waiter-done", 3.0) in log
        assert res.in_flight == 0

    def test_interrupt_while_queued_then_cancel(self):
        from repro.errors import InterruptError

        env = Environment()
        res = Semaphore(env, capacity=1)
        outcome = []

        def holder(env):
            yield from res.use(5.0)

        def impatient(env):
            req = res.acquire()
            try:
                yield req
            except InterruptError:
                res.abandon(req)
                outcome.append("gave-up")

        def killer(env, victim):
            yield env.timeout(1.0)
            victim.interrupt()

        env.process(holder(env))
        victim = env.process(impatient(env))
        env.process(killer(env, victim))
        env.run()
        assert outcome == ["gave-up"]
        assert res.in_flight == 0 and res.queue_length == 0
