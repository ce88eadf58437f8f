"""The residency primitive every cache tier keeps its chunks in.

A state machine runs it against a dict + list model: entries come and go
through add / get / pop / clear, ``victims`` is compared with an LRU walk
over the model, flights start and end through claim / settle, and
``ensure`` callers run as sim processes whose fetches land, or not, while
the machine evicts around them.  The books are checked after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim import Environment
from repro.sim.resources import Residency

from tests.invariants import check_residency

KEYS = ["a", "b", "c", "d"]
SIZES = st.sampled_from([1, 3, 8])


class ResidencyMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.res = Residency(self.env)
        #: key -> (value, nbytes); ``order`` least recently used first.
        self.model = {}
        self.order = []
        #: Flights claimed by hand (not by an ``ensure`` caller).
        self.held = set()
        #: Every ``ensure`` caller's process.
        self.callers = []

    def _touch(self, key):
        self.order.remove(key)
        self.order.append(key)

    # ------------------------------------------------------------ entries
    @rule(key=st.sampled_from(KEYS), nbytes=SIZES)
    def add(self, key, nbytes):
        if key in self.model or key in self.res.flights:
            return  # a flight's holder is the one that adds its key
        value = ("added", key)
        self.res.add(key, value, nbytes)
        self.model[key] = (value, nbytes)
        self.order.append(key)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        got = self.res.get(key)
        assert got == self.model.get(key)
        if got is not None:
            self._touch(key)

    @rule(key=st.sampled_from(KEYS))
    def pop(self, key):
        assert self.res.pop(key) == self.model.pop(key, None)
        if key in self.order:
            self.order.remove(key)

    @rule()
    def clear(self):
        self.res.clear()
        self.model.clear()
        self.order.clear()

    @rule(need=st.integers(0, 20), spared=st.sets(st.sampled_from(KEYS)))
    def victims(self, need, spared):
        expect, freed = [], 0
        for key in self.order:
            if freed >= need:
                break
            if key not in spared:
                expect.append(key)
                freed += self.model[key][1]
        assert self.res.victims(need, spared.__contains__) == expect

    # ------------------------------------------------------------ flights
    @rule(key=st.sampled_from(KEYS))
    def claim(self, key):
        running = self.res.flights.get(key)
        got = self.res.claim(key)
        assert got is running
        if running is None:
            assert key in self.res.flights
            self.held.add(key)

    @rule(key=st.sampled_from(KEYS))
    def settle(self, key):
        if key in self.held:
            self.held.discard(key)
            flight = self.res.flights[key]
            self.res.settle(key)
            assert flight.triggered and key not in self.res.flights

    def _fetch(self, key, token, lands, nbytes):
        """One fetch: its value says who fetched it; ``lands`` says
        whether it makes ``key`` resident, and then the flight stays up
        one more step, so the machine may evict the entry before the
        waiters wake."""
        yield self.env.timeout(1.0)
        value = (token, key)
        if lands:
            self.res.add(key, value, nbytes)
            self.model[key] = (value, nbytes)
            self.order.append(key)
            yield self.env.timeout(1.0)
        return value

    @rule(key=st.sampled_from(KEYS), lands=st.booleans(), nbytes=SIZES)
    def ensure(self, key, lands, nbytes):
        token = len(self.callers)

        def caller():
            value = yield from self.res.ensure(
                key, lambda k: self._fetch(k, token, lands, nbytes))
            # A value this caller did not fetch itself was resident when
            # it looked again on waking.
            if value[0] != token:
                assert self.model[key][0] == value
                self._touch(key)
            return value

        self.callers.append(self.env.process(caller()))

    @rule(dt=st.sampled_from([0.5, 1.0, 2.0]))
    def advance(self, dt):
        self.env.run(until=self.env.now + dt)

    @rule()
    def drain(self):
        for key in list(self.held):
            self.settle(key)
        self.env.run()
        assert self.res.flights == {}
        assert all(proc.triggered for proc in self.callers)

    # ---------------------------------------------------------- the books
    @invariant()
    def books_balance(self):
        for proc in self.callers:
            if proc.triggered and not proc.ok:
                raise proc.value
        check_residency(self.res, quiescent=False)
        assert list(self.res.entries) == self.order
        assert dict(self.res.entries) == self.model


ResidencyMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestResidencyMachine = ResidencyMachine.TestCase


def test_waiter_woken_after_an_eviction_fetches_again():
    env = Environment()
    res = Residency(env)
    fetched = []

    def fetch(key):
        fetched.append(env.now)
        yield env.timeout(1.0)
        res.add(key, len(fetched), 1)
        yield env.timeout(1.0)  # the entry lands before the flight ends
        return len(fetched)

    first = env.process(res.ensure("k", fetch))
    waiter = env.process(res.ensure("k", fetch))
    env.run(until=1.5)
    assert res.victims(1, lambda key: False) == ["k"]
    res.pop("k")  # evicted while the waiter still waits
    env.run()
    assert fetched == [0.0, 2.0]
    assert (first.value, waiter.value) == (1, 2)
    assert res.flights == {} and res.get("k") == (2, 1)


def test_waiter_woken_on_a_landed_entry_fetches_nothing():
    env = Environment()
    res = Residency(env)
    fetched = []

    def fetch(key):
        fetched.append(env.now)
        yield env.timeout(1.0)
        res.add(key, "v", 1)
        return "v"

    procs = [env.process(res.ensure("k", fetch)) for _ in range(3)]
    env.run()
    assert fetched == [0.0]
    assert [p.value for p in procs] == ["v"] * 3


def test_a_failed_fetch_ends_its_flight():
    env = Environment()
    res = Residency(env)

    def fetch(key):
        yield env.timeout(1.0)
        raise KeyError(key)

    proc = env.process(res.ensure("k", fetch))
    env.run()
    assert not proc.ok and isinstance(proc.value, KeyError)
    assert res.flights == {} and res.entries == {}
