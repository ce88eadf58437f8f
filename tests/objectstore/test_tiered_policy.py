"""The server cache tier's policy: write-behind fill, scan-resistant
admission, and the accounting both must keep (DESIGN §6).

The example tests drive whole passes over equal-sized objects and count
hits and SSD bytes per pass; the stateful test interleaves every public
operation as concurrent sim processes and checks the tier's books after
each step.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.devices import Device
from repro.objectstore import TieredStore
from repro.sim import Environment, run_sync

from tests.objectstore.test_store import make_tiered as make_store

SIZE = 1000


def make_tiered(capacity_objects=4.5):
    return make_store(ssd_capacity=capacity_objects * SIZE)


def load(store, prefix, n):
    keys = [f"{prefix}{i:02d}" for i in range(n)]
    store.load((k, (k.encode() * SIZE)[:SIZE]) for k in keys)
    return keys


def sweep(env, store, keys, rng):
    """One pass over ``keys`` in a fresh random order, then let the fills
    it started finish.  Returns the pass's SSD hits."""
    order = list(keys)
    rng.shuffle(order)
    before = store.stats.ssd_hits

    def reader():
        for key in order:
            data = yield from store.get(key)
            assert data == store.peek(key)

    run_sync(env, reader())
    env.run()
    return store.stats.ssd_hits - before


class TestAdmission:
    def test_dataset_that_fits_is_all_resident_after_one_pass(self):
        env, store = make_tiered(capacity_objects=8)
        keys = load(store, "a", 8)
        rng = random.Random(1)
        assert sweep(env, store, keys, rng) == 0
        assert all(store.in_ssd(k) for k in keys)
        assert sweep(env, store, keys, rng) == len(keys)
        assert store.stats.rejections == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_over_a_larger_dataset_pins_a_subset(self, seed):
        # Plain LRU serves about C*C/N = 0.8 hits per pass here and
        # rewrites the SSD with every miss.
        n, c = 20, 4
        env, store = make_tiered(capacity_objects=c + 0.5)
        keys = load(store, "a", n)
        rng = random.Random(seed)
        sweep(env, store, keys, rng)
        written = store.ssd.stats.write_bytes
        pinned = {k for k in keys if store.in_ssd(k)}
        assert len(pinned) == c
        for _ in range(5):
            assert sweep(env, store, keys, rng) >= c - 1
        # Not one byte more was written: the first pass's subset is pinned.
        assert store.ssd.stats.write_bytes == written
        assert {k for k in keys if store.in_ssd(k)} == pinned
        assert store.stats.evictions == 0
        assert store.stats.rejections == 6 * (n - c)

    @pytest.mark.parametrize("passes_over_a", [2, 20])
    def test_new_working_set_takes_over_on_its_third_pass(self, passes_over_a):
        n, c = 12, 4
        env, store = make_tiered(capacity_objects=c + 0.5)
        a, b = load(store, "a", n), load(store, "b", n)
        rng = random.Random(passes_over_a)
        for _ in range(passes_over_a):
            sweep(env, store, a, rng)
        # Two passes show two reads of each key, which any one sweep
        # over ``a`` shows as well: not yet more reuse than the pinned set.
        assert sweep(env, store, b, rng) == 0
        assert sweep(env, store, b, rng) == 0
        assert not any(store.in_ssd(k) for k in b)
        # The third read of a ``b`` key is one more than the idle ``a``
        # keys can match: the first ``c`` misses of pass 3 replace them.
        assert sweep(env, store, b, rng) == 0
        assert sum(store.in_ssd(k) for k in b) == c
        assert not any(store.in_ssd(k) for k in a)
        for _ in range(3):
            assert sweep(env, store, b, rng) == c

    def test_repeated_reads_beat_a_pinned_sweep(self):
        n, c = 12, 4
        env, store = make_tiered(capacity_objects=c + 0.5)
        keys = load(store, "a", n)
        rng = random.Random(3)
        sweep(env, store, keys, rng)
        hot = next(k for k in keys if not store.in_ssd(k))
        # The whole set is read once more (every pinned key's last read is
        # now recent), then the hot key three times.
        sweep(env, store, keys, rng)
        for _ in range(3):
            run_sync(env, store.get(hot))
        env.run()
        assert store.in_ssd(hot)
        assert store.stats.evictions == 1

    def test_object_larger_than_the_tier_is_never_admitted(self):
        env, store = make_tiered(capacity_objects=0.5)
        (key,) = load(store, "a", 1)
        for _ in range(4):
            run_sync(env, store.get(key))
            env.run()
        assert not store.in_ssd(key)
        assert store.stats.rejections == 4
        assert store.ssd.stats.write_bytes == 0


class TestFill:
    def test_whole_object_miss_costs_one_hdd_read(self):
        env, store = make_tiered()
        (key,) = load(store, "a", 1)
        run_sync(env, store.get(key))
        assert env.now == store.hdd.op_time(SIZE)
        assert not store.in_ssd(key)  # the write is still behind the read
        env.run()
        assert store.in_ssd(key)
        assert env.now == pytest.approx(
            store.hdd.op_time(SIZE) + store.ssd.op_time(SIZE))

    def test_range_miss_fill_reads_what_it_writes(self):
        env, store = make_tiered()
        (key,) = load(store, "a", 1)
        part = run_sync(env, store.get_range(key, 100, 50))
        assert part == store.peek(key)[100:150]
        assert env.now == store.hdd.op_time(50)
        env.run()
        assert store.in_ssd(key)
        assert store.hdd.stats.read_bytes == SIZE
        assert store.ssd.stats.write_bytes == SIZE

    def test_concurrent_misses_share_one_fill(self):
        env, store = make_tiered()
        (key,) = load(store, "a", 1)
        procs = [env.process(store.get(key)) for _ in range(3)]
        env.run()
        assert all(p.value == store.peek(key) for p in procs)
        assert store.stats.ssd_misses == 3
        assert store.stats.promotions == 1
        assert store.ssd.stats.write_bytes == SIZE
        assert store.ssd_used_bytes() == SIZE

    def test_fill_of_an_object_replaced_meanwhile_is_discarded(self):
        env, store = make_tiered()
        (key,) = load(store, "a", 1)
        fill = store.fill(key)
        run_sync(env, store.patch(key, b"n" * (SIZE // 2), 64))
        assert env.run(until=fill) is False
        assert not store.in_ssd(key)
        assert store.ssd_used_bytes() == 0
        run_sync(env, store.get(key))
        env.run()
        assert store.in_ssd(key)
        assert store.ssd_used_bytes() == SIZE // 2

    def test_fill_is_single_flight_and_skips_residents(self):
        env, store = make_tiered()
        (key,) = load(store, "a", 1)
        fill = store.fill(key)
        assert store.fill(key) is fill
        assert env.run(until=fill) is True
        assert store.fill(key) is None
        assert store.hdd.stats.read_bytes == SIZE

    def test_delete_returns_the_tiers_bytes(self):
        env, store = make_tiered()
        keys = load(store, "a", 3)
        sweep(env, store, keys, random.Random(0))
        assert store.ssd_used_bytes() == 3 * SIZE
        run_sync(env, store.delete(keys[0]))
        assert keys[0] not in store and not store.in_ssd(keys[0])
        assert store.ssd_used_bytes() == 2 * SIZE


KEYS = [f"k{i}" for i in range(4)]
#: A few sizes, none of them small against the 400-byte tier, so that
#: sequences reach eviction and rejection; the fill byte tells versions
#: of a key apart.
payloads = st.builds(
    lambda fill, size: bytes([fill]) * size,
    st.integers(0, 255), st.sampled_from([60, 150, 300, 500]),
)


class TierMachine(RuleBasedStateMachine):
    """Interleaved get / get_range / put / patch / delete / fill processes
    against a dict model."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        ssd = Device(self.env, "ssd", per_op_s=1e-4, bandwidth_bps=1e6,
                     queue_depth=2)
        hdd = Device(self.env, "hdd", per_op_s=1e-3, bandwidth_bps=1e5,
                     queue_depth=2)
        self.store = TieredStore(ssd, hdd, ssd_capacity_bytes=400)
        self.model = {
            key: bytes([i]) * size
            for i, (key, size) in enumerate(zip(KEYS, (150, 300, 150, 60)))
        }
        self.store.load(self.model.items())
        #: Keys a write or delete is in flight on: their bytes are in
        #: doubt until it lands, so nothing else touches them.
        self.busy: set[str] = set()
        self.procs = []

    def _spawn(self, gen):
        self.procs.append(self.env.process(gen))

    def _idle(self, key):
        return key not in self.busy

    def _live(self, key):
        return key in self.model and key not in self.busy

    @rule(key=st.sampled_from(KEYS), data=payloads)
    def put(self, key, data):
        if not self._idle(key):
            return
        self.busy.add(key)

        def proc():
            yield from self.store.put(key, data)
            self.model[key] = data
            self.busy.discard(key)

        self._spawn(proc())

    @rule(key=st.sampled_from(KEYS), data=payloads)
    def put_journaled(self, key, data):
        if not self._idle(key):
            return
        self.model[key] = data
        self._spawn(self.store.put_journaled(key, data))

    @rule(key=st.sampled_from(KEYS), data=payloads)
    def patch(self, key, data):
        if not self._live(key):
            return
        self.busy.add(key)

        def proc():
            yield from self.store.patch(key, data, 16)
            self.model[key] = data
            self.busy.discard(key)

        self._spawn(proc())

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        if not self._live(key):
            return
        self.busy.add(key)

        def proc():
            yield from self.store.delete(key)
            del self.model[key]
            self.busy.discard(key)

        self._spawn(proc())

    @rule(key=st.sampled_from(KEYS), times=st.sampled_from([1, 3]))
    def get(self, key, times):
        # Three reads in a row are what lets a key evict an idle resident.
        if not self._live(key):
            return

        def proc():
            for _ in range(times):
                if not self._live(key):
                    return
                expect = self.model[key]
                data = yield from self.store.get(key)
                assert data == expect

        self._spawn(proc())

    @rule(key=st.sampled_from(KEYS), cut=st.tuples(
        st.floats(0, 1), st.floats(0, 1)))
    def get_range(self, key, cut):
        if not self._live(key):
            return

        def proc():
            expect = self.model[key]
            lo, hi = sorted(int(c * len(expect)) for c in cut)
            data = yield from self.store.get_range(key, lo, hi - lo)
            assert data == expect[lo:hi]

        self._spawn(proc())

    @rule(key=st.sampled_from(KEYS))
    def fill(self, key):
        if self._live(key):
            self.store.fill(key)

    @rule(dt=st.sampled_from([1e-4, 1e-3, 5e-3, 5e-2]))
    def advance(self, dt):
        self.env.run(until=self.env.now + dt)

    @precondition(lambda self: self.procs)
    @rule()
    def drain(self):
        self.env.run()
        assert not self.busy
        assert self.store._filling == {} and self.store._reserved == 0

    @invariant()
    def books_balance(self):
        store = self.store
        for proc in self.procs:
            if proc.triggered and not proc.ok:
                raise proc.value
        resident = store._resident
        assert store.ssd_used_bytes() == sum(resident.values())
        assert (store.ssd_used_bytes() + store._reserved
                <= store.ssd_capacity_bytes)
        assert store._reserved >= 0
        for key, size in resident.items():
            assert key in store and store.object_size(key) == size
        assert set(resident) <= set(store._reads)
        assert store.ssd.stats.write_bytes <= store.hdd.stats.read_bytes
        stats = store.stats
        assert stats.promotions - stats.evictions >= len(resident)


TierMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestTierMachine = TierMachine.TestCase
