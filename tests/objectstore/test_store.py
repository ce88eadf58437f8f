"""Tests for the object store and the tiered (SSD cache) store."""

import pytest

from repro.cluster.devices import Device
from repro.errors import ObjectNotFoundError
from repro.objectstore import ObjectStore, TieredStore
from repro.sim import Environment, run_sync


def make_store(per_op=0.0, bw=1e12):
    env = Environment()
    dev = Device(env, "ssd", per_op_s=per_op, bandwidth_bps=bw, queue_depth=8)
    return env, ObjectStore(dev)


class TestObjectStore:
    def test_put_get_roundtrip(self):
        env, store = make_store()

        def proc(env):
            yield from store.put("k1", b"hello world")
            data = yield from store.get("k1")
            return data

        assert run_sync(env, proc(env)) == b"hello world"

    def test_get_missing_raises(self):
        env, store = make_store()

        def proc(env):
            yield from store.get("ghost")

        with pytest.raises(ObjectNotFoundError):
            run_sync(env, proc(env))

    def test_get_range(self):
        env, store = make_store()
        store.load([("k", b"0123456789")])

        def proc(env):
            data = yield from store.get_range("k", 2, 5)
            return data

        assert run_sync(env, proc(env)) == b"23456"

    @pytest.mark.parametrize("off,length", [(-1, 2), (0, 11), (8, 5), (0, -1)])
    def test_get_range_bounds(self, off, length):
        env, store = make_store()
        store.load([("k", b"0123456789")])

        def proc(env):
            yield from store.get_range("k", off, length)

        with pytest.raises(ValueError):
            run_sync(env, proc(env))

    def test_delete(self):
        env, store = make_store()
        store.load([("k", b"x")])

        def proc(env):
            yield from store.delete("k")

        run_sync(env, proc(env))
        assert "k" not in store
        assert len(store) == 0

    def test_put_rejects_non_bytes(self):
        env, store = make_store()

        def proc(env):
            yield from store.put("k", "a string")

        with pytest.raises(TypeError):
            run_sync(env, proc(env))

    def test_list_keys_sorted(self):
        env, store = make_store()
        store.load([("b", b""), ("a", b""), ("c", b"")])
        assert store.list_keys() == ["a", "b", "c"]

    def test_list_keys_after(self):
        env, store = make_store()
        store.load([(f"k{i}", b"") for i in range(5)])
        assert store.list_keys(after="k2") == ["k3", "k4"]
        assert store.list_keys(after="zzz") == []

    def test_read_time_scales_with_size(self):
        env, store = make_store(per_op=0.0, bw=1e6)  # 1 MB/s
        store.load([("k", b"x" * 500_000)])

        def proc(env):
            t0 = env.now
            yield from store.get("k")
            return env.now - t0

        assert run_sync(env, proc(env)) == pytest.approx(0.5)

    def test_size_accounting(self):
        env, store = make_store()
        store.load([("a", b"12345"), ("b", b"123")])
        assert store.size_bytes() == 8
        assert store.object_size("a") == 5


#: Longer than any background fill in these tests takes.
FILL_S = 1.0


def make_tiered(ssd_capacity=10_000, promote=True):
    env = Environment()
    ssd = Device(env, "ssd", per_op_s=1e-4, bandwidth_bps=1e9, queue_depth=8)
    hdd = Device(env, "hdd", per_op_s=1e-2, bandwidth_bps=1e8, queue_depth=4)
    return env, TieredStore(ssd, hdd, ssd_capacity_bytes=ssd_capacity, promote_on_miss=promote)


class TestTieredStore:
    def test_first_read_misses_then_hits(self):
        env, store = make_tiered()

        def proc(env):
            yield from store.put("k", b"x" * 1000)
            yield from store.get("k")  # miss; the fill runs behind it
            assert not store.in_ssd("k")
            yield env.timeout(FILL_S)
            yield from store.get("k")  # hit
            return None

        run_sync(env, proc(env))
        assert store.stats.ssd_misses == 1
        assert store.stats.ssd_hits == 1
        assert store.stats.promotions == 1
        assert store.in_ssd("k")

    def test_hit_is_faster_than_miss(self):
        env, store = make_tiered()

        def timed_get(env, key):
            t0 = env.now
            yield from store.get(key)
            return env.now - t0

        def proc(env):
            yield from store.put("k", b"x" * 1000)
            miss_t = yield from timed_get(env, "k")
            yield env.timeout(FILL_S)
            hit_t = yield from timed_get(env, "k")
            return miss_t, hit_t

        miss_t, hit_t = run_sync(env, proc(env))
        assert hit_t < miss_t / 10

    def test_lru_eviction(self):
        env, store = make_tiered(ssd_capacity=2500)

        def proc(env):
            for key in ("a", "b", "c"):
                yield from store.put(key, b"x" * 1000)
            yield from store.get("a")
            yield from store.get("b")
            # The tier is full: c has to be read three times while a sits
            # idle before it may take a's place (a is the LRU).
            for _ in range(3):
                yield env.timeout(FILL_S)
                assert store.in_ssd("a") and store.in_ssd("b")
                yield from store.get("c")
            yield env.timeout(FILL_S)
            return None

        run_sync(env, proc(env))
        assert not store.in_ssd("a")
        assert store.in_ssd("b") and store.in_ssd("c")
        assert store.stats.evictions == 1
        assert store.stats.rejections == 2
        assert store.ssd_used_bytes() == 2000

    def test_oversized_object_never_promoted(self):
        env, store = make_tiered(ssd_capacity=100)

        def proc(env):
            yield from store.put("big", b"x" * 1000)
            yield from store.get("big")
            yield env.timeout(FILL_S)
            return None

        run_sync(env, proc(env))
        assert not store.in_ssd("big")
        assert store.stats.promotions == 0

    def test_promote_disabled(self):
        env, store = make_tiered(promote=False)

        def proc(env):
            yield from store.put("k", b"x")
            yield from store.get("k")
            yield env.timeout(FILL_S)
            yield from store.get("k")
            return None

        run_sync(env, proc(env))
        assert store.stats.ssd_misses == 2
        assert store.stats.promotions == 0

    def test_get_range_through_tiers(self):
        env, store = make_tiered()

        def proc(env):
            yield from store.put("k", b"0123456789")
            part = yield from store.get_range("k", 3, 4)
            return part

        assert run_sync(env, proc(env)) == b"3456"

    def test_missing_raises(self):
        env, store = make_tiered()

        def proc(env):
            yield from store.get("nope")

        with pytest.raises(ObjectNotFoundError):
            run_sync(env, proc(env))

    def test_hit_ratio(self):
        env, store = make_tiered()

        def proc(env):
            yield from store.put("k", b"z")
            for _ in range(4):
                yield from store.get("k")
                yield env.timeout(FILL_S)
            return None

        run_sync(env, proc(env))
        assert store.stats.hit_ratio == pytest.approx(0.75)

    def test_invalid_capacity(self):
        env = Environment()
        d = Device(env, "d", per_op_s=0, bandwidth_bps=1)
        with pytest.raises(ValueError):
            TieredStore(d, d, ssd_capacity_bytes=0)
