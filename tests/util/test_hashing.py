"""Tests for stable hashing and the consistent-hash ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meta import dir_hash
from repro.kvstore.sharded import NUM_SLOTS
from repro.util.hashing import ConsistentHashRing, fnv1a_64, mix64, stable_hash
from repro.util.pathutil import normalize


class TestFnv:
    def test_known_vector(self):
        # FNV-1a 64-bit of empty input is the offset basis.
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_str_and_bytes_agree(self):
        assert fnv1a_64("hello") == fnv1a_64(b"hello")

    def test_deterministic(self):
        assert fnv1a_64("diesel") == fnv1a_64("diesel")

    def test_distinct_inputs_differ(self):
        assert fnv1a_64("a") != fnv1a_64("b")

    @given(st.binary(max_size=40), st.binary(max_size=40))
    def test_state_carries_over_a_split_of_bytes(self, a, b):
        assert fnv1a_64(a + b) == fnv1a_64(b, fnv1a_64(a))

    @given(
        st.lists(st.sampled_from(["a", "données", "été", "火", ".git", "b c"]),
                 max_size=4),
        st.sampled_from(["x.bin", "ñ.jpg", "文件", "🙂", ""]),
    )
    def test_state_carries_over_a_path_split_at_a_slash(self, dirs, name):
        # ``dirs == []`` is a root-level file: parent "", key head "/".
        head = "".join(f"/{d}" for d in dirs) + "/"
        for prefix in ("f:ds:", "dir:ds:0123456789abcdef/f:"):
            assert fnv1a_64(prefix + head + name) == fnv1a_64(
                name, fnv1a_64(prefix + head)
            )
            assert fnv1a_64((prefix + head + name).encode("utf-8")) == fnv1a_64(
                name.encode("utf-8"), fnv1a_64(prefix + head)
            )

    def test_stable_hash_buckets(self):
        for key in ("x", "y", "z"):
            assert 0 <= stable_hash(key, 10) < 10

    def test_stable_hash_bad_buckets(self):
        with pytest.raises(ValueError):
            stable_hash("x", 0)


#: ``stable_hash`` and ``ShardedKV.slot`` of each key, computed at the
#: commit before the metadata write path was rebuilt (PR 20).  KV slots
#: and ring points feed every workload's sim figures: these never move.
PINNED = {
    "": (0xF52A15E9A9B5E89B, 10395),
    "/": (0x7FACE396AE054C7D, 3197),
    "/a": (0xE37FD2B7554830FB, 12539),
    "/a/b": (0x8374DA075F5BDF85, 8069),
    "/train/class0": (0xFDB5B16E71BF8D44, 3396),
    "/r003/d4": (0x5F625DB73CEDEF20, 12064),
    "/données/été": (0x6C3118D89FC22BA4, 11172),
    "ds:imagenet": (0x6A14617CB83A506C, 4204),
    "f:ds:/r001/d3/w0f00001.bin": (0xECF89668E41DC3DB, 987),
    "dir:ds:0123456789abcdef/f:x": (0xC358552A5574F5D7, 13783),
    "jr:ds:00000000000000000042": (0xBA5194BEBB2B1EEC, 7916),
    "reg:0003:ds": (0x2027B16FF1CDBF3E, 16190),
}
#: ``meta.dir_hash`` at the same commit, for every spelling of a path.
PINNED_DIR_HASH = {
    "/": "7face396ae054c7d",
    "": "7face396ae054c7d",
    "/a": "e37fd2b7554830fb",
    "a": "e37fd2b7554830fb",
    "/a/b": "8374da075f5bdf85",
    "a//b/": "8374da075f5bdf85",
    "/a/./b": "8374da075f5bdf85",
    "/train/class0": "fdb5b16e71bf8d44",
    "/r003/d4": "5f625db73cedef20",
    "/données/été": "6c3118d89fc22ba4",
    "/.git": "906044ad156a9045",
    "/a/..b": "eb08648abc663c87",
}


class TestPinnedValues:
    def test_stable_hash_and_kv_slot(self):
        for key, (full, slot) in PINNED.items():
            assert stable_hash(key) == full
            assert stable_hash(key, NUM_SLOTS) == slot
        assert fnv1a_64("diesel") == 0xEC240AB641D4D6CF
        assert mix64(12345) == 0xF36CF1164265DD51

    def test_ring_lookup(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(5)], replicas=64)
        owners = {key: ring.lookup(key) for key in list(PINNED)[:6]}
        assert owners == {"": "n1", "/": "n4", "/a": "n0", "/a/b": "n1",
                          "/train/class0": "n4", "/r003/d4": "n2"}

    def test_dir_hash(self):
        dir_hash.cache_clear()
        for path, hashed in PINNED_DIR_HASH.items():
            assert dir_hash(path) == hashed  # a memo miss
            assert dir_hash(path) == hashed  # a memo hit

    @given(st.lists(st.sampled_from(["a", "é", ".", ".git", "", "b c"]),
                    max_size=5).map("/".join))
    def test_memoised_dir_hash_is_the_formula(self, path):
        assert dir_hash(path) == f"{stable_hash(normalize(path)):016x}"

    def test_dir_hash_memo_is_bounded_and_rejects_as_before(self):
        assert dir_hash.cache_info().maxsize is not None
        with pytest.raises(ValueError):
            dir_hash("/a/../b")
        with pytest.raises(TypeError):
            dir_hash(7)


class TestRing:
    def test_empty_ring_lookup_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().lookup("key")

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing(["n0"])
        assert all(ring.lookup(f"k{i}") == "n0" for i in range(100))

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(["n0"])
        with pytest.raises(ValueError):
            ring.add("n0")

    def test_remove_missing_rejected(self):
        with pytest.raises(KeyError):
            ConsistentHashRing(["n0"]).remove("n1")

    def test_balance(self):
        """With virtual nodes, key shares should be roughly even."""
        nodes = [f"n{i}" for i in range(10)]
        ring = ConsistentHashRing(nodes, replicas=256)
        counts = {n: 0 for n in nodes}
        for i in range(20_000):
            counts[ring.lookup(f"file-{i}")] += 1
        share = [c / 20_000 for c in counts.values()]
        assert min(share) > 0.04  # no node starved (ideal share 0.10)
        assert max(share) < 0.20  # no node doubled

    def test_removal_only_remaps_dead_nodes_keys(self):
        """The property Fig 6 relies on: killing one node only misses its keys."""
        nodes = [f"n{i}" for i in range(10)]
        ring = ConsistentHashRing(nodes, replicas=128)
        keys = [f"img/{i}.jpg" for i in range(5000)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("n3")
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] != "n3":
                assert after[k] == before[k]
            else:
                assert after[k] != "n3"

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(0, 50), min_size=2, max_size=12).map(sorted))
    def test_lookup_stable_under_add_order(self, node_ids):
        """Ring assignment must not depend on insertion order."""
        names = [f"node-{i}" for i in node_ids]
        a = ConsistentHashRing(names, replicas=64)
        b = ConsistentHashRing(reversed(names), replicas=64)
        for i in range(200):
            key = f"key-{i}"
            assert a.lookup(key) == b.lookup(key)

    def test_partition_covers_all_keys(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        keys = [f"k{i}" for i in range(100)]
        parts = ring.partition(keys)
        assert sorted(sum(parts.values(), [])) == sorted(keys)

    def test_partition_deterministic_and_order_preserving(self):
        """Fan-out layers partition a chunk list per owner; the result
        must be reproducible and keep each owner's keys in input order."""
        ring = ConsistentHashRing(["a", "b", "c"], replicas=64)
        keys = [f"chunk-{i:04d}" for i in range(200)]
        first = ring.partition(keys)
        second = ring.partition(keys)
        assert first == second
        assert set(first) == {"a", "b", "c"}  # every node listed, even if empty
        for node, owned in first.items():
            assert owned == [k for k in keys if ring.lookup(k) == node]

    def test_partition_after_remove_only_moves_lost_keys(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(6)], replicas=128)
        keys = [f"img/{i}.jpg" for i in range(1000)]
        before = ring.partition(keys)
        ring.remove("n2")
        after = ring.partition(keys)
        assert "n2" not in after
        for node in after:
            # Surviving nodes keep everything they had (plus adoptees).
            assert set(before[node]) <= set(after[node])
        assert sorted(sum(after.values(), [])) == sorted(keys)
