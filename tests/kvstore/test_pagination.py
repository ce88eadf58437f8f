"""Cursor-based paginated pscan: per-table and sharded."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVTable

from tests.kvstore.test_kv import build_cluster


def fill(table_or_kv, n, put):
    for i in range(n):
        put(f"k/{i:03d}", f"v{i}".encode())


class TestTableCursor:
    def make(self, n=25):
        t = KVTable()
        fill(t, n, t.put)
        return t

    def test_cursor_resumes_after_last_key(self):
        t = self.make()
        first = t.pscan("k/", 10)
        rest = t.pscan("k/", None, first[-1][0])
        assert first + rest == t.pscan("k/")

    def test_paged_walk_is_bit_identical_to_full_scan(self):
        t = self.make()
        for page_size in (1, 3, 7, 100):
            walked, cursor = [], None
            while True:
                page = t.pscan("k/", page_size, cursor)
                if not page:
                    break
                walked.extend(page)
                cursor = page[-1][0]
            assert walked == t.pscan("k/")

    def test_cursor_before_prefix_starts_at_prefix(self):
        # A cursor lexically below the prefix range must not push the
        # scan start before the range (it would bail on the first
        # non-matching key and return nothing).
        t = self.make(5)
        t.put("a/0", b"x")
        assert t.pscan("k/", None, "a/0") == t.pscan("k/")

    def test_cursor_past_range_returns_empty(self):
        t = self.make(5)
        assert t.pscan("k/", None, "k/999") == []

    def test_pcount_matches_pscan(self):
        t = self.make(12)
        t.put("a", b"x")
        t.put("z", b"y")
        assert t.pcount("k/") == len(t.pscan("k/")) == 12
        assert t.pcount("") == len(t)
        assert t.pcount("nope/") == 0


class TestShardedPages:
    def populated(self, n=60, n_instances=4):
        kv = build_cluster(n_instances=n_instances)
        fill(kv, n, kv.local_put)
        return kv

    def test_local_page_walk_equals_unpaginated(self):
        kv = self.populated()
        for page_size in (1, 7, 64, 1000):
            walked, cursor = [], None
            while True:
                page, cursor = kv.local_pscan_page(
                    "k/", cursor=cursor, limit=page_size
                )
                walked.extend(page)
                if cursor is None:
                    break
            assert walked == kv.local_pscan("k/")

    def test_no_limit_returns_everything_with_no_cursor(self):
        kv = self.populated(20)
        page, cursor = kv.local_pscan_page("k/")
        assert page == kv.local_pscan("k/")
        assert cursor is None

    def test_exact_boundary_final_page(self):
        # n divisible by the page size: the last full page returns a
        # cursor, and the extra fetch comes back empty with cursor=None.
        kv = self.populated(20)
        page, cursor = kv.local_pscan_page("k/", limit=20)
        assert len(page) == 20 and cursor is not None
        tail, cursor = kv.local_pscan_page("k/", cursor=cursor, limit=20)
        assert tail == [] and cursor is None

    def test_pscan_iter_streams_nonempty_pages(self):
        kv = self.populated(10)
        pages = list(kv.local_pscan_iter("k/", 4))
        assert [len(p) for p in pages] == [4, 4, 2]
        assert [kv for p in pages for kv in p] == kv.local_pscan("k/")
        with pytest.raises(ValueError):
            next(kv.local_pscan_iter("k/", 0))

    def test_local_pcount_sums_shards(self):
        kv = self.populated(33)
        assert kv.local_pcount("k/") == 33
        assert kv.local_pcount("zz/") == 0


class TestSkipDeadDeterminism:
    """Merge order must depend only on pair content, never shard order.

    A key can transiently live on two shards (mid-rebalance, or a
    restarted shard rebuilt from chunks while the old owner drains);
    a key-only stable sort would then order the duplicates by shard
    enumeration.
    """

    def duplicated(self):
        kv = build_cluster(n_instances=3)
        fill(kv, 12, kv.local_put)
        # Plant the same key on two specific shards, with values sorting
        # *against* shard enumeration order: a key-only stable sort
        # would emit them in shard order and miss the regression.
        kv.instances[0].table.put("k/dup", b"z-from-shard-0")
        kv.instances[2].table.put("k/dup", b"a-from-shard-2")
        return kv

    def test_duplicate_keys_order_by_full_pair(self):
        kv = self.duplicated()
        out = kv.local_pscan("k/")
        dups = [v for k, v in out if k == "k/dup"]
        assert dups == [b"a-from-shard-2", b"z-from-shard-0"]

    def test_paged_merge_preserves_duplicate_order(self):
        kv = self.duplicated()
        walked, cursor = [], None
        while True:
            page, cursor = kv.local_pscan_page("k/", cursor=cursor, limit=3)
            walked.extend(page)
            if cursor is None:
                break
        assert walked == kv.local_pscan("k/")


class TestLimitAtLeastOne:
    """A page holds one pair or more: ``limit < 1`` is an error, not a
    page of one pair plus a cursor."""

    @pytest.mark.parametrize("limit", [0, -1])
    def test_table_rejects(self, limit):
        t = KVTable()
        t.put("a1", b"")
        with pytest.raises(ValueError):
            t.pscan("a", limit)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_sharded_page_rejects(self, limit):
        kv = TestShardedPages().populated(10)
        with pytest.raises(ValueError):
            kv.local_pscan_page("k/", limit=limit)


def eager_page(kv, prefix, cursor, limit):
    """The eager page algorithm, kept as the reference: every shard
    materializes up to ``limit`` pairs past ``cursor``, the pages are
    merged on the full pair and truncated, and a full page's last key
    is the cursor."""
    parts = []
    for inst in kv.instances:
        keys = sorted(
            k for k in inst.table.keys()
            if k.startswith(prefix) and (cursor is None or k > cursor)
        )
        parts.append([(k, inst.table.get(k)) for k in keys[:limit]])
    page = list(heapq.merge(*parts))[:limit]
    return page, (page[-1][0] if len(page) >= limit else None)


class CountingDict(dict):
    """A table's pair store that counts the values read out of it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestOnePassPage:
    """``local_pscan_page`` merges the shards' lazy scans and stops at
    ``limit``: the same pages and cursors as the eager algorithm, each
    page read in one pass."""

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.sets(st.text(alphabet="ab/", max_size=5), max_size=40),
        n_shards=st.integers(1, 16),
        limit=st.integers(1, 9),
        prefix=st.sampled_from(["", "a", "b/", "ab"]),
        start=st.one_of(st.none(), st.text(alphabet="ab/", max_size=4)),
        dup=st.integers(0, 15),
    )
    def test_pages_equal_the_eager_reference(
        self, keys, n_shards, limit, prefix, start, dup
    ):
        kv = build_cluster(n_instances=n_shards)
        for key in sorted(keys):
            kv.local_put(key, key.encode()[::-1])
        if keys and n_shards > 1:
            # One key on a second shard too, its value sorting first.
            key = sorted(keys)[dup % len(keys)]
            other = kv.instances[
                (kv.instances.index(kv.owner(key)) + 1) % n_shards
            ]
            other.table.put(key, b"")
        cursor = start  # a mid-scan cursor that need not be a key
        while True:
            page, next_cursor = kv.local_pscan_page(prefix, cursor, limit)
            assert (page, next_cursor) == eager_page(kv, prefix, cursor, limit)
            if next_cursor is None:
                break
            cursor = next_cursor

    @pytest.mark.parametrize("n_shards,limit", [(1, 4), (4, 8), (8, 5), (16, 3)])
    def test_each_page_reads_at_most_limit_plus_shards(self, n_shards, limit):
        kv = build_cluster(n_instances=n_shards)
        fill(kv, 400, kv.local_put)
        stores = []
        for inst in kv.instances:
            inst.table._data = CountingDict(inst.table._data)
            stores.append(inst.table._data)
        cursor, pages = None, 0
        while True:
            before = sum(d.reads for d in stores)
            page, cursor = kv.local_pscan_page("k/", cursor, limit)
            assert sum(d.reads for d in stores) - before <= limit + n_shards
            pages += 1
            if cursor is None:
                break
        assert pages == 400 // limit + 1
