"""Cursor-based paginated pscan: per-table, sharded, and degraded."""

import pytest

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
        env, _, kv, clients = build_cluster(n_instances=n_instances)
        fill(kv, n, kv.local_put)
        return env, kv, clients[0]

    def test_local_page_walk_equals_unpaginated(self):
        _, kv, _ = self.populated()
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
        _, kv, _ = self.populated(20)
        page, cursor = kv.local_pscan_page("k/")
        assert page == kv.local_pscan("k/")
        assert cursor is None

    def test_exact_boundary_final_page(self):
        # n divisible by the page size: the last full page returns a
        # cursor, and the extra fetch comes back empty with cursor=None.
        _, kv, _ = self.populated(20)
        page, cursor = kv.local_pscan_page("k/", limit=20)
        assert len(page) == 20 and cursor is not None
        tail, cursor = kv.local_pscan_page("k/", cursor=cursor, limit=20)
        assert tail == [] and cursor is None

    def test_pscan_iter_streams_nonempty_pages(self):
        _, kv, _ = self.populated(10)
        pages = list(kv.local_pscan_iter("k/", 4))
        assert [len(p) for p in pages] == [4, 4, 2]
        assert [kv for p in pages for kv in p] == kv.local_pscan("k/")
        with pytest.raises(ValueError):
            next(kv.local_pscan_iter("k/", 0))

    def test_local_pcount_sums_shards(self):
        _, kv, _ = self.populated(33)
        assert kv.local_pcount("k/") == 33
        assert kv.local_pcount("zz/") == 0

    def test_skip_dead_page_walk_matches_skip_dead_scan(self):
        _, kv, _ = self.populated()
        victim = kv.instances[1]
        assert len(victim.table) > 0
        victim.node.kill()
        walked, cursor = [], None
        while True:
            page, cursor = kv.local_pscan_page(
                "k/", cursor=cursor, limit=9, skip_dead=True
            )
            walked.extend(page)
            if cursor is None:
                break
        assert walked == kv.local_pscan("k/", skip_dead=True)


class TestSkipDeadDeterminism:
    """Merge order must depend only on pair content, never shard fate.

    A key can transiently live on two shards (mid-rebalance, or a
    restarted shard rebuilt from chunks while the old owner drains);
    a key-only stable sort would then order the duplicates by shard
    enumeration, so which shard died changed the output order.
    """

    def duplicated(self):
        env, _, kv, clients = build_cluster(n_instances=3)
        fill(kv, 12, kv.local_put)
        # Plant the same key on two specific shards, with values sorting
        # *against* shard enumeration order: a key-only stable sort
        # would emit them in shard order and miss the regression.
        kv.instances[0].table.put("k/dup", b"z-from-shard-0")
        kv.instances[2].table.put("k/dup", b"a-from-shard-2")
        return env, kv, clients[0]

    def test_duplicate_keys_order_by_full_pair(self):
        _, kv, _ = self.duplicated()
        out = kv.local_pscan("k/")
        dups = [v for k, v in out if k == "k/dup"]
        assert dups == [b"a-from-shard-2", b"z-from-shard-0"]

    def test_order_is_invariant_to_which_shard_died(self):
        # Kill a bystander shard: surviving pairs must keep their
        # relative order no matter which shard dropped out.
        _, kv1, _ = self.duplicated()
        baseline = kv1.local_pscan("k/", skip_dead=True)
        _, kv2, _ = self.duplicated()
        kv2.instances[1].node.kill()
        lost = set()
        degraded = kv2.local_pscan("k/", skip_dead=True)
        lost = {k for k, _ in baseline} - {k for k, _ in degraded}
        survivors = [(k, v) for k, v in baseline if k not in lost]
        assert degraded == survivors

    def test_paged_merge_preserves_duplicate_order(self):
        _, kv, _ = self.duplicated()
        walked, cursor = [], None
        while True:
            page, cursor = kv.local_pscan_page("k/", cursor=cursor, limit=3)
            walked.extend(page)
            if cursor is None:
                break
        assert walked == kv.local_pscan("k/")
