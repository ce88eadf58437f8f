"""The sorted key index a ``KVTable`` keeps across writes.

A model-based test: random interleavings of ``put``, ``put_many``,
``delete``, ``clear`` and scans against a plain dict.  Every ``scan``,
``pscan``, ``pcount`` and ``keys`` result must equal the one computed
from ``sorted`` over the model, and a lazy ``scan`` started before a
write must yield what it would have yielded without that write.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.kvstore import KVTable

# Few characters, so prefixes overlap and keys come back after deletes.
keys = st.text(alphabet="ab/é", max_size=4)
prefixes = st.text(alphabet="ab/é", max_size=2)
values = st.binary(max_size=3)


def under(model, prefix, cursor=None):
    return [
        (k, model[k]) for k in sorted(model)
        if k.startswith(prefix) and (cursor is None or k > cursor)
    ]


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = KVTable()
        self.model: dict[str, bytes] = {}
        self.writes = 0
        #: Started lazy scans: (iterator, pairs still to come).
        self.live: list = []

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.table.put(key, value)
        self.model[key] = value
        self.writes += 1

    @rule(pairs=st.lists(st.tuples(keys, values), max_size=6))
    def put_many(self, pairs):
        self.table.put_many([k for k, _ in pairs], [v for _, v in pairs])
        self.model.update(pairs)
        self.writes += len(pairs)

    @rule(n=st.integers(40, 120))
    def fill(self, n):
        """A run of keys in one batch, so later deletes fold out of a
        larger index."""
        pairs = [(f"a/{i:03d}", b"f") for i in range(n)]
        self.put_many(pairs)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        """One to three keys, with no scan between them."""
        for key in data.draw(st.lists(
            st.sampled_from(sorted(self.model)), min_size=1, max_size=3,
            unique=True,
        )):
            self.table.delete(key)
            del self.model[key]
            self.writes += 1

    @rule()
    def clear(self):
        self.table.clear()
        self.model.clear()
        self.writes += 1

    @rule(prefix=prefixes, limit=st.none() | st.integers(1, 4),
          cursor=st.none() | keys)
    def pscan(self, prefix, limit, cursor):
        expected = under(self.model, prefix, cursor)[:limit]
        assert self.table.pscan(prefix, limit, cursor) == expected

    @rule(prefix=prefixes)
    def counts_and_keys(self, prefix):
        expected = [k for k, _ in under(self.model, prefix)]
        assert self.table.pcount(prefix) == len(expected)
        assert self.table.keys(prefix) == expected

    @rule(prefix=prefixes, cursor=st.none() | keys)
    def start_scan(self, prefix, cursor):
        """Pull the first pair of a lazy scan; the rest comes later,
        after whatever writes the machine draws in between."""
        expected = under(self.model, prefix, cursor)
        scan = self.table.scan(prefix, cursor)
        assert next(scan, None) == (expected[0] if expected else None)
        self.live.append((scan, expected[1:]))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def finish_scan(self, data):
        scan, rest = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        assert list(scan) == rest

    @invariant()
    def counters(self):
        assert len(self.table) == len(self.model)
        assert self.table.writes == self.writes

    @rule()
    def whole_table(self):
        """A rule, not an invariant: writes pile up between scans."""
        assert self.table.keys() == sorted(self.model)

    def teardown(self):
        for scan, rest in self.live:
            assert list(scan) == rest
        self.whole_table()


IndexMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestKeptIndex = IndexMachine.TestCase


def test_a_new_table_allocates_no_pending_sets():
    table = KVTable()
    assert vars(table).keys() == {"_data", "_runs", "writes"}


def test_put_many_refuses_what_put_refuses_with_the_pairs_ahead_written():
    table = KVTable()
    try:
        table.put_many(["a", "b", 3, "d"], [b"1", bytearray(b"2"), b"3", b"4"])
    except TypeError as exc:
        assert "key must be str" in str(exc)
    else:
        raise AssertionError("put_many took an int key")
    assert table.pscan("") == [("a", b"1"), ("b", b"2")]
    assert type(table.get("b")) is bytes and table.writes == 2


def test_a_scan_after_writes_sorts_the_new_keys_alone():
    """Keys put since the last scan become a young run of their own and
    a deleted key is dropped from the slice read: the eldest run, the
    whole index but those keys, is neither copied nor re-sorted."""
    table = KVTable()
    table.put_many([f"d{i % 10}/k{i:04d}" for i in range(1000)], [b""] * 1000)
    table.keys()
    (base,) = table._runs
    table.put_many([f"d3/n{i}" for i in range(5)], [b"new"] * 5)
    table.delete("d3/k0003")
    table.delete("d3/n0")
    names = [key for key, _ in table.pscan("d3/")]
    assert names == sorted(
        [f"d3/k{i:04d}" for i in range(13, 1000, 10)] + [f"d3/n{i}" for i in range(1, 5)]
    )
    assert table._runs[0] is base and len(table._runs) == 2
    assert table._removed == {"d3/k0003"}
    assert table.pcount("d3/") == len(names)
    # Writes that reach half the eldest run's size merge into it, and
    # the deleted keys are cut out then.
    table.put_many([f"e/{i:04d}" for i in range(600)], [b""] * 600)
    assert table.pcount("d3/") == len(names)
    (merged,) = table._runs
    assert len(merged) == len(table) and table._removed is None
