"""A held snapshot index, patched by journal deltas, against a fresh load.

A model-based test: random interleavings of chunk ingests (overwriting
live paths too), deletes and purges (a chunk dropped, its live files
re-ingested into a new one) on a real deployment.  After every step the
held :class:`SnapshotIndex` applies the journal delta since its version
and must answer ``lookup``, ``locate``, ``stat``, ``all_paths``,
``files_by_chunk`` and ``readdir`` as ``SnapshotIndex`` of the server's
``build_snapshot`` does.  The directory tree and the chunk grouping are
built lazily, so each is first queried at a random step and from then
on kept up to date by the deltas.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.snapshot import SnapshotIndex

from tests.core.conftest import build_deployment, write_dataset

DS = "ds"
#: Few paths over nested and non-ASCII directories, so ingests overwrite
#: live files and deletes empty directories.
PATHS = [
    f"{d}/{name}"
    for d in ("/a", "/a/b", "/données/été")
    for name in ("x", "y.bin", "ü")
]


class SnapshotMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dep = build_deployment()
        self.client = write_dataset(
            self.dep, DS, {PATHS[0]: b"seed" * 20}, chunk_size=512
        )
        self.held = SnapshotIndex(self.dep.server.build_snapshot(DS))
        self.tree = self.groups = False

    @rule(
        names=st.lists(st.sampled_from(PATHS), min_size=1, max_size=5,
                       unique=True),
        size=st.integers(1, 300),
    )
    def ingest(self, names, size):
        client = self.client

        def writer():
            for path in names:
                yield from client.put(path, bytes([len(path)]) * size)
            yield from client.flush()

        self.dep.run(writer())

    @precondition(lambda self: self.held.file_count)
    @rule(data=st.data())
    def delete(self, data):
        path = data.draw(st.sampled_from(sorted(self.held.all_paths())))
        self.dep.run(self.client.delete(path))

    @rule()
    def purge(self):
        self.dep.run(self.client.purge())

    @rule()
    def query_tree(self):
        self.held.readdir("/")
        self.tree = True

    @rule()
    def query_groups(self):
        self.held.files_by_chunk()
        self.groups = True

    @invariant()
    def answers_as_a_fresh_load(self):
        server = self.dep.server
        held = self.held
        held.apply_delta(server.journal.entries_since(DS, held.update_ts))
        fresh = SnapshotIndex(server.build_snapshot(DS))
        assert held.update_ts == fresh.update_ts
        assert held.file_count == fresh.file_count
        assert sorted(held.all_paths()) == sorted(fresh.all_paths())
        assert held.chunk_ids() == fresh.chunk_ids()
        for path in PATHS:
            assert (path in held) == (path in fresh)
            if path in fresh:
                assert held.lookup(path) == fresh.lookup(path)
                assert held.locate(path) == fresh.locate(path)
                assert held.stat(path) == fresh.stat(path)
        if self.groups:
            assert held.files_by_chunk() == fresh.files_by_chunk()
        if self.tree:
            for d in fresh.walk():
                assert held.readdir(d) == fresh.readdir(d)
                assert held.stat(d) == fresh.stat(d)
            assert list(held.walk()) == list(fresh.walk())


SnapshotMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSnapshotMachine = SnapshotMachine.TestCase
