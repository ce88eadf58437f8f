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

A fresh load shares the server's write path with the journal, so both
are also checked against a spec the rules keep by themselves: each live
path's length and chunk, and the dataset's chunk list.  A rule learns a
chunk's id and files from the chunk objects it made appear in the
store, decoded by the chunk codec, never from the metadata plane.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.chunk import Chunk
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
        #: The spec: path -> (length, chunk id) of every live file; the
        #: dataset's chunks; the chunks holding a tombstone.
        self.model: dict = {}
        self.chunks: set = set()
        self.holed: set = set()
        self.seen: set = set()
        self._new_chunks(lambda path, chunk: len(chunk.payload(path)))

    def _new_chunks(self, length_of):
        """Fold the chunks that appeared in the store since the last call
        into the spec, oldest first: each listed, each of its paths at
        ``length_of(path, chunk)`` in it."""
        store = self.dep.store
        for key in store.list_keys():
            if key in self.seen:
                continue
            self.seen.add(key)
            chunk = Chunk.decode(store.peek(key))
            self.chunks.add(chunk.chunk_id)
            for path in chunk.paths:
                self.model[path] = (length_of(path, chunk), chunk.chunk_id)

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
        self._new_chunks(lambda path, chunk: size)

    @precondition(lambda self: self.held.file_count)
    @rule(data=st.data())
    def delete(self, data):
        path = data.draw(st.sampled_from(sorted(self.held.all_paths())))
        self.dep.run(self.client.delete(path))
        self.holed.add(self.model.pop(path)[1])

    @rule()
    def purge(self):
        self.dep.run(self.client.purge())
        # Every chunk with a tombstone goes; its live files move, at
        # their lengths, into the chunks the purge wrote.
        self.chunks -= self.holed
        self.holed.clear()
        self._new_chunks(lambda path, chunk: self.model[path][0])

    @rule()
    def query_tree(self):
        self.held.readdir("/")
        self.tree = True

    @rule()
    def query_groups(self):
        self.held.files_by_chunk()
        self.groups = True

    @invariant()
    def answers_as_the_spec(self):
        server, held, model = self.dep.server, self.held, self.model
        held.apply_delta(server.journal.entries_since(DS, held.update_ts))
        assert held.file_count == len(model)
        assert sorted(held.all_paths()) == sorted(model)
        assert held.chunk_ids() == tuple(sorted(self.chunks))
        for path, (length, cid) in model.items():
            record = held.lookup(path)
            assert (record.length, record.chunk_id) == (length, cid)
            assert held.locate(path)[::2] == (cid.encode(), length)
        for path in PATHS:
            assert (path in held) == (path in model)

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
