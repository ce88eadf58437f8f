"""The delta metadata plane end to end: journal → server → client index.

Covers the staleness edges: horizon fallback, double-apply rejection,
delete-then-append of the same path, and ``files_by_chunk`` consistency
after in-place delta application.
"""

import random

import pytest

from repro.core.meta_journal import MetaJournal, journal_key, read_entry
from repro.core.shuffle import tail_extend
from repro.core.snapshot import SnapshotIndex
from repro.errors import DeltaConflictError, DieselError, JournalFormatError

from tests.core.conftest import build_deployment, small_files, write_dataset

CHUNK = 64 * 1024


def loaded_client(dep, dataset="ds", n=40):
    """Write a dataset and return a client with its snapshot loaded."""
    client = write_dataset(dep, dataset, small_files(n), chunk_size=CHUNK)
    blob = dep.run(client.save_meta())
    dep.run(client.load_meta(blob))
    return client


def append_files(dep, client, files):
    def writer():
        for path, data in files.items():
            yield from client.put(path, data)
        yield from client.flush()

    dep.run(writer())


def assert_index_equivalent(live, fresh):
    """A delta-patched index must equal one rebuilt from scratch."""
    assert live.update_ts == fresh.update_ts
    assert sorted(live.all_paths()) == sorted(fresh.all_paths())
    assert live.chunk_ids() == fresh.chunk_ids()
    assert live.readdir("/") == fresh.readdir("/")
    assert {c: f for c, f in live.files_by_chunk().items()} == {
        c: f for c, f in fresh.files_by_chunk().items()
    }
    for path in fresh.all_paths():
        assert live.lookup(path) == fresh.lookup(path)


class TestRefreshMeta:
    def test_delta_refresh_matches_full_reload(self):
        dep = build_deployment()
        client = loaded_client(dep)
        append_files(dep, client, small_files(12, prefix="/new"))
        dep.run(client.refresh_meta())
        assert client.stats.delta_reloads == 1
        assert client.stats.full_reloads == 0
        assert client.stats.delta_ops_applied > 0
        fresh = SnapshotIndex(dep.server.build_snapshot("ds"))
        assert_index_equivalent(client.index, fresh)
        # One ChunkId per chunk — so one memoised encode() — whichever
        # way the records arrived: snapshot build, blob, or delta.
        for index in (client.index, fresh):
            shared = {cid: cid for cid in index.chunk_ids()}
            assert len(shared) > 2
            for path in index.all_paths():
                cid = index.lookup(path).chunk_id
                assert cid is shared[cid]

    def test_delta_moves_far_fewer_bytes_than_snapshot(self):
        dep = build_deployment()
        client = loaded_client(dep, n=200)
        append_files(dep, client, small_files(2, prefix="/new"))
        dep.run(client.refresh_meta())
        full_blob = dep.run(client.save_meta())
        assert client.stats.delta_bytes < len(full_blob) / 4

    def test_noop_refresh_is_free(self):
        dep = build_deployment()
        client = loaded_client(dep)
        dep.run(client.refresh_meta())
        assert client.stats.delta_reloads == 1
        assert client.stats.delta_ops_applied == 0

    def test_refresh_requires_loaded_snapshot(self):
        dep = build_deployment()
        client = write_dataset(dep, "ds", small_files(4), chunk_size=CHUNK)
        with pytest.raises(DieselError):
            dep.run(client.refresh_meta())

    def test_delete_is_propagated_through_delta(self):
        dep = build_deployment()
        client = loaded_client(dep)
        victim = client.index.all_paths()[0]
        dep.run(client.delete(victim))
        dep.run(client.refresh_meta())
        assert victim not in client.index
        fresh = SnapshotIndex(dep.server.build_snapshot("ds"))
        assert_index_equivalent(client.index, fresh)


class TestHorizonFallback:
    def test_past_horizon_falls_back_to_full_reload(self):
        dep = build_deployment()
        dep.server.journal = MetaJournal(dep.kv, 2)
        client = loaded_client(dep)
        # Each appended batch is one chunk = one journal entry; three
        # pushes compact the first one out of the horizon-2 journal.
        for i in range(3):
            append_files(dep, client, small_files(4, prefix=f"/n{i}"))
        dep.run(client.refresh_meta())
        assert client.stats.full_reloads == 1
        assert client.stats.delta_reloads == 0
        fresh = SnapshotIndex(dep.server.build_snapshot("ds"))
        assert_index_equivalent(client.index, fresh)

    def test_journaling_disabled_always_full_reloads(self):
        dep = build_deployment()
        dep.server.journal = MetaJournal(dep.kv, 0)
        client = loaded_client(dep)
        append_files(dep, client, small_files(4, prefix="/new"))
        dep.run(client.refresh_meta())
        assert client.stats.full_reloads == 1

    @pytest.mark.parametrize(
        "damage", [lambda b: b[:-5], lambda b: b[:-12], lambda b: b + b"junk"]
    )
    def test_damaged_entry_falls_back_to_full_reload(self, damage):
        dep = build_deployment()
        client = loaded_client(dep)
        v0 = client.index.update_ts
        append_files(dep, client, small_files(4, prefix="/a"))
        append_files(dep, client, small_files(4, prefix="/b"))
        # The head still names its version, so the server forwards the
        # blob; the client's walk meets the damage after applying /a.
        key = journal_key("ds", v0 + 2)
        dep.kv.local_put(key, damage(dep.kv.local_get(key)))
        with pytest.raises(JournalFormatError):
            list(read_entry(dep.kv.local_get(key))[1])
        dep.run(client.refresh_meta())
        assert client.stats.full_reloads == 1
        assert client.stats.delta_reloads == 0
        fresh = SnapshotIndex(dep.server.build_snapshot("ds"))
        assert_index_equivalent(client.index, fresh)

    def test_server_reports_client_ahead(self):
        dep = build_deployment()
        loaded_client(dep)

        def probe():
            result = yield from dep.server.call(
                dep.client_nodes[0], "load_meta_delta", "ds", 10 ** 9
            )
            return result

        with pytest.raises(DieselError):
            dep.run(probe())


class TestApplyEdges:
    def entries_since(self, dep, from_ts):
        return dep.server.journal.entries_since("ds", from_ts)

    def test_double_apply_raises(self):
        dep = build_deployment()
        client = loaded_client(dep)
        v0 = client.index.update_ts
        append_files(dep, client, small_files(4, prefix="/new"))
        entries = self.entries_since(dep, v0)
        client.index.apply_delta(entries)
        with pytest.raises(DeltaConflictError):
            client.index.apply_delta(entries)

    def test_gap_raises_instead_of_corrupting(self):
        dep = build_deployment()
        client = loaded_client(dep)
        v0 = client.index.update_ts
        append_files(dep, client, small_files(4, prefix="/a"))
        append_files(dep, client, small_files(4, prefix="/b"))
        entries = self.entries_since(dep, v0)
        with pytest.raises(DeltaConflictError):
            client.index.apply_delta(entries[1:])  # skipped a version

    def test_delete_then_append_same_path(self):
        dep = build_deployment()
        client = loaded_client(dep, n=8)
        path = client.index.all_paths()[0]
        dep.run(client.delete(path))
        append_files(dep, client, {path: b"reborn" * 100})
        dep.run(client.refresh_meta())
        assert path in client.index
        fresh = SnapshotIndex(dep.server.build_snapshot("ds"))
        assert_index_equivalent(client.index, fresh)
        # The record now points at the new chunk, not the tombstoned one.
        assert client.index.lookup(path) == fresh.lookup(path)

    def test_delete_of_unknown_path_raises(self):
        dep = build_deployment()
        client = loaded_client(dep, n=8)
        other = dep.new_client("ds")
        blob = dep.run(other.save_meta())
        dep.run(other.load_meta(blob))
        victim = client.index.all_paths()[0]
        # Manually damage the live index, then try to apply the delete.
        v0 = client.index.update_ts
        dep.run(client.delete(victim))
        entries = dep.server.journal.entries_since("ds", v0)
        other.index._files.pop(victim)
        with pytest.raises(DeltaConflictError):
            other.index.apply_delta(entries)

    def test_files_by_chunk_patched_in_place(self):
        dep = build_deployment()
        client = loaded_client(dep)
        grouping = client.index.files_by_chunk()  # force the build
        n_groups = len(grouping)
        append_files(dep, client, small_files(6, prefix="/new"))
        dep.run(client.refresh_meta())
        patched = client.index.files_by_chunk()
        assert len(patched) > n_groups  # new chunk groups appeared
        fresh = SnapshotIndex(dep.server.build_snapshot("ds"))
        assert patched == fresh.files_by_chunk()


class TestOnlineIngest:
    def test_tail_extend_preserves_committed_order(self):
        dep = build_deployment()
        client = loaded_client(dep, n=64)
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=7)
        committed = plan.files[: len(plan.files) // 2]
        # Mid-epoch, new data lands and the client picks up the delta.
        append_files(dep, client, small_files(32, prefix="/late"))
        dep.run(client.refresh_meta())
        extended = tail_extend(
            plan, client.index.files_by_chunk(), 2, random.Random(11)
        )
        # Committed reads keep their exact order; the whole of the old
        # plan is a strict prefix of the extended one.
        assert extended.files[: len(plan.files)] == plan.files
        assert extended.files[: len(committed)] == committed
        # Every late file joined the tail; nothing was lost or doubled.
        assert sorted(extended.files) == sorted(client.index.all_paths())

    def test_tail_extend_without_new_chunks_is_identity(self):
        dep = build_deployment()
        client = loaded_client(dep, n=16)
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=3)
        same = tail_extend(
            plan, client.index.files_by_chunk(), 2, random.Random(5)
        )
        assert same is plan
