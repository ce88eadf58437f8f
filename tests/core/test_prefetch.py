"""Pipelined chunk prefetch + batched multi-get read path.

Covers the three layers of the pipelined read path:

* the window's single-flight ``inflight`` map (no duplicate chunk transfers,
  including the evicted-while-waiting re-fetch branch);
* the :class:`~repro.core.prefetch.ChunkPrefetcher` (bounded working
  set, hit/miss/wasted accounting, clean cancellation);
* ``get_many()`` / the server's batched ``get_files`` RPC.
"""

import pytest

from repro.core.config import DieselConfig
from repro.errors import ClosedError, DieselError

from tests.core.conftest import build_deployment, small_files, write_dataset

CHUNK = 8 * 1024  # 4 files of 2 KiB per chunk


def loaded_client(deployment, n=24, config=None, dataset="ds"):
    files = small_files(n, size=2048)
    write_dataset(deployment, dataset, files, chunk_size=CHUNK)
    client = deployment.new_client(dataset, config=config)

    def load():
        blob = yield from client.save_meta()
        yield from client.load_meta(blob)

    deployment.run(load())
    return client, files


class TestSingleFlight:
    def test_concurrent_cold_readers_one_transfer(self, deployment):
        """Two readers racing on the same cold chunk: one get_chunk read."""
        client, files = loaded_client(deployment)
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=1)
        # Two files guaranteed to share the epoch's first chunk.
        first_chunk_files = list(plan.groups[0].files)
        rec = client.index.lookup(first_chunk_files[0])
        sharers = [
            p for p in first_chunk_files
            if client.index.lookup(p).chunk_id == rec.chunk_id
        ]
        assert len(sharers) >= 2

        results = {}

        def reader(path):
            data = yield from client.get(path)
            results[path] = data

        for p in sharers[:2]:
            deployment.env.process(reader(p))
        deployment.env.run()
        assert results == {p: files[p] for p in sharers[:2]}
        assert deployment.server.stats.chunk_reads == 1
        assert client.stats.server_reads == 1

    def test_evicted_while_waiting_refetches(self, deployment):
        """A waiter whose chunk is evicted before it wakes must re-fetch —
        and that re-fetch itself stays single-flight."""
        client, files = loaded_client(deployment, n=32)
        client.enable_shuffle(group_size=1)  # capacity 1: any fetch evicts
        paths = sorted(files)
        rec_a = client.index.lookup(paths[0])
        # A path from a different chunk than paths[0].
        other = next(
            p for p in paths
            if client.index.lookup(p).chunk_id != rec_a.chunk_id
        )

        def waiter():
            data = yield from client.get(paths[0])
            assert data == files[paths[0]]

        def evictor():
            # Runs while the waiter's chunk is still in flight; once the
            # waiter's fetch completes, this fetch evicts it (capacity 1)
            # before some late waiter re-checks the cache.
            data = yield from client.get(other)
            assert data == files[other]

        # Three processes racing on chunk A: p1 fetches, p2+p3 wait.
        # Meanwhile the evictor pulls chunk B, evicting A the moment it
        # lands, so late waiters find the cache empty and re-fetch.
        p1 = deployment.env.process(waiter())
        p2 = deployment.env.process(waiter())
        e1 = deployment.env.process(evictor())
        deployment.env.run()
        assert p1.ok and p2.ok and e1.ok
        # Chunk A was transferred at most twice (initial + one re-fetch
        # shared by all late waiters) and chunk B once — never one
        # transfer per waiter.
        assert deployment.server.stats.chunk_reads <= 3


class TestPrefetcher:
    def _pipelined(self, deployment, depth, group_size=2, n=24):
        client, files = loaded_client(
            deployment, n=n,
            config=DieselConfig(prefetch_depth=depth),
        )
        client.enable_shuffle(group_size=group_size)
        return client, files

    def test_epoch_plan_starts_pipeline(self, deployment):
        client, _ = self._pipelined(deployment, depth=2)
        plan = client.epoch_file_list(seed=1)
        assert client.prefetcher is not None
        assert client.prefetcher.active
        assert len(client.prefetcher._schedule) == len(
            client.index.chunk_ids()
        )

    def test_working_set_bounded_by_group_plus_depth(self, deployment):
        depth, group = 2, 2
        client, files = self._pipelined(deployment, depth, group_size=group)
        plan = client.epoch_file_list(seed=7)

        def consume():
            for path in plan.files:
                data = yield from client.get(path)
                assert data == files[path]
                assert len(client._window.resident) <= group + depth

        deployment.run(consume())
        assert client.working_set_bytes() <= (group + depth) * CHUNK

    def test_no_duplicate_transfers_and_hits(self, deployment):
        client, files = self._pipelined(deployment, depth=4)
        plan = client.epoch_file_list(seed=3)

        def consume():
            for path in plan.files:
                yield from client.get(path)

        deployment.run(consume())
        n_chunks = len(client.index.chunk_ids())
        # Every chunk moved exactly once: single-flight de-dupes the
        # pipeline against demand fetches.
        assert deployment.server.stats.chunk_reads == n_chunks
        assert client.stats.server_reads == n_chunks
        assert client.stats.prefetch_issued == n_chunks
        # The consumer found every chunk prefetched (resident or in
        # flight): the epoch had zero cold stalls.
        assert client.stats.prefetch_hits == n_chunks
        assert client.stats.prefetch_misses == 0
        assert client.stats.prefetch_wasted == 0

    def test_wasted_counts_unconsumed_prefetches(self, deployment):
        client, files = self._pipelined(deployment, depth=3)
        plan = client.epoch_file_list(seed=2)

        def consume_one_group(ready):
            for path in plan.groups[0].files:
                yield from client.get(path)
            ready.append(True)

        done = []
        deployment.run(consume_one_group(done))
        assert done
        # Stop mid-epoch: whatever the pipeline fetched beyond the first
        # group was never consumed.
        client.cancel_prefetch()
        assert client.stats.prefetch_wasted > 0
        assert (
            client.stats.prefetch_hits
            + client.stats.prefetch_misses
            + client.stats.prefetch_wasted
            <= client.stats.prefetch_issued
        )

    def test_close_cancels_pipeline(self, deployment):
        client, _ = self._pipelined(deployment, depth=2)
        client.epoch_file_list(seed=1)
        prefetcher = client.prefetcher
        client.close()
        assert not prefetcher.active
        deployment.env.run()
        assert prefetcher.in_flight == 0
        with pytest.raises(ClosedError):
            client.epoch_file_list()

    def test_new_epoch_replaces_pipeline(self, deployment):
        client, files = self._pipelined(deployment, depth=2)
        plan1 = client.epoch_file_list(seed=1)
        p1 = client.prefetcher

        def consume(plan):
            for path in plan.files:
                yield from client.get(path)

        deployment.run(consume(plan1))
        plan2 = client.epoch_file_list(seed=1)
        assert client.prefetcher is not p1
        assert not p1.active
        deployment.run(consume(plan2))

    def test_prefetch_requires_shuffle_mode(self, deployment):
        client, _ = loaded_client(deployment)
        plan_source, _ = loaded_client(deployment, dataset="ds2")
        plan_source.enable_shuffle(group_size=2)
        plan = plan_source.epoch_file_list(seed=1)
        with pytest.raises(DieselError):
            client.start_prefetch(plan, depth=2)


class TestRepin:
    """Elastic steering: skip schedule entries that became node-local."""

    def _started(self, deployment, depth=2):
        client, files = loaded_client(
            deployment, config=DieselConfig(prefetch_depth=depth)
        )
        client.enable_shuffle(group_size=2)
        plan = client.epoch_file_list(seed=1)
        return client, files, plan

    def test_now_local_tail_entries_are_dropped(self, deployment):
        client, files, plan = self._started(deployment, depth=2)
        prefetcher = client.prefetcher
        issued = prefetcher._next
        tail = len(prefetcher._schedule) - issued
        assert tail > 0
        skipped = prefetcher.repin(lambda enc: client.node.name)
        assert skipped == tail
        assert len(prefetcher._schedule) == issued
        assert prefetcher.repins == 1
        assert prefetcher.repin_skipped == tail

    def test_remote_owned_entries_are_kept(self, deployment):
        client, files, plan = self._started(deployment)
        prefetcher = client.prefetcher
        before = len(prefetcher._schedule)
        skipped = prefetcher.repin(lambda enc: "somewhere-else")
        assert skipped == 0
        assert len(prefetcher._schedule) == before
        assert prefetcher.repins == 1

    def test_skipped_chunks_still_read_without_miss_penalty(self, deployment):
        client, files, plan = self._started(deployment, depth=2)
        client.prefetcher.repin(lambda enc: client.node.name)

        def consume():
            for path in plan.files:
                data = yield from client.get(path)
                assert data == files[path]

        deployment.run(consume())
        # Unscheduled chunks neither score a prefetch miss nor count as
        # wasted pipeline work — they are plain demand reads now.
        assert client.stats.prefetch_misses == 0
        assert client.stats.prefetch_wasted == 0

    def test_inactive_pipeline_is_a_noop(self, deployment):
        client, files, plan = self._started(deployment)
        prefetcher = client.prefetcher
        client.cancel_prefetch()
        assert prefetcher.repin(lambda enc: client.node.name) == 0
        assert prefetcher.repins == 0


class TestEpochSeedMixing:
    def test_fixed_seed_epochs_differ(self, deployment):
        """A fixed seed must still give different successive epochs."""
        client, _ = loaded_client(deployment)
        client.enable_shuffle(group_size=2)
        p1 = client.epoch_file_list(seed=9).files
        p2 = client.epoch_file_list(seed=9).files
        assert p1 != p2
        assert sorted(p1) == sorted(p2)

    def test_fixed_seed_sequence_reproducible(self, deployment):
        """Same seed, fresh client ⇒ the same epoch *sequence*."""
        client_a, _ = loaded_client(deployment)
        client_a.enable_shuffle(group_size=2)
        seq_a = [client_a.epoch_file_list(seed=4).files for _ in range(3)]
        client_b, _ = loaded_client(deployment, dataset="ds2")
        client_b.enable_shuffle(group_size=2)
        seq_b = [client_b.epoch_file_list(seed=4).files for _ in range(3)]
        assert seq_a == seq_b

    def test_full_shuffle_fixed_seed_epochs_differ(self, deployment):
        client, _ = loaded_client(deployment)
        o1 = client.full_shuffle_list(seed=9)
        o2 = client.full_shuffle_list(seed=9)
        assert o1 != o2


class TestGetMany:
    def test_batched_server_path(self, deployment):
        """Without shuffle/cache: the whole batch goes in one RPC."""
        client, files = loaded_client(deployment)
        batch = sorted(files)[:8]
        calls_before = deployment.server.endpoint.stats.calls

        def proc():
            got = yield from client.get_many(batch)
            return got

        got = deployment.run(proc())
        assert got == {p: files[p] for p in batch}
        assert deployment.server.stats.batch_reads == 1
        assert deployment.server.stats.batch_files == len(batch)
        # Files sharing a chunk collapse into merged range reads.
        assert deployment.server.stats.batch_spans <= len(batch)
        assert deployment.server.endpoint.stats.calls == calls_before + 1
        assert client.stats.batched_gets == 1
        assert client.stats.gets == len(batch)

    def test_shuffle_mode_fetches_each_chunk_once(self, deployment):
        client, files = loaded_client(deployment)
        client.enable_shuffle(group_size=4)
        plan = client.epoch_file_list(seed=1)
        batch = plan.files[:12]

        def proc():
            got = yield from client.get_many(batch)
            return got

        got = deployment.run(proc())
        assert got == {p: files[p] for p in batch}
        chunks_touched = {
            client.index.lookup(p).chunk_id.encode() for p in batch
        }
        assert deployment.server.stats.chunk_reads == len(chunks_touched)
        # Second call: everything resident.
        deployment.run(proc())
        assert deployment.server.stats.chunk_reads == len(chunks_touched)

    def test_empty_batch(self, deployment):
        client, _ = loaded_client(deployment)

        def proc():
            got = yield from client.get_many([])
            return got

        assert deployment.run(proc()) == {}

    def test_closed_client_rejects(self, deployment):
        client, files = loaded_client(deployment)
        client.close()
        with pytest.raises(ClosedError):
            client.get_many(sorted(files)[:2]).send(None)
