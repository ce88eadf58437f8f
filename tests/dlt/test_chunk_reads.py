"""Chunk-granular task-cache reads: ``TaskCache.read_chunk`` behind a
``CacheReader``'s §4.3 chunk window.

* a differential property: an epoch through the window is byte-identical
  to ``read_file`` over placements × stores × group sizes, the window
  stays within 2 × group size, no epoch's plan fetches a chunk twice,
  only the next epoch's read-ahead is left in flight, and every read
  lands in exactly one tier counter;
* faults: owner death mid-``get_chunk``, a master death + ``recover``
  mid-epoch and between epochs, a cancelled training process;
* the window budget, over both window owners: resident and in-flight
  chunks each stay within ``group + depth``, no chunk has two transfers
  at once, and read-ahead waits while demand fetches fill the budget;
* read-ahead into the next epoch: kept by the next ``begin_epoch``,
  wasted by any other, cancelled with the epoch and at a job's end.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.setups import deploy, diesel_client_with_snapshot, warmed_task
from repro.calibration import ModelProfile
from repro.cluster.node import Node
from repro.core.config import DieselConfig
from repro.core.prefetch import WINDOW_HIT_S
from repro.core.server import object_key
from repro.core.shared_cache import SharedCacheRegistry
from repro.dlt.trainer import run_training
from repro.errors import ChunkFormatError
from repro.obs import SpanRecorder

from tests.invariants import check_invariants, check_window

CHUNK = 6 * 1024
TIERS = ("local_hits", "remote_hits", "shared_hits", "disk_hits",
         "degraded_reads")


def make_files(seed, n=60, sizes=(600, 1500)):
    rng = random.Random(seed)
    return {
        f"/ds/c{i % 5}/f{i:03d}.bin": rng.randbytes(rng.randint(*sizes))
        for i in range(n)
    }


def make_task(seed=0, store="ram", group_size=2,
              n_nodes=3, n_files=60, file_sizes=(600, 1500),
              chunk_size=CHUNK):
    """A warmed task cache with one CacheReader per node.

    ``store``: ``ram`` (the task's own RAM tier, everything fits) or
    ``tiered`` (a passed-in RAM+disk tier with compression, RAM holding
    about half of each node's share) — one residency model either way.
    """
    files = make_files(seed, n_files, file_sizes)
    tb = deploy(1, "ds", files, chunk_size, n_servers=1)
    ram = 256 * 2**30
    if store != "ram":
        ram = sum(c.data_size for c in tb.chunks) // (2 * n_nodes)
    nodes = workers(tb, n_nodes, ram)
    registry = None
    if store == "tiered":
        registry = SharedCacheRegistry(
            tb.env, store="tiered", chunk_compression=True)
    task = warmed_task(
        tb, "ds", nodes, shared=registry,
        group_size=group_size, seed=seed,
    )
    return tb, task.cache, task.make_readers(), files, task.index


def workers(tb, n, ram=2**30):
    """``n`` worker nodes ``w0``… on ``tb``'s fabric, 8 NIC channels each."""
    return [
        tb.fabric.add_node(
            Node(tb.env, f"w{i}", memory_bytes=ram, nic_channels=8))
        for i in range(n)
    ]


def count_fetches(cache):
    """(client name, encoded cid) -> read_chunk calls, counted live."""
    fetched = {}
    inner = cache.read_chunk

    def counting(client, encoded_cid):
        key = (client.name, encoded_cid)
        fetched[key] = fetched.get(key, 0) + 1
        return inner(client, encoded_cid)

    cache.read_chunk = counting
    return fetched


def tier_reads(cache):
    return sum(getattr(cache.stats, tier) for tier in TIERS)


class TestWindowEpoch:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        store=st.sampled_from(["ram", "tiered"]),
        group_size=st.integers(1, 4),
    )
    def test_epoch_matches_read_file(self, seed, store, group_size):
        tb, cache, readers, files, index = make_task(seed, store, group_size)
        # (client name, encoded cid, epoch) -> read_chunk calls.  A fetch
        # the read-ahead starts for the next epoch's shard counts there.
        fetched, current = {}, [0]
        pipelines = {r.cache_client.name: r.window for r in readers}
        inner = cache.read_chunk

        def counting(client, encoded_cid):
            pf = pipelines[client.name].prefetcher
            ahead = (encoded_cid in pf._ahead
                     and encoded_cid not in pf._outstanding)
            key = (client.name, encoded_cid, current[0] + ahead)
            fetched[key] = fetched.get(key, 0) + 1
            return inner(client, encoded_cid)

        cache.read_chunk = counting

        def epoch(reader, e, seen):
            order = yield from reader.begin_epoch(e)
            for path in order:
                data = yield from reader.read(path)
                assert data == files[path]
                assert len(reader.window.chunks.entries) <= 2 * group_size
                seen.append(path)

        for e in range(2):
            current[0] = e
            before = tier_reads(cache)
            seen = []
            procs = [tb.env.process(epoch(r, e, seen)) for r in readers]
            tb.env.run(until=tb.env.all_of(procs))
            assert sorted(seen) == sorted(files)
            # Everything warm: each read is credited to exactly one tier.
            assert tier_reads(cache) - before == len(files)
            for reader in readers:
                # The epoch is consumed; only the next epoch's first
                # chunks, at most one group, may still be in flight.
                pipeline = reader.window.prefetcher
                assert len(pipeline._outstanding) == 0
                assert len(pipeline._ahead) <= group_size
                assert set(reader.window.chunks.flights) <= pipeline._ahead
                assert set(pipeline._procs) <= pipeline._ahead
        # No reader fetches a chunk twice for one epoch, whether the
        # fetch ran in that epoch or read ahead during the one before.
        assert max(fetched.values()) == 1
        stats = cache.stats
        assert stats.chunk_fetches > 0
        assert stats.readahead_wasted == 0
        assert stats.readahead_hits + stats.readahead_misses > 0
        # Drain promotions the last reads kicked, then the oracle.
        tb.env.run()

        def oracle():
            for path, expected in files.items():
                data = yield from cache.read_file(
                    readers[0].cache_client, index.lookup(path))
                assert data == expected

        tb.run(oracle())

    def test_out_of_plan_read_demand_fetches(self):
        tb, cache, readers, files, index = make_task()
        reader = readers[0]
        path = next(iter(files))
        # Before any begin_epoch there is no plan at all.
        assert tb.run(reader.read(path)) == files[path]
        assert reader.window.prefetcher is None
        assert cache.stats.chunk_fetches == 1
        assert cache.stats.readahead_hits == cache.stats.readahead_misses == 0
        assert tb.run(reader.read(path)) == files[path]
        assert cache.stats.chunk_fetches == 1  # second read: window hit
        assert tier_reads(cache) == 2

    def test_remote_chunk_moves_once_by_reference(self):
        tb, cache, readers, files, index = make_task()
        reader = readers[0]
        cid = next(
            c for c in index.chunk_ids()
            if cache.chunk_owner_node(c.encode()) != reader.cache_client.node.name
        )
        owner = cache.owner_of(cid.encode())
        moved = tb.fabric.stats.bytes_moved
        chunk, tier = tb.run(
            cache.read_chunk(reader.cache_client, cid.encode()))
        assert tier == "remote_hits"
        # Aliased, not copied; the wire carried the encoded size once.
        assert chunk is owner.tier.peek("ds", cid.encode())
        assert owner.endpoint.stats.calls == 1
        assert owner.endpoint.stats.response_bytes == len(chunk.encode())
        assert tb.fabric.stats.bytes_moved - moved == 128 + len(chunk.encode())


def remote_chunks(cache, reader, index):
    """(owner node, its chunks) for the remote owner holding the most."""
    node = reader.cache_client.node.name
    by_owner = {}
    for cid in index.chunk_ids():
        owner = cache.chunk_owner_node(cid.encode())
        if owner != node:
            by_owner.setdefault(owner, []).append(cid.encode())
    return max(by_owner.items(), key=lambda kv: len(kv[1]))


class TestFaults:
    def test_owner_killed_mid_get_chunk_degrades_to_server(self):
        tb, cache, readers, files, index = make_task()
        reader = readers[0]
        victim_name, cids = remote_chunks(cache, reader, index)
        victim = cache.masters[victim_name]
        recorder = SpanRecorder.attach(cache)
        # Time a warm one-hop chunk fetch, then kill the owner halfway
        # through the next one.
        t0 = tb.env.now
        _, tier = tb.run(cache.read_chunk(reader.cache_client, cids[0]))
        assert tier == "remote_hits"
        hop_s = tb.env.now - t0
        def kill():
            yield tb.env.timeout(hop_s / 2)
            victim.node.kill()

        tb.env.process(kill())
        backend = tb.diesel.stats.chunk_reads
        target = cids[1]
        paths = [
            p for p in files
            if index.lookup(p).chunk_id.encode() == target
        ]

        def read_all():
            for path in paths:
                data = yield from reader.read(path)
                assert data == files[path]

        tb.run(read_all())  # zero failed reads
        assert recorder.layers("ft_peer_failure") == {"task_cache": 1}
        assert tb.diesel.stats.chunk_reads == backend + 1
        assert cache.stats.degraded_reads == len(paths)
        assert cache.stats.degraded_reads == len(paths)

    def test_master_death_mid_epoch_reads_every_file_once(self):
        """A node dies a quarter into the epoch and the task recovers:
        the shards drawn before the change still read every file once,
        each read resolving against the chunk's owner at read time."""
        tb, cache, readers, files, index = make_task(
            group_size=2, n_files=180)
        dying = readers[2]
        node = dying.cache_client.node
        seen = []

        def worker(reader, crashes=False):
            order = yield from reader.begin_epoch(0)
            for i, path in enumerate(order):
                if crashes and i == len(order) // 4:
                    node.kill()
                    yield from cache.recover()
                seen.append((path, (yield from reader.read(path))))
                window = reader.window
                assert len(window.chunks.entries) <= window.capacity()

        # The dying node's worker is through its shard before it goes.
        tb.run(worker(dying))
        dying.cancel_epoch()
        tb.run_all([worker(r, r is readers[0]) for r in readers[:2]])
        assert node.name not in cache.masters
        assert all(m.up for m in cache.masters.values())
        assert all(data == files[path] for path, data in seen)
        assert sorted(path for path, _ in seen) == sorted(files)

    def test_cancelled_training_cancels_read_ahead(self):
        tb, cache, readers, files, index = make_task(
            group_size=2, n_files=180)
        reader = readers[0]
        # Slow compute: the read-ahead runs a full group ahead of it.
        model = ModelProfile("slow", compute_s=5e-3)
        proc = tb.env.process(run_training(
            tb.env, reader, model, epochs=1, batch_size=2, io_workers=1))
        tb.env.run(until=tb.env.now + 12e-3)
        pipeline = reader.window.prefetcher
        assert proc.is_alive and len(pipeline._outstanding) > 0
        unread = len(pipeline._outstanding)
        proc.interrupt("job cancelled")
        tb.env.run()
        assert not proc.ok
        assert reader.window.prefetcher is None and not pipeline.active
        assert reader.window.chunks.flights == {}
        assert cache.stats.readahead_wasted == unread
        # The reader still works afterwards, by demand fetch.
        path = reader.last_plan.files[-1]
        assert tb.run(reader.read(path)) == files[path]


def watch_budget(window, bound):
    """Check the window budget at every fetch start and end: resident and
    in-flight chunks within ``bound``, one transfer per chunk at a time."""
    fetch, moving = window._fetch, set()

    def check():
        check_window(window, quiescent=False)
        assert len(window.chunks.entries) <= bound
        assert len(window.chunks.flights) <= bound

    def watched(encoded):
        assert encoded not in moving
        moving.add(encoded)
        check()
        try:
            value = yield from fetch(encoded)
        finally:
            moving.discard(encoded)
        check()
        return value

    window._fetch = watched
    return check


class TestBudget:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        group=st.integers(1, 3),
        depth=st.integers(1, 4),
        threads=st.integers(1, 3),
    )
    def test_stream_window(self, seed, group, depth, threads):
        """``DieselClient``: N reader threads (at most one group's worth)
        share one window over a chunk-wise epoch."""
        threads = min(threads, group)
        files = make_files(seed, n=48, sizes=(600, 1500))
        tb = deploy(1, "ds", files, chunk_size=4 * 1024)
        client = diesel_client_with_snapshot(
            tb, "ds", tb.compute_nodes[0], "c0",
            config=DieselConfig(prefetch_depth=depth))
        client.enable_shuffle(group)
        check = watch_budget(client._window, group + depth)
        plan = client.epoch_file_list(seed=seed)

        def reader(paths):
            for path in paths:
                assert (yield from client.get(path)) == files[path]
                check()

        tb.run_all(reader(plan.files[t::threads]) for t in range(threads))
        assert client.stats.fetch_inflight_hwm <= group + depth
        assert client.stats.prefetch_wasted == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        store=st.sampled_from(["ram", "tiered"]),
        group=st.integers(2, 3),
        io_workers=st.integers(2, 3),
    )
    def test_cache_reader_under_training(self, seed, store, group,
                                         io_workers):
        """``CacheReader`` under ``run_training``, three epochs, so the
        read-ahead crosses two epoch boundaries."""
        io_workers = min(io_workers, group)
        tb, cache, readers, files, index = make_task(
            seed, store=store, group_size=group)
        for r in readers:
            def checked(path, read=r.read,
                        check=watch_budget(r.window, 2 * group)):
                data = yield from read(path)
                assert data == files[path]
                check()
                return data

            r.read = checked
        procs = [
            tb.env.process(run_training(
                tb.env, r, ModelProfile("toy", 1e-4), epochs=3,
                batch_size=4, io_workers=io_workers))
            for r in readers
        ]
        tb.env.run(until=tb.env.all_of(procs))
        tb.env.run()
        assert all(r.window.prefetcher is None for r in readers)
        # The job's end also shrank each window to its idle budget.
        check_invariants(caches=[cache], windows=[r.window for r in readers])
        # The job's end cancels each reader's read-ahead into a fourth
        # epoch: at most one group of it each is wasted.
        assert cache.stats.readahead_wasted <= group * len(readers)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_read_ahead_waits_while_demand_fills_the_budget(self, seed):
        """More reader threads than a group has chunks: their demand
        fetches alone fill the window's budget, and read-ahead then
        starts no fetch until one lands."""
        files = make_files(seed, n=48, sizes=(600, 1500))
        tb = deploy(1, "ds", files, chunk_size=4 * 1024)
        client = diesel_client_with_snapshot(
            tb, "ds", tb.compute_nodes[0], "c0",
            config=DieselConfig(prefetch_depth=1))
        client.enable_shuffle(1)
        window = client._window
        plan = client.epoch_file_list(seed=seed)
        pipeline, starts = window.prefetcher, []
        fetch = pipeline._fetch

        def noted(encoded):
            starts.append((len(window.chunks.flights), window.capacity()))
            return fetch(encoded)

        pipeline._fetch = noted

        def reader(paths):
            for path in paths:
                assert (yield from client.get(path)) == files[path]

        tb.run_all(reader(plan.files[t::8]) for t in range(8))
        assert client.stats.fetch_inflight_hwm > window.capacity()
        assert starts
        assert all(inflight < capacity for inflight, capacity in starts)


class TestRollover:
    def test_only_the_first_epoch_stalls(self):
        tb, cache, readers, files, index = make_task(
            group_size=2, n_files=120)
        # Compute-bound: 5 ms a batch of two files.
        result = tb.run(run_training(
            tb.env, readers[0], ModelProfile("slow", 5e-3), epochs=3,
            batch_size=2, io_workers=2))
        first = [times[0] for times in result.epoch_data_times()]
        # Epoch 0 waits for a chunk transfer; later epochs find their
        # first chunks resident and pay the in-memory extraction only.
        assert first[0] > 20 * 2 * WINDOW_HIT_S
        for stall in first[1:]:
            assert stall == pytest.approx(2 * WINDOW_HIT_S)
        assert cache.stats.readahead_misses == 0

    @pytest.mark.parametrize("where", ["mid_epoch", "after_last_group"])
    def test_cancel_epoch_stops_every_fetch(self, where):
        tb, cache, readers, files, index = make_task(
            group_size=2, n_files=180)
        reader = readers[0]
        fetched = count_fetches(cache)

        def epoch():
            order = yield from reader.begin_epoch(0)
            stop = len(order) // 3 if where == "mid_epoch" else len(order)
            for path in order[:stop]:
                assert (yield from reader.read(path)) == files[path]

        tb.run(epoch())
        pipeline = reader.window.prefetcher
        procs = list(pipeline._procs.values())
        assert procs  # something is still being read ahead
        assert bool(pipeline._ahead) == (where == "after_last_group")
        unread = len(pipeline._outstanding | pipeline._ahead)
        reader.cancel_epoch()
        tb.env.run()
        assert reader.window.chunks.flights == {}
        assert not any(p.is_alive for p in procs)
        assert cache.stats.readahead_wasted == unread
        # Nothing fetches for the cancelled epoch any more.
        n = sum(fetched.values())
        tb.env.run(until=tb.env.now + 1.0)
        assert sum(fetched.values()) == n

    def _read_epoch(self, tb, reader, files, epoch):
        def run():
            order = yield from reader.begin_epoch(epoch)
            for path in order:
                assert (yield from reader.read(path)) == files[path]

        tb.run(run())

    def test_next_epoch_keeps_the_continuation(self):
        tb, cache, readers, files, index = make_task(group_size=2)
        reader = readers[0]
        self._read_epoch(tb, reader, files, 0)
        tb.env.run()
        pipeline = reader.window.prefetcher
        ahead = set(pipeline._ahead)
        assert len(ahead) == 2 and ahead <= set(reader.window.chunks.entries)
        hits = cache.stats.readahead_hits
        self._read_epoch(tb, reader, files, 1)
        assert reader.window.prefetcher is pipeline
        assert cache.stats.readahead_wasted == 0
        assert cache.stats.readahead_misses == 0
        assert cache.stats.readahead_hits - hits == len(
            {c for g in reader.last_plan.groups for c in g.chunk_ids})

    def test_skipped_epoch_restarts_and_wastes_the_continuation_once(self):
        tb, cache, readers, files, index = make_task(group_size=2)
        reader = readers[0]
        self._read_epoch(tb, reader, files, 0)
        tb.env.run()
        pipeline = reader.window.prefetcher
        ahead = len(pipeline._ahead)
        assert ahead == 2 and cache.stats.readahead_wasted == 0
        self._read_epoch(tb, reader, files, 2)
        assert reader.window.prefetcher is not pipeline
        assert not pipeline.active
        assert cache.stats.readahead_wasted == ahead

    def test_job_end_cancels_the_continuation(self):
        tb, cache, readers, files, index = make_task(
            group_size=2, n_files=120)
        reader = readers[0]
        fetched = count_fetches(cache)
        ahead, cancel = [], reader.cancel_epoch

        def noted():
            ahead.append(len(reader.window.prefetcher._ahead))
            cancel()

        reader.cancel_epoch = noted
        tb.run(run_training(
            tb.env, reader, ModelProfile("toy", 1e-4), epochs=2,
            batch_size=4, io_workers=2))
        # Called once, after the last epoch, with epoch 2's first
        # chunks read ahead: they are wasted and nothing fetches on.
        assert len(ahead) == 1 and ahead[0] > 0
        assert reader.window.prefetcher is None
        assert cache.stats.readahead_wasted == ahead[0]
        n = sum(fetched.values())
        tb.env.run()
        assert reader.window.chunks.flights == {} and sum(fetched.values()) == n

    def test_master_death_between_epochs_reads_every_file_once(self):
        """Epoch 1 was drawn to read ahead before a node died: it is
        served as drawn, and its shards — the restarted node's too —
        still read every file once."""
        tb, cache, readers, files, index = make_task(group_size=2, n_files=120)
        node = readers[2].cache_client.node
        seen = []

        def worker(reader, epoch):
            order = yield from reader.begin_epoch(epoch)
            for path in order:
                seen.append((path, (yield from reader.read(path))))
                window = reader.window
                assert len(window.chunks.entries) <= window.capacity()

        tb.run_all([worker(r, 0) for r in readers])
        tb.env.run()  # the read-ahead into epoch 1 lands
        continuation = readers[0].window.prefetcher.then
        node.kill()
        tb.run(cache.recover())
        node.restore()  # the machine is back; its master is not
        seen.clear()
        tb.run_all([worker(r, 1) for r in readers])
        assert readers[0].last_plan is continuation
        assert node.name not in cache.masters
        assert all(data == files[path] for path, data in seen)
        assert sorted(path for path, _ in seen) == sorted(files)
        assert cache.stats.degraded_reads == 0


class TestClientChain:
    """Fig 4 in DieselClient: with shuffle on *and* a task cache attached,
    a group-cache miss resolves through the cache, not the server."""

    def test_shuffled_epoch_never_touches_the_backend(self):
        tb, cache, readers, files, index = make_task()
        client = diesel_client_with_snapshot(
            tb, "ds", readers[0].cache_client.node, "c0", rank=0)
        client.attach_cache(cache)
        client.enable_shuffle(group_size=2)
        warm = tb.diesel.stats.chunk_reads
        assert warm == len(index.chunk_ids())
        plan = client.epoch_file_list(seed=5)

        def epoch():
            for path in plan.files:
                data = yield from client.get(path)
                assert data == files[path]

        tb.run(epoch())
        assert tb.diesel.stats.chunk_reads == warm
        assert client.stats.server_reads == 0
        assert client.stats.cache_hits == len(index.chunk_ids())
        assert cache.stats.chunk_fetches == len(index.chunk_ids())
        assert client.stats.local_hits == len(files) - client.stats.cache_hits

    def test_chunk_unknown_to_the_cache_still_reads_from_the_server(self):
        tb, cache, readers, files, index = make_task()
        client = diesel_client_with_snapshot(
            tb, "ds", readers[0].cache_client.node, "c0", rank=0)
        client.attach_cache(cache)
        client.enable_shuffle(group_size=2)
        # Forget one chunk, as if it had been ingested after registration.
        cid = index.chunk_ids()[0].encode()
        del cache._owner_of[cid]
        path = next(
            p for p in files if index.lookup(p).chunk_id.encode() == cid)
        assert tb.run(client.get(path)) == files[path]
        assert client.stats.server_reads == 1


def test_own_disk_hit_is_a_master_hit_not_a_cross_task_read():
    """A task reading its own chunk off the node's disk tier is served
    by its own master — no other task was involved."""
    tb, cache, readers, files, index = make_task(store="tiered")
    tiers = []
    for reader in readers:
        client = reader.cache_client
        master = cache.masters[client.node.name]
        for cid in list(master._held):
            tiers.append(tb.run(cache.read_chunk(client, cid))[1])
    assert set(tiers) == {"local_hits", "disk_hits"}
    assert cache.shared.stats.cross_task_reads == 0
    assert sum(m.stats.hits for m in cache.masters.values()) == len(tiers)


def test_a_chunk_only_another_task_holds_is_a_cross_task_read():
    """A task that has pulled nothing reads a chunk only another task's
    master holds: on the owner's node out of its tier (``_local_chunk``),
    and from another node through the owner (``CacheMaster._serve``)."""
    files = make_files(0)
    tb = deploy(1, "ds", files, CHUNK, n_servers=1)
    nodes = workers(tb, 2)
    registry = SharedCacheRegistry(tb.env)
    first = warmed_task(tb, "ds", nodes, "a", shared=registry)
    second = warmed_task(tb, "ds", nodes, "b", shared=registry, policy="on-demand")
    cache = second.cache
    path = next(iter(files))
    cid = second.index.lookup(path).chunk_id.encode()
    owner = cache.owner_of(cid)
    assert owner.node is first.cache.owner_of(cid).node  # one ring, one deal
    assert not owner.has_chunk(cid) and first.cache.owner_of(cid).has_chunk(cid)
    here, there = sorted(cache.clients, key=lambda c: c.node is not owner.node)
    chunk, tier = tb.run(cache.read_chunk(here, cid))
    assert (chunk.payload(path), tier) == (files[path], "shared_hits")
    chunk, tier = tb.run(cache.read_chunk(there, cid))
    assert (chunk.payload(path), tier) == (files[path], "remote_hits")
    assert registry.stats.cross_task_reads == 2
    assert tb.diesel.stats.chunk_reads == len(tb.chunks)  # first's warm-up only


def test_a_chunk_under_another_id_is_refused_by_the_pull_and_the_read():
    """The task cache keeps what it fetches as ``Chunk.fetched`` views:
    a blob the server returns under another chunk's id is neither held
    by a master nor handed to a reader."""
    files = make_files(0)
    tb = deploy(1, "ds", files, CHUNK, n_servers=1)
    a, b = (c.chunk_id for c in tb.chunks[:2])
    tb.store.load([(object_key("ds", a), tb.store.peek(object_key("ds", b)))])
    task = warmed_task(tb, "ds", workers(tb, 2))
    cid = a.encode()
    assert not any(m.has_chunk(cid) for m in task.cache.masters.values())
    with pytest.raises(ChunkFormatError, match="asked for chunk"):
        tb.run(task.cache.read_chunk(task.cache.clients[0], cid))


def test_recorder_reaches_an_own_tier_but_not_a_passed_in_one():
    from repro.obs import SpanRecorder

    tb, own, *_ = make_task(store="ram")
    rec = SpanRecorder.attach(own)
    assert all(t.recorder is rec for t in own.shared.node_caches)
    SpanRecorder.detach(own)
    assert all(t.recorder is None for t in own.shared.node_caches)

    tb, guest, *_ = make_task(store="tiered")
    registry_rec = SpanRecorder.attach(guest.shared)
    task_rec = SpanRecorder.attach(guest)
    assert all(m.recorder is task_rec for m in guest.masters.values())
    SpanRecorder.detach(guest)
    assert all(t.recorder is registry_rec for t in guest.shared.node_caches)
