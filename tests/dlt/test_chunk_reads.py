"""Chunk-granular task-cache reads: ``TaskCache.read_chunk`` behind a
``CacheReader``'s §4.3 chunk window.

* a differential property: an epoch through the window is byte-identical
  to ``read_file`` over placements × stores × group sizes, the window
  stays within 2 × group size, no chunk is fetched twice, nothing is left
  in flight, and every read lands in exactly one tier counter;
* faults: owner death mid-``get_chunk``, ``scale_down`` mid-epoch, a
  cancelled training process.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.setups import deploy, diesel_client_with_snapshot, warmed_task
from repro.calibration import ModelProfile
from repro.cluster.failure import FailureInjector
from repro.cluster.node import Node
from repro.core.shared_cache import SharedCacheRegistry
from repro.dlt.trainer import run_training

CHUNK = 6 * 1024
TIERS = ("local_hits", "remote_hits", "shared_hits", "disk_hits",
         "degraded_reads")


def make_files(seed, n=60, sizes=(600, 1500)):
    rng = random.Random(seed)
    return {
        f"/ds/c{i % 5}/f{i:03d}.bin": rng.randbytes(rng.randint(*sizes))
        for i in range(n)
    }


def make_task(seed=0, placement="hash", store="ram", group_size=2,
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
    nodes = [
        tb.fabric.add_node(
            Node(tb.env, f"w{i}", memory_bytes=ram, nic_channels=8))
        for i in range(n_nodes)
    ]
    registry = None
    if store == "tiered":
        registry = SharedCacheRegistry(
            tb.env, store="tiered", chunk_compression=True)
    task = warmed_task(
        tb, "ds", nodes, placement=placement, shared=registry,
        group_size=group_size, seed=seed,
    )
    return tb, task.cache, task.make_readers(), files, task.index


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
        placement=st.sampled_from(["hash", "locality"]),
        store=st.sampled_from(["ram", "tiered"]),
        group_size=st.integers(1, 4),
    )
    def test_epoch_matches_read_file(self, seed, placement, store,
                                     group_size):
        tb, cache, readers, files, index = make_task(
            seed, placement, store, group_size)
        fetched = count_fetches(cache)

        def epoch(reader, e, seen):
            order = yield from reader.begin_epoch(e)
            for path in order:
                data = yield from reader.read(path)
                assert data == files[path]
                assert len(reader.window.resident) <= 2 * group_size
                seen.append(path)

        for e in range(2):
            fetched.clear()
            before = tier_reads(cache)
            seen = []
            procs = [tb.env.process(epoch(r, e, seen)) for r in readers]
            tb.env.run(until=tb.env.all_of(procs))
            assert sorted(seen) == sorted(files)
            # Everything warm: each read is credited to exactly one tier.
            assert tier_reads(cache) - before == len(files)
            assert max(fetched.values(), default=1) == 1
            for reader in readers:
                pipeline = reader.window.prefetcher
                assert reader.window.inflight == {}
                assert pipeline.in_flight == 0
                assert len(pipeline._outstanding) == 0
                assert pipeline._sem.in_flight == 0
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

    def test_locality_epoch_is_all_node_local(self):
        tb, cache, readers, files, index = make_task(placement="locality")

        def epoch(reader):
            order = yield from reader.begin_epoch(0)
            for path in order:
                yield from reader.read(path)

        procs = [tb.env.process(epoch(r)) for r in readers]
        tb.env.run(until=tb.env.all_of(procs))
        assert cache.stats.local_hits == len(files)
        assert cache.stats.remote_hits == 0
        assert all(m.endpoint.stats.calls == 0
                   for m in cache.masters.values())

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
            if cache.chunk_owner_node(c) != reader.cache_client.node.name
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
        owner = cache.chunk_owner_node(cid)
        if owner != node:
            by_owner.setdefault(owner, []).append(cid.encode())
    return max(by_owner.items(), key=lambda kv: len(kv[1]))


class TestFaults:
    def test_owner_killed_mid_get_chunk_degrades_to_server(self):
        tb, cache, readers, files, index = make_task()
        reader = readers[0]
        victim_name, cids = remote_chunks(cache, reader, index)
        victim = cache.masters[victim_name]
        reported = []

        class Listener:
            def report_failure(self, master):
                reported.append(master)

        cache.failure_listener = Listener()
        # Time a warm one-hop chunk fetch, then kill the owner halfway
        # through the next one.
        t0 = tb.env.now
        _, tier = tb.run(cache.read_chunk(reader.cache_client, cids[0]))
        assert tier == "remote_hits"
        hop_s = tb.env.now - t0
        FailureInjector(tb.env).kill_at(victim.node, tb.env.now + hop_s / 2)
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
        assert reported == [victim]
        assert tb.diesel.stats.chunk_reads == backend + 1
        assert cache.stats.degraded_reads == len(paths)
        assert cache.stats.degraded_reads == len(paths)

    def test_scale_down_mid_epoch_serves_on_and_repins(self):
        tb, cache, readers, files, index = make_task(
            group_size=2, n_files=180)
        reader = readers[0]
        leaving = readers[2].cache_client.node
        seen = []

        def epoch():
            order = yield from reader.begin_epoch(0)
            half = len(order) // 4
            for path in order[:half]:
                seen.append((path, (yield from reader.read(path))))
            resident = list(reader.window.resident)
            pipeline = reader.window.prefetcher
            yield from cache.scale_down([leaving])
            # The window keeps serving its (aliased) chunks, and the live
            # pipeline was steered at the new chunk→master map.
            kept = [k for k in resident if k in reader.window.resident]
            assert kept
            fetches = cache.stats.chunk_fetches
            again = next(
                p for p in order
                if index.lookup(p).chunk_id.encode() == kept[-1]
            )
            assert (yield from reader.read(again)) == files[again]
            assert cache.stats.chunk_fetches == fetches
            assert reader.window.prefetcher is pipeline
            assert pipeline.repins == 1
            for path in order[half:]:
                seen.append((path, (yield from reader.read(path))))
                assert len(reader.window.resident) <= 4

        tb.run(epoch())
        assert leaving.name not in cache.masters
        assert all(data == files[path] for path, data in seen)
        assert len(seen) == len(reader.last_plan.files)
        assert cache.stats.degraded_reads == 0
        assert reader.window.inflight == {}

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
        assert pipeline.in_flight == 0
        assert reader.window.inflight == {}
        assert cache.stats.readahead_wasted == unread
        # The reader still works afterwards, by demand fetch.
        path = reader.last_plan.files[-1]
        assert tb.run(reader.read(path)) == files[path]


class TestHedging:
    def test_mixed_granularity_reads_of_a_healthy_owner_fire_no_hedge(self):
        """Regression: the latency tracker was keyed by peer alone, so a
        run of KB ``get_file`` replies calibrated a hedge delay far
        below what a MiB ``get_chunk`` reply takes — every chunk read
        after it hedged against a perfectly healthy owner."""
        tb, cache, readers, files, index = make_task(
            n_nodes=4, n_files=480, file_sizes=(12_000, 20_000),
            chunk_size=512 * 1024)
        cache.configure_hedging()
        reader = readers[0]
        owner, cids = remote_chunks(cache, reader, index)
        assert len(cids) >= 3
        by_chunk = {cid: [] for cid in cids}
        for path in files:
            cid = index.lookup(path).chunk_id.encode()
            if cid in by_chunk:
                by_chunk[cid].append(path)

        def reads():
            cc = reader.cache_client
            for rnd in range(4):
                for cid in cids:
                    for path in by_chunk[cid][rnd * 4:rnd * 4 + 4]:
                        data = yield from cache.read_file(
                            cc, index.lookup(path))
                        assert data == files[path]
                    chunk, tier = yield from cache.read_chunk(cc, cid)
                    assert tier == "remote_hits"

        tb.run(reads())
        assert cache.hedge_stats.reads > 0
        assert cache.hedge_stats.hedges_fired == 0
        assert cache.stats.degraded_reads == 0
        # Both populations are calibrated, each on its own samples.
        master = cache.masters[owner].client.name
        assert cache.peer_latency.hedge_delay((master, "get_chunk")) > \
            2 * cache.peer_latency.hedge_delay((master, "get_file"))


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
