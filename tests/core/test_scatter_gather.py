"""Tests for scatter-gather parallel I/O: pipelined ingest, fan-out
reads, concurrent warmup/recovery, and the stats plumbing behind them."""

import inspect
import random

import pytest

from repro.cluster.node import Node
from repro.core.chunk_builder import ChunkBuilder, ChunkPipeline
from repro.core.client import ClientStats
from repro.core.config import DieselConfig
from repro.core.dist_cache import CacheClient, CacheMasterStats, TaskCache
from repro.core.server import ServerStats
from repro.core.shared_cache import SharedCacheRegistry
from repro.errors import SimulationError
from repro.util.ids import ChunkIdGenerator

from tests.core.conftest import build_deployment, small_files, write_dataset
from tests.core.test_residency_invariants import check_invariants

CHUNK = 16 * 1024


def build_chunks(files, chunk_size=CHUNK):
    gen = ChunkIdGenerator(machine=b"\x09" * 6, pid=9)
    builder = ChunkBuilder(gen, chunk_size)
    return list(builder.build_stream(files.items()))


class TestIngestPipeline:
    def test_put_many_round_trips(self):
        dep = build_deployment()
        files = small_files(24, size=2048)
        client = dep.new_client(
            "ds", config=DieselConfig(chunk_size=CHUNK, ingest_pipeline_depth=4)
        )
        sent = dep.run(client.put_many(list(files.items())))
        assert sent == client.stats.chunks_sent > 0

        def read(p):
            data = yield from client.get(p)
            return data

        for path, payload in files.items():
            assert dep.run(read(path)) == payload

    def test_pipelined_ship_overlaps_and_loses_nothing(self):
        """Depth-4 shipping of pre-built chunks beats serial, with the
        in-flight high-water mark as proof of overlap and the server
        ingest count as proof nothing was dropped or duplicated."""
        files = dict(small_files(32, size=2048))
        chunks = build_chunks(files)
        assert len(chunks) >= 4
        times = {}
        for depth in (1, 4):
            dep = build_deployment()
            client = dep.new_client(
                "ds", config=DieselConfig(chunk_size=CHUNK)
            )

            def ship():
                if depth == 1:
                    for chunk in chunks:
                        yield from client._send_chunk(chunk)
                    return
                pipe = ChunkPipeline(
                    dep.env, client._send_chunk, depth,
                    watermark=client._note_ingest_inflight,
                )
                for chunk in chunks:
                    yield from pipe.submit(chunk)
                yield from pipe.drain()

            t0 = dep.env.now
            dep.run(ship())
            times[depth] = dep.env.now - t0
            assert dep.server.stats.ingests == len(chunks)
            assert client.stats.chunks_sent == len(chunks)
            if depth > 1:
                assert client.stats.ingest_inflight_hwm > 1
        assert times[4] < times[1]

    def test_default_depth_matches_plain_put_loop(self):
        """ingest_pipeline_depth=1 must be byte- and time-identical to
        the pre-pipeline serial path."""
        files = small_files(16, size=2048)
        elapsed = {}
        for mode in ("loop", "put_many"):
            dep = build_deployment()
            client = dep.new_client("ds", config=DieselConfig(chunk_size=CHUNK))

            def loop():
                for path, data in files.items():
                    yield from client.put(path, data)
                yield from client.flush()

            t0 = dep.env.now
            if mode == "loop":
                dep.run(loop())
            else:
                dep.run(client.put_many(list(files.items())))
            elapsed[mode] = dep.env.now - t0
            assert client.stats.ingest_inflight_hwm == 0
        assert elapsed["loop"] == elapsed["put_many"]

    def test_pipeline_counts_and_cancel(self):
        dep = build_deployment()
        client = dep.new_client("ds", config=DieselConfig(chunk_size=CHUNK))
        chunks = build_chunks(dict(small_files(16, size=2048)))
        pipe = ChunkPipeline(dep.env, client._send_chunk, 2)

        def run():
            for chunk in chunks:
                yield from pipe.submit(chunk)
            yield from pipe.drain()

        dep.run(run())
        assert pipe.submitted == pipe.shipped == len(chunks)
        assert pipe.in_flight == 0
        assert pipe.cancel() == 0  # nothing left to cancel after drain


class TestReadFanout:
    def setup_reader(self, fanout, n_files=48, n_servers=2):
        dep = build_deployment(n_servers=n_servers)
        files = small_files(n_files, size=2048)
        writer = write_dataset(dep, "ds", files, chunk_size=CHUNK)
        n_chunks = len(dep.server.dataset_info("ds").chunk_ids)
        reader = dep.new_client(
            "ds",
            config=DieselConfig(
                chunk_size=CHUNK,
                shuffle_group_size=n_chunks,
                read_fanout=fanout,
            ),
        )

        def attach():
            blob = yield from writer.save_meta()
            yield from reader.load_meta(blob)

        dep.run(attach())
        reader.enable_shuffle()
        return dep, reader, files

    def batch_read(self, dep, reader, paths):
        def go():
            out = yield from reader.get_many(paths)
            return out

        t0 = dep.env.now
        out = dep.run(go())
        return out, dep.env.now - t0

    def test_fanout_same_bytes_faster_no_duplicates(self):
        results = {}
        for fanout in (1, 4):
            dep, reader, files = self.setup_reader(fanout)
            paths = list(files)
            out, elapsed = self.batch_read(dep, reader, paths)
            assert out == files
            touched = {reader.index.lookup(p).chunk_id for p in paths}
            chunk_reads = sum(s.stats.chunk_reads for s in dep.servers)
            # Single-flight held: one transfer per distinct chunk.
            assert chunk_reads == len(touched)
            if fanout > 1:
                assert reader.stats.fetch_inflight_hwm > 1
            else:
                assert reader.stats.fetch_inflight_hwm <= 1
            results[fanout] = elapsed
        assert results[4] < results[1]

    def test_resident_chunks_short_circuit(self):
        dep, reader, files = self.setup_reader(4)
        paths = list(files)
        self.batch_read(dep, reader, paths)
        before = sum(s.stats.chunk_reads for s in dep.servers)
        out, _ = self.batch_read(dep, reader, paths)
        assert out == files
        # Second pass is served from the resident chunk cache.
        assert sum(s.stats.chunk_reads for s in dep.servers) == before

    @pytest.mark.parametrize("fanout", [1, 4])
    def test_order_each_width_serves_a_resident_behind_a_miss(self, fanout):
        """Width 1 fetches a miss where the walk meets it; wider defers it
        past the residents.  The window's recency order shows which."""
        dep, reader, files = self.setup_reader(fanout)
        chunk_of = {p: reader.index.lookup(p).chunk_id.encode() for p in files}
        by_chunk = {}
        for path, cid in chunk_of.items():
            by_chunk.setdefault(cid, path)
        (miss, a), (resident, b) = list(by_chunk.items())[:2]
        self.batch_read(dep, reader, [b])
        out, _ = self.batch_read(dep, reader, [a, b])
        # Payloads come back in batch order at every width.
        assert list(out.items()) == [(a, files[a]), (b, files[b])]
        order = list(reader._window.chunks.entries)
        assert order == ([miss, resident] if fanout == 1 else [resident, miss])

    def test_preferred_server_is_deterministic_and_spreads(self):
        dep = build_deployment(n_servers=3)
        client = dep.new_client("ds")
        cids = [f"cid{i:04d}" for i in range(64)]
        first = [client.preferred_server(c) for c in cids]
        second = [client.preferred_server(c) for c in cids]
        assert first == second
        assert all(s in dep.servers for s in first)
        assert len({s.name for s in first}) > 1

    def test_single_flight_under_concurrent_readers(self):
        """Two concurrent fan-out batches over the same chunks trigger
        exactly one transfer per chunk."""
        dep, reader, files = self.setup_reader(4)
        paths = list(files)

        def batch():
            yield from reader.get_many(paths)

        a = dep.env.process(batch())
        b = dep.env.process(batch())
        dep.env.run(until=dep.env.all_of([a, b]))
        touched = {reader.index.lookup(p).chunk_id for p in paths}
        assert sum(s.stats.chunk_reads for s in dep.servers) == len(touched)


def setup_cache(n_nodes=3, n_files=96, ram_chunks=None, tasks=1):
    """Oneshot task caches over ``n_nodes`` worker nodes, not yet
    registered.  ``ram_chunks`` caps each node's memory (in 8 KiB
    chunks); ``tasks`` > 1 share one :class:`SharedCacheRegistry`."""
    dep = build_deployment(n_client_nodes=1)  # the writer's node
    files = small_files(n_files, size=2048)
    write_dataset(dep, "ds", files, chunk_size=8 * 1024)
    kw = {} if ram_chunks is None else {
        "memory_bytes": ram_chunks * (8 * 1024 + 1024)}
    nodes = [dep.fabric.add_node(Node(dep.env, f"w{i}", **kw))
             for i in range(n_nodes)]
    shared = SharedCacheRegistry(dep.env) if tasks > 1 else None
    caches = [
        TaskCache(
            dep.server, "ds",
            [CacheClient(f"t{t}c{i}", node, i) for i, node in enumerate(nodes)],
            shared=shared,
        )
        for t in range(tasks)
    ]
    return dep, nodes, caches


def warm(dep, caches, fanout=None):
    """Register every cache at once (the warm-ups race), wait for all."""
    for c in caches:
        dep.env.process(c.register(fanout=fanout))
    dep.env.run()
    return sum(dep.run(c.wait_warm()) for c in caches)


def assert_nothing_left_held(dep, nodes, caches):
    """No NIC channel, RPC worker slot or single-flight entry outlives
    the pulls that took it — whatever died underneath them."""
    dep.env.run()
    for node in dep.fabric.nodes:
        assert node.ingress._station.in_flight == 0, node.name
        assert node.egress._station.in_flight == 0, node.name
    assert dep.server.endpoint._pool.in_flight == 0
    check_invariants(nodes, caches)


class TestWarmupRecoveryFanout:
    def test_width_is_derived_not_configured(self):
        params = list(inspect.signature(TaskCache.__init__).parameters)[1:]
        assert len(params) == 5
        assert not {"warmup_fanout", "admission_batch"} & set(params)
        dep, nodes, (cache,) = setup_cache()
        warm(dep, [cache])
        for m in cache.masters.values():
            assert len(m.assigned) > m.node.ingress.channels
            assert m.stats.pull_inflight_hwm == m.node.ingress.channels > 1
        with pytest.raises(SimulationError):
            dep.run(cache.masters["w0"].pull_all(["x"], "t", width=0))

    def test_concurrent_warmup_same_chunks_faster(self):
        warmed, times = {}, {}
        for fanout in (1, 4, None):
            dep, nodes, (cache,) = setup_cache()
            dep.run(cache.register(fanout=fanout))
            t0 = dep.env.now
            warmed[fanout] = dep.run(cache.wait_warm())
            times[fanout] = dep.env.now - t0
            hwm = max(m.stats.pull_inflight_hwm for m in cache.masters.values())
            assert hwm == (fanout or nodes[0].ingress.channels)
            assert warmed[fanout] == cache.cached_chunks() > 0
        assert warmed[4] == warmed[1] == warmed[None]
        assert times[None] <= times[4] < times[1]

    def test_concurrent_recovery_restores_coverage(self):
        times = {}
        for fanout in (1, 4, None):
            # Several orphaned chunks per survivor: survivors always
            # re-stream concurrently, the width bounds each one's pulls.
            dep, nodes, (cache,) = setup_cache()
            summary = dep.run(cache.register())
            dep.run(cache.wait_warm())
            nodes[0].kill()
            t0 = dep.env.now
            assert dep.run(cache.recover(fanout=fanout)) > 0
            times[fanout] = dep.env.now - t0
            # Every chunk is owned by a live master again.
            for cid in summary["chunk_ids"]:
                owner = cache.owner_of(cid)
                assert owner.up
                assert owner.has_chunk(cid)
        assert times[None] <= times[4] < times[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_pipelined_fill_matches_width_one(self, seed):
        """The same chunks end up held on the same masters, each read
        from the backend once, whatever the width — with two tasks
        racing through one registry, and under a RAM budget that
        refuses part of every partition."""
        rng = random.Random(seed)
        n_nodes, n_files = rng.choice([2, 3, 4]), rng.choice([48, 72, 96])
        tasks = 1 + seed % 2
        for ram_chunks in (None, n_files // 4 // n_nodes // 2):
            outcome = {}
            for fanout in (1, None):
                dep, nodes, caches = setup_cache(
                    n_nodes, n_files, ram_chunks, tasks)
                reads = dep.server.stats.chunk_reads
                loaded = warm(dep, caches, fanout)
                reads = dep.server.stats.chunk_reads - reads
                assert_nothing_left_held(dep, nodes, caches)
                masters = [m for c in caches for m in c.masters.values()]
                assert loaded == sum(len(m._held) for m in masters)
                outcome[fanout] = (
                    [(m.client.name, sorted(m._held)) for m in masters],
                    [m.stats.skipped_no_memory for m in masters],
                    reads,
                )
            assert outcome[1] == outcome[None]
            held, skipped, reads = outcome[None]
            n_chunks = len(caches[0]._owner_of)
            if ram_chunks is None:
                assert sum(skipped) == 0 and reads == n_chunks
                assert all(len(h) for _, h in held)
            else:
                assert sum(skipped) > 0 and reads >= n_chunks

    def test_node_killed_mid_warmup_leaks_nothing_and_recovers(self):
        dep, nodes, (cache,) = setup_cache()
        summary = dep.run(cache.register())
        victim = cache.masters["w1"]
        while victim.cached_chunk_count < 2:
            dep.env.step()
        assert victim.endpoint.up and dep.env.peek() < float("inf")
        nodes[1].kill()
        dep.run(cache.wait_warm())  # the dead master's fill just ends short
        assert 2 <= victim.cached_chunk_count < len(victim.assigned)
        assert_nothing_left_held(dep, nodes, [cache])
        share = len(victim.assigned)
        assert dep.run(cache.recover()) == share
        assert_nothing_left_held(dep, nodes, [cache])
        assert cache.cached_chunks() == len(summary["chunk_ids"])
        assert all(cache.owner_of(c).up for c in summary["chunk_ids"])

    def test_survivor_killed_mid_recovery_leaks_nothing_and_recovers(self):
        dep, nodes, (cache,) = setup_cache(n_files=192)
        summary = dep.run(cache.register())
        dep.run(cache.wait_warm())
        succ = cache.masters["w1"]
        before = succ.cached_chunk_count
        nodes[0].kill()
        recovery = dep.env.process(cache.recover())
        while succ.cached_chunk_count < before + 2:
            dep.env.step()
        assert recovery.is_alive
        nodes[1].kill()
        dep.env.run()  # the dead survivor's re-stream just ends short
        assert not recovery.is_alive
        assert_nothing_left_held(dep, nodes, [cache])
        # Ownership moved even for the chunks the dead survivor never
        # got: a second recover re-homes its whole share onto the last.
        assert sorted(cache.masters) == ["w1", "w2"]
        assert dep.run(cache.recover()) > 0
        assert_nothing_left_held(dep, nodes, [cache])
        assert sorted(cache.masters) == ["w2"]
        assert cache.cached_chunks() == len(summary["chunk_ids"])


class TestStatsToDict:
    def test_client_stats_to_dict_covers_every_counter(self):
        stats = ClientStats()
        stats.puts = 3
        stats.fetch_inflight_hwm = 2
        d = stats.to_dict()
        assert set(d) == set(ClientStats.__slots__)
        assert d["puts"] == 3 and d["fetch_inflight_hwm"] == 2

    def test_server_stats_to_dict(self):
        stats = ServerStats()
        stats.ingests = 5
        d = stats.to_dict()
        assert set(d) == set(ServerStats.__slots__)
        assert d["ingests"] == 5

    def test_cache_master_stats_to_dict(self):
        stats = CacheMasterStats()
        stats.pull_inflight_hwm = 4
        d = stats.to_dict()
        assert set(d) == set(CacheMasterStats.__slots__)
        assert d["pull_inflight_hwm"] == 4

    def test_stats_row_selects_and_prefixes(self):
        from repro.obs.counters import stats_row

        stats = ClientStats()
        stats.puts = 7
        row = stats_row(stats, ["puts"], prefix="cl_")
        assert row == {"cl_puts": 7}
        full = stats_row(stats)
        assert set(full) == {f"{k}" for k in ClientStats.__slots__}
