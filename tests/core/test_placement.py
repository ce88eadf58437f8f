"""Tests for chunk-placement policies, pull coalescing, hot replication."""

import pytest

from repro.cluster import Node
from repro.core.dist_cache import LOCALITY_SPILL_RATIO, CacheClient, TaskCache
from repro.errors import DieselError

from tests.core.conftest import build_deployment, small_files, write_dataset


def setup_cache(n_nodes=3, clients_per_node=1, n_files=24, policy="oneshot",
                placement="locality", chunk_size=8 * 1024,
                hot_chunk_threshold=0):
    dep = build_deployment(n_client_nodes=n_nodes)
    files = small_files(n_files, size=2048)
    writer = write_dataset(dep, "ds", files, chunk_size=chunk_size)

    def load():
        blob = yield from writer.save_meta()
        yield from writer.load_meta(blob)

    dep.run(load())
    cache_clients = []
    rank = 0
    for node in dep.client_nodes:
        for _ in range(clients_per_node):
            cache_clients.append(CacheClient(f"cc{rank}", node, rank))
            rank += 1
    cache = TaskCache(
        dep.env, dep.fabric, dep.server, "ds", cache_clients,
        policy=policy, placement=placement,
        hot_chunk_threshold=hot_chunk_threshold,
    )
    return dep, cache, cache_clients, files, writer.index


def paths_owned_by(cache, index, node_name):
    """All file paths whose chunk is owned by ``node_name``'s master."""
    master = cache.masters[node_name]
    owned = set(master.assigned)
    return [
        p for p in index.all_paths()
        if index.lookup(p).chunk_id.encode() in owned
    ]


class TestLocalityPlacement:
    def test_contiguous_slices_per_master(self):
        """Each master owns one contiguous run of the chunk list."""
        dep, cache, *_ = setup_cache()
        summary = dep.run(cache.register())
        order = {cid: i for i, cid in enumerate(summary["chunk_ids"])}
        for master in cache.masters.values():
            idx = sorted(order[c] for c in master.assigned)
            assert idx == list(range(idx[0], idx[0] + len(idx)))

    def test_every_chunk_has_one_owner(self):
        dep, cache, *_ = setup_cache()
        summary = dep.run(cache.register())
        for cid in summary["chunk_ids"]:
            assert cache.owner_of(cid) is cache._owner_of[cid]
            assert cache.chunk_owner_node(cid) == cache.owner_of(cid).node.name

    def test_chunk_owner_node_accepts_chunk_ids(self):
        dep, cache, _, _, index = setup_cache()
        dep.run(cache.register())
        for cid in index.files_by_chunk():
            # ChunkId object and encoded string resolve identically.
            assert cache.chunk_owner_node(cid) == cache.chunk_owner_node(
                cid.encode()
            )
        assert cache.chunk_owner_node("nonexistent") is None

    def test_local_read_bypasses_the_network_hop(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        path = paths_owned_by(cache, index, reader.node.name)[0]

        def proc():
            data = yield from cache.read_file(reader, index.lookup(path))
            return data

        assert dep.run(proc()) == files[path]
        assert cache.stats.local_hits == 1
        assert cache.stats.remote_hits == 0

    def test_remote_read_counts_as_remote_hit(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        other = next(n for n in cache.masters if n != reader.node.name)
        path = paths_owned_by(cache, index, other)[0]

        def proc():
            data = yield from cache.read_file(reader, index.lookup(path))
            return data

        assert dep.run(proc()) == files[path]
        assert cache.stats.local_hits == 0
        assert cache.stats.remote_hits == 1

    def test_local_read_is_faster_than_remote(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        local_path = paths_owned_by(cache, index, reader.node.name)[0]
        other = next(n for n in cache.masters if n != reader.node.name)
        remote_path = paths_owned_by(cache, index, other)[0]

        def timed(path):
            t0 = dep.env.now

            def proc():
                yield from cache.read_file(reader, index.lookup(path))

            dep.run(proc())
            return dep.env.now - t0

        assert timed(local_path) < timed(remote_path)

    def test_validation(self):
        dep = build_deployment()
        c = CacheClient("x", dep.client_nodes[0], 0)
        with pytest.raises(DieselError):
            TaskCache(dep.env, dep.fabric, dep.server, "ds", [c],
                      placement="bogus")
        with pytest.raises(DieselError):
            TaskCache(dep.env, dep.fabric, dep.server, "ds", [c],
                      hot_chunk_threshold=-1)


class TestLocalitySpill:
    def _tight_setup(self, memory_bytes):
        """Two client nodes, the first memory-tight; locality placement."""
        dep = build_deployment(n_client_nodes=1)
        tight = dep.fabric.add_node(
            Node(dep.env, "aa-tight", memory_bytes=memory_bytes)
        )
        files = small_files(32, size=2048)
        writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)

        def load():
            blob = yield from writer.save_meta()
            yield from writer.load_meta(blob)

        dep.run(load())
        clients = [
            CacheClient("c0", tight, 0),
            CacheClient("c1", dep.client_nodes[0], 1),
        ]
        cache = TaskCache(
            dep.env, dep.fabric, dep.server, "ds", clients,
            placement="locality",
        )
        summary = dep.run(cache.register())
        return dep, cache, summary

    def test_spill_respects_memory_budget(self):
        dep, cache, summary = self._tight_setup(memory_bytes=18 * 1024)
        tight_master = cache.masters["aa-tight"]
        budget = int(18 * 1024 * LOCALITY_SPILL_RATIO)
        sizes = summary["chunk_sizes"]
        assert sum(sizes[c] for c in tight_master.assigned) <= budget
        # The overflow landed on the roomy node; nothing was dropped.
        owned = {c for m in cache.masters.values() for c in m.assigned}
        assert owned == set(summary["chunk_ids"])

    def test_spill_is_deterministic(self):
        """Two identical builds spill the same chunk *positions* the same way.

        Chunk IDs are generation-unique, so compare by position in the
        registration chunk list rather than by literal ID.
        """

        def shape(setup):
            _, cache, summary = setup
            order = {cid: i for i, cid in enumerate(summary["chunk_ids"])}
            return {
                node: sorted(order[c] for c in m.assigned)
                for node, m in cache.masters.items()
            }

        a = shape(self._tight_setup(memory_bytes=18 * 1024))
        b = shape(self._tight_setup(memory_bytes=18 * 1024))
        assert a == b


class TestPullCoalescing:
    def test_concurrent_pulls_fetch_backend_once(self):
        dep, cache, clients, files, index = setup_cache(
            n_nodes=1, policy="on-demand"
        )
        summary = dep.run(cache.register())
        master = next(iter(cache.masters.values()))
        cid = summary["chunk_ids"][0]
        before = dep.server.stats.chunk_reads
        n = 5
        procs = [
            dep.env.process(master.pull([cid]), name=f"pull{i}")
            for i in range(n)
        ]

        def wait_all():
            for p in procs:
                held, from_peer = yield p
                assert (held, from_peer) == (1, 0)

        dep.run(wait_all())
        assert dep.server.stats.chunk_reads - before == 1
        assert master.stats.coalesced_pulls == n - 1
        assert cache.stats.coalesced_pulls == n - 1
        # The chunk landed once, however many pulls were granted a ref.
        assert master.stats.chunks_loaded == 1
        assert master.stats.bytes_cached == master.nbytes_of(cid)

    def test_sequential_pulls_do_not_coalesce(self):
        dep, cache, clients, files, index = setup_cache(
            n_nodes=1, policy="on-demand"
        )
        summary = dep.run(cache.register())
        master = next(iter(cache.masters.values()))

        def proc():
            for cid in summary["chunk_ids"]:
                yield from master.pull([cid])
                yield from master.pull([cid])  # resident: no refetch

        dep.run(proc())
        assert master.stats.coalesced_pulls == 0


class TestHotReplication:
    def _skewed_read(self, threshold, reads):
        dep, cache, clients, files, index = setup_cache(
            n_nodes=2, hot_chunk_threshold=threshold
        )
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        other = next(n for n in cache.masters if n != reader.node.name)
        path = paths_owned_by(cache, index, other)[0]

        def proc():
            for _ in range(reads):
                yield from cache.read_file(reader, index.lookup(path))

        dep.run(proc())
        dep.env.run()  # drain the background replication pull
        return dep, cache, clients, index, reader, path

    def test_hot_chunk_replicates_to_reading_node(self):
        dep, cache, clients, index, reader, path = self._skewed_read(
            threshold=3, reads=3
        )
        assert cache.stats.replicated_chunks == 1
        cid = index.lookup(path).chunk_id.encode()
        assert cache.masters[reader.node.name].has_chunk(cid)
        # Ownership did not move: the replica serves, the owner owns.
        assert cache.chunk_owner_node(cid) != reader.node.name

    def test_post_replication_reads_are_local(self):
        dep, cache, clients, index, reader, path = self._skewed_read(
            threshold=3, reads=3
        )
        before = cache.stats.local_hits

        def proc():
            yield from cache.read_file(reader, index.lookup(path))

        dep.run(proc())
        assert cache.stats.local_hits == before + 1

    def test_below_threshold_no_replication(self):
        dep, cache, *_ = self._skewed_read(threshold=3, reads=2)
        assert cache.stats.replicated_chunks == 0

    def test_disabled_by_default(self):
        dep, cache, *_ = self._skewed_read(threshold=0, reads=10)
        assert cache.stats.replicated_chunks == 0


class TestLocalityRecovery:
    def _kill_and_recover(self):
        dep, cache, clients, files, index = setup_cache(n_nodes=3)
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        victim_node = dep.client_nodes[0]
        victim_chunks = list(cache.masters[victim_node.name].assigned)
        survivor_slices = {
            n: list(m.assigned)
            for n, m in cache.masters.items()
            if n != victim_node.name
        }
        victim_node.kill()
        reloaded = dep.run(cache.recover(fanout=2))
        return (dep, cache, clients, files, index,
                victim_chunks, survivor_slices, reloaded)

    def test_survivor_partitions_are_untouched(self):
        (dep, cache, _, _, _, victim_chunks,
         survivor_slices, reloaded) = self._kill_and_recover()
        assert cache.placement == "locality"
        assert reloaded == len(victim_chunks)
        for node, old_slice in survivor_slices.items():
            assert cache.masters[node].assigned[: len(old_slice)] == old_slice

    def test_orphans_rehomed_and_readable(self):
        (dep, cache, clients, files, index,
         victim_chunks, _, _) = self._kill_and_recover()
        for cid in victim_chunks:
            owner = cache.owner_of(cid)
            assert owner.up and owner.has_chunk(cid)
        reader = next(c for c in clients if c.node.alive)

        def proc():
            ok = 0
            for path in files:
                data = yield from cache.read_file(reader, index.lookup(path))
                ok += data == files[path]
            return ok

        assert dep.run(proc()) == len(files)

    def test_orphan_prefers_survivor_with_replica(self):
        dep, cache, clients, files, index = setup_cache(
            n_nodes=3, hot_chunk_threshold=1
        )
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        victim = next(n for n in cache.masters if n != reader.node.name)
        path = paths_owned_by(cache, index, victim)[0]
        cid = index.lookup(path).chunk_id.encode()

        def proc():
            yield from cache.read_file(reader, index.lookup(path))

        dep.run(proc())
        dep.env.run()  # replica of cid now on the reader's node
        assert cache.masters[reader.node.name].has_chunk(cid)
        next(n for n in dep.client_nodes if n.name == victim).kill()
        dep.run(cache.recover(fanout=2))
        assert cache.chunk_owner_node(cid) == reader.node.name
