"""Tests for the task-grained distributed cache (§4.2, Fig 7)."""

import pytest

from repro.core.dist_cache import CacheClient, TaskCache
from repro.errors import CachePeerDownError, DieselError

from tests.core.conftest import build_deployment, small_files, write_dataset


def setup_cache(n_nodes=3, clients_per_node=2, n_files=24, policy="oneshot",
                chunk_size=8 * 1024):
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
        dep.env, dep.fabric, dep.server, "ds", cache_clients, policy=policy
    )
    return dep, cache, cache_clients, files, writer.index


class TestRegistration:
    def test_master_election_lowest_rank_per_node(self):
        dep, cache, clients, *_ = setup_cache(n_nodes=3, clients_per_node=2)
        dep.run(cache.register())
        assert len(cache.masters) == 3
        for node_name, master in cache.masters.items():
            same_node = [c for c in clients if c.node.name == node_name]
            assert master.client.rank == min(c.rank for c in same_node)

    def test_connection_count_is_p_times_n_minus_1(self):
        """The paper's headline mesh reduction (§4.2)."""
        dep, cache, clients, *_ = setup_cache(n_nodes=4, clients_per_node=4)
        dep.run(cache.register())
        p, n = 4, 16
        assert cache.connection_count() == p * (n - 1)
        assert cache.connection_count() == cache.expected_connection_count()
        # Strictly fewer than the naive full mesh n×(n−1).
        assert cache.connection_count() < n * (n - 1)

    def test_every_chunk_has_exactly_one_owner(self):
        dep, cache, *_ = setup_cache()
        summary = dep.run(cache.register())
        owners = [cache.owner_of(cid) for cid in summary["chunk_ids"]]
        assert len(owners) == len(summary["chunk_ids"])
        per_master = {}
        for o in owners:
            per_master[o.client.name] = per_master.get(o.client.name, 0) + 1
        # Round-robin balance: counts differ by at most one.
        assert max(per_master.values()) - min(per_master.values()) <= 1

    def test_double_register_rejected(self):
        dep, cache, *_ = setup_cache()
        dep.run(cache.register())
        with pytest.raises(DieselError):
            dep.run(cache.register())

    def test_validation(self):
        dep = build_deployment()
        with pytest.raises(DieselError):
            TaskCache(dep.env, dep.fabric, dep.server, "ds", [])
        c = CacheClient("x", dep.client_nodes[0], 0)
        with pytest.raises(DieselError):
            TaskCache(dep.env, dep.fabric, dep.server, "ds", [c, c])
        with pytest.raises(DieselError):
            TaskCache(dep.env, dep.fabric, dep.server, "ds", [c], policy="bogus")


class TestOneshotPolicy:
    def test_prefetch_warms_whole_dataset(self):
        dep, cache, clients, files, index = setup_cache(policy="oneshot")
        dep.run(cache.register())
        loaded = dep.run(cache.wait_warm())
        assert loaded == len(index.chunk_ids())
        assert cache.cached_chunks() == len(index.chunk_ids())

    def test_warm_reads_all_hit(self):
        dep, cache, clients, files, index = setup_cache(policy="oneshot")
        dep.run(cache.register())
        dep.run(cache.wait_warm())

        def proc():
            for path, expected in files.items():
                rec = index.lookup(path)
                data = yield from cache.read_file(clients[3], rec)
                assert data == expected

        dep.run(proc())
        assert cache.hit_ratio() == 1.0

    def test_cached_bytes_accounts_chunks(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        cached = sum(m.stats.bytes_cached for m in cache.masters.values())
        assert cached >= sum(len(d) for d in files.values())


class TestOnDemandPolicy:
    def test_cold_read_falls_through_to_server_then_warms(self):
        dep, cache, clients, files, index = setup_cache(policy="on-demand")
        dep.run(cache.register())
        assert cache.cached_chunks() == 0
        path = next(iter(files))
        rec = index.lookup(path)

        def first_read():
            data = yield from cache.read_file(clients[0], rec)
            return data

        assert dep.run(first_read()) == files[path]
        # The background pull has warmed the owning chunk by now.
        dep.env.run()  # drain pending background pulls
        owner = cache.owner_of(rec.chunk_id.encode())
        assert owner.has_chunk(rec.chunk_id.encode())

        def second_read():
            data = yield from cache.read_file(clients[0], rec)
            return data

        hits_before = owner.stats.hits
        assert dep.run(second_read()) == files[path]
        assert owner.stats.hits == hits_before + 1


class TestFailureContainment:
    def test_dead_master_falls_back_to_server(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        victim_node = dep.client_nodes[0]
        victim_node.kill()
        surviving_client = next(
            c for c in clients if c.node.name != victim_node.name
        )

        def proc():
            ok = 0
            for path in files:
                data = yield from cache.read_file(surviving_client, index.lookup(path))
                ok += data == files[path]
            return ok

        assert dep.run(proc()) == len(files)

    def test_other_tasks_unaffected(self):
        """Containment: killing task A's node leaves task B's cache intact."""
        dep = build_deployment(n_client_nodes=4)
        files_a = small_files(12, prefix="/a")
        files_b = small_files(12, prefix="/b")
        wa = write_dataset(dep, "task-a", files_a, chunk_size=8 * 1024)
        wb = write_dataset(dep, "task-b", files_b, chunk_size=8 * 1024)

        def load(w):
            blob = yield from w.save_meta()
            yield from w.load_meta(blob)

        dep.run(load(wa))
        dep.run(load(wb))
        # Task A on nodes 0-1; task B on nodes 2-3: disjoint.
        ca = [CacheClient(f"a{r}", dep.client_nodes[r % 2], r) for r in range(4)]
        cb = [CacheClient(f"b{r}", dep.client_nodes[2 + r % 2], r) for r in range(4)]
        cache_a = TaskCache(dep.env, dep.fabric, dep.server, "task-a", ca)
        cache_b = TaskCache(dep.env, dep.fabric, dep.server, "task-b", cb)
        dep.run(cache_a.register())
        dep.run(cache_b.register())
        dep.run(cache_a.wait_warm())
        dep.run(cache_b.wait_warm())

        dep.client_nodes[0].kill()  # hits task A only
        assert cache_a.dead_masters()
        assert not cache_b.dead_masters()

        def read_b():
            for path in files_b:
                data = yield from cache_b.read_file(cb[0], wb.index.lookup(path))
                assert data == files_b[path]

        dep.run(read_b())
        assert cache_b.hit_ratio() == 1.0


class TestRecovery:
    def test_recover_repartitions_and_reloads(self):
        dep, cache, clients, files, index = setup_cache(n_nodes=3)
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        total_chunks = len(index.chunk_ids())
        dep.client_nodes[0].kill()
        dead = cache.dead_masters()
        assert len(dead) == 1
        lost = len(dead[0].assigned)

        def proc():
            n = yield from cache.recover()
            return n

        reloaded = dep.run(proc())
        assert reloaded == lost
        assert len(cache.masters) == 2
        assert cache.cached_chunks() == total_chunks

        surviving_client = next(c for c in clients if c.node.alive)

        def read_all():
            for path in files:
                data = yield from cache.read_file(
                    surviving_client, index.lookup(path)
                )
                assert data == files[path]

        dep.run(read_all())

    def test_hit_ratio_keeps_the_dead_masters_share(self):
        """Cumulative since registration: recovery drops the dead master,
        not the hits and misses it served."""
        dep, cache, clients, files, index = setup_cache(policy="on-demand")
        dep.run(cache.register())
        reader = clients[2]  # on node 1

        def read(paths):
            for path in paths:
                yield from cache.read_file(reader, index.lookup(path))

        dep.run(read(files))  # cold: every read misses its owner
        dep.env.run()  # the background pulls land
        victim = cache.masters[dep.client_nodes[0].name]
        dep.run(read(
            p for p in files
            if cache.owner_of(index.lookup(p).chunk_id.encode()) is victim
        ))  # only the victim's chunks are read warm
        ratio = cache.hit_ratio()
        assert ratio > 0
        dep.client_nodes[0].kill()
        dep.run(cache.recover())
        assert cache.hit_ratio() == ratio

    def test_recover_noop_when_healthy(self):
        dep, cache, *_ = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())

        def proc():
            n = yield from cache.recover()
            return n

        assert dep.run(proc()) == 0

    def test_recover_with_no_survivors_raises(self):
        dep, cache, *_ = setup_cache(n_nodes=2)
        dep.run(cache.register())
        for node in dep.client_nodes:
            node.kill()

        def proc():
            yield from cache.recover()

        with pytest.raises(CachePeerDownError):
            dep.run(proc())


class TestUnregisteredUse:
    def test_read_before_register_rejected(self):
        dep, cache, clients, files, index = setup_cache()
        path = next(iter(files))

        def proc():
            yield from cache.read_file(clients[0], index.lookup(path))

        with pytest.raises(DieselError):
            dep.run(proc())


class TestMemoryAccounting:
    """§4.2: the cache aggregates the nodes' *free* memory — masters must
    respect their node's budget and release it when dropping chunks."""

    def _tight_setup(self, memory_bytes):
        from repro.cluster import Node

        dep = build_deployment(n_client_nodes=1)
        # Replace the client node with a memory-tight one.
        tight = dep.fabric.add_node(
            Node(dep.env, "tight", memory_bytes=memory_bytes)
        )
        files = small_files(32, size=2048)
        writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)

        def load():
            blob = yield from writer.save_meta()
            yield from writer.load_meta(blob)

        dep.run(load())
        client = CacheClient("c0", tight, 0)
        cache = TaskCache(dep.env, dep.fabric, dep.server, "ds", [client])
        dep.run(cache.register())
        return dep, cache, client, files, writer.index

    def test_memory_charged_while_cached(self):
        dep, cache, client, files, index = self._tight_setup(
            memory_bytes=10 * 2**20
        )
        before = client.node.memory.level
        dep.run(cache.wait_warm())
        after = client.node.memory.level
        cached = sum(m.stats.bytes_cached for m in cache.masters.values())
        assert before - after == cached > 0

    def test_insufficient_memory_skips_but_reads_still_work(self):
        # Budget for roughly two chunks out of ~9.
        dep, cache, client, files, index = self._tight_setup(
            memory_bytes=18 * 1024
        )
        loaded = dep.run(cache.wait_warm())
        master = next(iter(cache.masters.values()))
        assert master.stats.skipped_no_memory > 0
        assert loaded < len(index.chunk_ids())
        assert client.node.memory.level >= 0

        def read_all():
            ok = 0
            for path, expected in files.items():
                data = yield from cache.read_file(client, index.lookup(path))
                ok += data == expected
            return ok

        # Uncached chunks fall through to the server (Fig 4): all correct.
        assert dep.run(read_all()) == len(files)

    def test_deregister_of_an_own_tier_returns_memory(self):
        dep, cache, client, files, index = self._tight_setup(
            memory_bytes=10 * 2**20
        )
        dep.run(cache.wait_warm())
        assert client.node.memory.level < 10 * 2**20
        cache.deregister()
        dep.env.run()  # deliver the memory put
        assert client.node.memory.level == 10 * 2**20
