"""Tests for the node-level shared chunk tier (DESIGN §11).

Cross-task refcounting, warm admission, cross-task single-flight,
warm-pool eviction and deregistration semantics —
both at the :class:`SharedChunkCache` unit level (bare masters against
the real server) and through full :class:`TaskCache` integration.
"""

import pytest

from repro.core.dist_cache import CacheClient, CacheMaster, TaskCache
from repro.core.shared_cache import SharedCacheRegistry
from repro.cluster.node import Node
from repro.errors import DieselError

from tests.core.conftest import build_deployment, small_files, write_dataset
from tests.invariants import check_node_tier


def shared_rig(n_nodes=2, n_files=24, n_tasks=2, policy="oneshot",
               chunk_size=8 * 1024):
    """A deployment + registry + ``n_tasks`` TaskCaches over one dataset."""
    dep = build_deployment(n_client_nodes=n_nodes)
    files = small_files(n_files, size=2048)
    writer = write_dataset(dep, "ds", files, chunk_size=chunk_size)
    dep.load_meta(writer)
    registry = SharedCacheRegistry(dep.env)
    caches = []
    for t in range(n_tasks):
        clients = [
            CacheClient(f"t{t}cc{i}", node, i)
            for i, node in enumerate(dep.client_nodes)
        ]
        caches.append(TaskCache(
            dep.server, "ds", clients, policy=policy, shared=registry,
        ))
    return dep, registry, caches, files, writer.index


def fake_master(dep, tier, task):
    """A bare CacheMaster (no TaskCache around it) for unit-driving one
    node tier's admission as task ``task``."""
    return CacheMaster(CacheClient(f"m-{task}", tier.node, 0), dep.server,
                       "ds", tier, task)


def resident(tier, cid):
    """Whether ``cid`` of dataset ``ds`` is resident on either of the
    tier's residencies."""
    return tier.store.tier_of(f"ds/{cid}") is not None


def acquire(master, cid):
    """Pull one chunk through ``master``'s tier: the bytes now held, or
    ``None`` when the tier refused the admission."""
    held = yield from master.pull([cid])
    return master.nbytes_of(cid) if held else None


class TestCrossTaskWarmup:
    def test_second_task_admits_warm_with_zero_backend_fetches(self):
        dep, registry, (c0, c1), files, index = shared_rig()
        dep.run(c0.register())
        dep.run(c0.wait_warm())
        fetches_cold = dep.server.stats.chunk_reads
        dep.run(c1.register())
        dep.run(c1.wait_warm())
        assert dep.server.stats.chunk_reads == fetches_cold
        s = registry.stats
        n_chunks = len(index.chunk_ids())
        assert s.cold_admissions == n_chunks
        assert s.warm_admissions == n_chunks
        # Every chunk resident once, referenced by both tasks.
        assert s.chunks_resident == n_chunks
        assert s.refs == 2 * n_chunks

    def test_warm_register_is_much_faster_than_cold(self):
        # Enough data that the cold warmup's backend I/O dominates the
        # fixed register-RPC overhead both paths share.
        dep, registry, (c0, c1), files, index = shared_rig(n_files=96)
        t0 = dep.env.now
        dep.run(c0.register())
        dep.run(c0.wait_warm())
        cold_s = dep.env.now - t0
        t0 = dep.env.now
        dep.run(c1.register())
        dep.run(c1.wait_warm())
        warm_s = dep.env.now - t0
        assert warm_s < 0.25 * cold_s

    def test_both_tasks_read_correctly_through_one_resident_copy(self):
        dep, registry, caches, files, index = shared_rig()
        for cache in caches:
            dep.run(cache.register())
            dep.run(cache.wait_warm())

        def epoch(cache):
            cc = cache.clients[0]
            for path, expected in files.items():
                data = yield from cache.read_file(cc, index.lookup(path))
                assert data == expected

        for cache in caches:
            dep.run(epoch(cache))
        n_chunks = len(index.chunk_ids())
        assert registry.stats.chunks_resident == n_chunks


class TestSingleFlightAcrossTasks:
    def test_racing_registrations_coalesce_onto_one_fetch(self):
        dep, registry, caches, files, index = shared_rig(n_tasks=3)
        regs = [dep.env.process(c.register()) for c in caches]
        dep.env.run(until=dep.env.all_of(regs))
        warms = [dep.env.process(c.wait_warm()) for c in caches]
        dep.env.run(until=dep.env.all_of(warms))
        n_chunks = len(index.chunk_ids())
        # One backend fetch per (node, chunk) no matter how many tasks
        # raced the warmup.
        assert dep.server.stats.chunk_reads == n_chunks
        s = registry.stats
        assert s.cold_admissions == n_chunks
        # The two raced tasks each joined the in-flight fetch, then
        # ref-bumped on wake (a coalesced pull *and* a warm admission).
        assert s.warm_admissions == 2 * n_chunks
        assert s.coalesced_pulls > 0
        assert s.refs == 3 * n_chunks

    def test_two_fake_tasks_racing_one_chunk(self):
        dep, registry, caches, files, index = shared_rig(n_tasks=0)
        node = dep.client_nodes[0]
        tier = registry.for_node(node)
        cid = index.chunk_ids()[0].encode()
        m1 = fake_master(dep, tier, "taskA")
        m2 = fake_master(dep, tier, "taskB")
        got = {}

        def racer(name, master):
            held = yield from acquire(master, cid)
            got[name] = held

        p1 = dep.env.process(racer("a", m1))
        p2 = dep.env.process(racer("b", m2))
        dep.env.run(until=dep.env.all_of([p1, p2]))
        assert got["a"] is not None and got["b"] is not None
        assert tier.stats.chunks_resident == 1  # one copy, two refs
        assert dep.server.stats.chunk_reads == 1
        assert tier.refcount("ds", cid) == 2
        s = tier.stats
        assert s.cold_admissions == 1
        assert s.coalesced_pulls == 1
        assert s.warm_admissions == 1  # the waiter re-checked and ref-bumped
        assert m2.stats.coalesced_pulls + m1.stats.coalesced_pulls == 1


class TestDeregistration:
    def test_deregister_mid_epoch_leaves_other_task_unharmed(self):
        dep, registry, (c0, c1), files, index = shared_rig()
        for cache in (c0, c1):
            dep.run(cache.register())
            dep.run(cache.wait_warm())
        paths = list(files)
        outcomes = {"ok": 0}

        def epoch():
            cc = c0.clients[0]
            for i, path in enumerate(paths):
                if i == len(paths) // 2:
                    held = c1.deregister()  # the other task bails mid-epoch
                    assert held > 0
                data = yield from c0.read_file(cc, index.lookup(path))
                assert data == files[path]
                outcomes["ok"] += 1

        fetches = dep.server.stats.chunk_reads
        dep.run(epoch())
        assert outcomes["ok"] == len(paths)
        # No re-fetch: c0's refs kept every chunk resident.
        assert dep.server.stats.chunk_reads == fetches
        n_chunks = len(index.chunk_ids())
        s = registry.stats
        assert s.refs == n_chunks  # only c0's refs remain
        assert s.released_refs == n_chunks

    def test_last_task_deregister_leaves_warm_pool_for_later_task(self):
        dep, registry, (c0, c1), files, index = shared_rig(n_tasks=2)
        dep.run(c0.register())
        dep.run(c0.wait_warm())
        c0.deregister()
        n_chunks = len(index.chunk_ids())
        s = registry.stats
        # refcount-0 chunks stay resident (the warm pool)...
        assert s.refs == 0
        assert s.chunks_resident == n_chunks
        # ...and the next task re-warms from them: zero backend fetches.
        fetches = dep.server.stats.chunk_reads
        dep.run(c1.register())
        dep.run(c1.wait_warm())
        assert dep.server.stats.chunk_reads == fetches
        assert registry.stats.refs == n_chunks

    def test_deregister_requires_registration(self):
        dep, registry, (c0, *_), files, index = shared_rig(n_tasks=1)
        with pytest.raises(DieselError):
            c0.deregister()


class TestWarmPoolEviction:
    def _tiny_node_rig(self):
        """A node drained so cold admissions must evict to fit."""
        dep, registry, _, files, index = shared_rig(n_tasks=0)
        node = dep.fabric.add_node(Node(dep.env, "tiny"))
        tier = registry.for_node(node)
        cids = [c.encode() for c in index.chunk_ids()]
        return dep, registry, tier, node, cids

    def _drain(self, dep, node, leave=64):
        def sip():
            yield node.memory.get(node.memory.level - leave)

        dep.run(sip())

    def test_a_warm_chunk_is_evicted_for_a_new_admission(self):
        dep, registry, tier, node, cids = self._tiny_node_rig()
        first = fake_master(dep, tier, "t1")
        second = fake_master(dep, tier, "t2")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        assert dep.run(admit(first, cids[0])) is not None
        tier.release_task("t1")  # leave a warm pool
        assert tier.refcount("ds", cids[0]) == 0
        self._drain(dep, node)
        assert dep.run(admit(second, cids[1])) is not None
        assert tier.stats.evictions >= 1
        assert not resident(tier, cids[0])

    def test_referenced_chunks_are_never_evicted(self):
        dep, registry, tier, node, cids = self._tiny_node_rig()
        batch = fake_master(dep, tier, "bq")
        other = fake_master(dep, tier, "bq2")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        assert dep.run(admit(batch, cids[0])) is not None  # still referenced
        self._drain(dep, node)
        assert dep.run(admit(other, cids[1])) is None
        assert tier.stats.skipped_no_memory == 1
        assert tier.stats.evictions == 0
        assert resident(tier, cids[0])


class TestLruEvictionOrder:
    def test_eviction_takes_least_recently_used_not_insertion_order(self):
        """Regression: the eviction scan used to walk the entry table in
        insertion order, so a warm chunk that was just re-read could be
        evicted before one untouched since admission."""
        dep, registry, _, files, index = shared_rig(n_tasks=0)
        node = dep.fabric.add_node(Node(dep.env, "tiny"))
        tier = registry.for_node(node)
        cids = [c.encode() for c in index.chunk_ids()]
        warmer = fake_master(dep, tier, "warmer")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        # Insertion order: c0 then c1; both left refcount-0 (warm).
        assert dep.run(admit(warmer, cids[0])) is not None
        assert dep.run(admit(warmer, cids[1])) is not None
        tier.release_task("warmer")
        # Re-reading c0 must refresh its recency: LRU is now [c1, c0].
        toucher = fake_master(dep, tier, "toucher")
        assert dep.run(admit(toucher, cids[0])) is not None
        tier.release_task("toucher")

        def sip():
            yield node.memory.get(node.memory.level - 64)

        dep.run(sip())
        # Under pressure the admission evicts c1 (LRU), not c0 (first-in).
        other = fake_master(dep, tier, "iq")
        assert dep.run(admit(other, cids[2])) is not None
        assert resident(tier, cids[0])
        assert not resident(tier, cids[1])
        assert tier.stats.evictions >= 1


class TestTieredSharedTier:
    def _tiered_rig(self, **store_kw):
        """A tiered-store registry plus a small node under pressure."""
        dep, registry_unused, _, files, index = shared_rig(n_tasks=0)
        registry = SharedCacheRegistry(
            dep.env, store="tiered", **store_kw
        )
        node = dep.fabric.add_node(Node(dep.env, "tiny"))
        tier = registry.for_node(node)
        cids = [c.encode() for c in index.chunk_ids()]
        return dep, registry, tier, node, cids

    def _drain(self, dep, node, leave=64):
        def sip():
            yield node.memory.get(node.memory.level - leave)

        dep.run(sip())

    def test_cold_admission_overflows_to_disk_under_pressure(self):
        dep, registry, tier, node, cids = self._tiered_rig()
        self._drain(dep, node)
        batch = fake_master(dep, tier, "bq")

        def admit(cid):
            return (yield from acquire(batch, cid))

        assert dep.run(admit(cids[0])) is not None
        assert resident(tier, cids[0])
        assert tier.disk_resident("ds", cids[0])
        assert tier.stats.skipped_no_memory == 0
        assert registry.store_stats.disk_admits == 1

    def test_pressure_demotes_warm_chunk_but_not_pinned(self):
        dep, registry, tier, node, cids = self._tiered_rig()
        holder = fake_master(dep, tier, "pin")
        batch = fake_master(dep, tier, "bq")
        batch2 = fake_master(dep, tier, "bq2")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        # cids[0] is pinned (still referenced) and least recently used;
        # cids[1] is a refcount-0 warm chunk.
        assert dep.run(admit(holder, cids[0])) is not None
        assert dep.run(admit(batch, cids[1])) is not None
        tier.release_task("bq")
        self._drain(dep, node)
        # The admission demotes the warm chunk to disk instead of
        # forgetting it — and never touches the pinned one.
        assert dep.run(admit(batch2, cids[2])) is not None
        assert tier.store.tier_of(f"ds/{cids[0]}") == "ram"
        assert tier.disk_resident("ds", cids[1])
        assert resident(tier, cids[1])  # still a shared-tier entry
        assert tier.stats.evictions == 0
        assert tier.stats.skipped_no_memory == 0
        assert registry.store_stats.demotions == 1

        # The demoted chunk still serves reads (charging the disk).
        def read():
            t0 = dep.env.now
            chunk = yield from tier.read_resident("ds", cids[1])
            assert chunk is not None
            assert dep.env.now > t0

        dep.run(read())
        assert registry.store_stats.disk_hits == 1


    def test_crash_mid_demotion_leaves_no_orphan_on_disk(self):
        """Regression: a node crash + ``purge_crashed`` while a demotion
        wrote dropped the chunk's reference entry, and the demotion then
        filed the chunk on disk anyway — held by the store, resident by
        ``disk_resident`` and by no reference."""
        dep, registry, tier, node, cids = self._tiered_rig()
        batch = fake_master(dep, tier, "bq")
        batch2 = fake_master(dep, tier, "bq2")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        assert dep.run(admit(batch, cids[0])) is not None
        tier.release_task("bq")
        self._drain(dep, node)
        # The pressure demotes cids[0]; the node dies during its write.
        device, write = tier.store.device, tier.store.device.write

        def crash_then_write(nbytes):
            device.write = write
            node.kill()
            tier.purge_crashed()
            yield from write(nbytes)

        device.write = crash_then_write
        dep.run(admit(batch2, cids[1]))
        assert device.write is write  # the demotion did write
        assert not tier.disk_resident("ds", cids[0])
        assert not resident(tier, cids[0])
        assert registry.store_stats.demotions == 0
        check_node_tier(tier, [])


class TestRecoveryRefcounts:
    def test_recover_rebuilds_refcounts_without_duplicate_chunks(self):
        dep, registry, (c0, c1), files, index = shared_rig(n_nodes=3)
        for cache in (c0, c1):
            dep.run(cache.register())
            dep.run(cache.wait_warm())
        n_chunks = len(index.chunk_ids())
        victim = dep.client_nodes[0]
        dead_chunks = c0.masters[victim.name].cached_chunk_count
        assert dead_chunks > 0
        victim.kill()
        fetches = dep.server.stats.chunk_reads
        dep.run(c0.recover())
        dep.run(c1.recover())
        # The first recovery re-fetched the dead node's chunks; the
        # second warm-admitted them — one fetch per re-homed chunk.
        assert dep.server.stats.chunk_reads - fetches == dead_chunks
        s = registry.stats
        # Refcounts fully rebuilt: both tasks hold every chunk, each
        # chunk resident exactly once across the surviving nodes.
        assert s.refs == 2 * n_chunks
        assert s.chunks_resident == n_chunks

        def epoch(cache):
            cc = next(
                c for c in cache.clients if c.node.name != victim.name
            )
            for path, expected in files.items():
                data = yield from cache.read_file(cc, index.lookup(path))
                assert data == expected

        dep.run(epoch(c0))
        dep.run(epoch(c1))


    def test_concurrent_recoveries_fetch_each_dead_chunk_once(self):
        """Both tasks recover at once: the dead node's chunks are
        fetched cold exactly once, and the other task's recovery
        warm-admits the same chunks."""
        dep, registry, (c0, c1), files, index = shared_rig(n_nodes=3)
        for cache in (c0, c1):
            dep.run(cache.register())
            dep.run(cache.wait_warm())
        n_chunks = len(index.chunk_ids())
        victim = dep.client_nodes[0]
        dead_chunks = c0.masters[victim.name].cached_chunk_count
        victim.kill()
        fetches = dep.server.stats.chunk_reads
        before = registry.stats
        reloaded = []

        def recover(cache):
            reloaded.append((yield from cache.recover()))

        procs = [dep.env.process(recover(c)) for c in (c0, c1)]
        dep.env.run(until=dep.env.all_of(procs))
        after = registry.stats
        assert dep.server.stats.chunk_reads - fetches == dead_chunks
        cold = after.cold_admissions - before.cold_admissions
        warm = after.warm_admissions - before.warm_admissions
        assert cold == warm == dead_chunks
        assert all(cold + warm >= n for n in reloaded)
        assert after.refs == 2 * n_chunks
        assert after.chunks_resident == n_chunks


class TestDiskTierRecovery:
    def test_disk_tier_survives_crash_and_restart(self):
        """A node whose chunks overflowed to its disk tier dies: the task
        recovers around it, the crash keeps the disk residency, and a
        fresh task over the restored node re-registers with zero
        backend fetches and reads off that disk."""
        dep = build_deployment(n_client_nodes=1)
        files = small_files(24, size=2048)
        writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)
        dep.load_meta(writer)
        index = writer.index
        registry = SharedCacheRegistry(dep.env, store="tiered")
        t0 = dep.fabric.add_node(Node(dep.env, "tier0"))
        t1 = dep.fabric.add_node(Node(dep.env, "tier1"))

        def drain():  # tier1 has no RAM to spare: admissions go to disk
            yield t1.memory.get(t1.memory.level - 64)

        dep.run(drain())
        clients = [CacheClient("cc0", t0, 0), CacheClient("cc1", t1, 1)]
        cache = TaskCache(dep.server, "ds", clients, shared=registry)
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        tier1 = registry.for_node(t1)
        disk_before = tier1.store.stats.chunks_disk
        assert disk_before > 0  # the drained node overflowed to disk

        t1.kill()
        dep.run(cache.recover())
        assert t1.name not in cache.masters
        # The crash forgot tier1's RAM residency but kept its disk tier.
        assert tier1.store.stats.chunks_disk == disk_before
        assert tier1.stats.chunks_resident == disk_before

        # Node restarts; a fresh task re-registers over both nodes.
        t1.restore()
        clients2 = [CacheClient("r0", t0, 0), CacheClient("r1", t1, 1)]
        cache2 = TaskCache(dep.server, "ds", clients2, shared=registry)
        fetches = dep.server.stats.chunk_reads
        dep.run(cache2.register())
        dep.run(cache2.wait_warm())
        # Every chunk was resident somewhere (tier0 RAM after the
        # recovery, tier1 disk across the restart): no backend fetch.
        assert dep.server.stats.chunk_reads == fetches
        assert cache2.cached_chunks() == len(index.chunk_ids())

        # Reads through the restarted node come off its disk tier.
        hits_before = registry.store_stats.disk_hits

        def epoch():
            for path, expected in files.items():
                data = yield from cache2.read_file(clients2[1],
                                                   index.lookup(path))
                assert data == expected

        dep.run(epoch())
        assert registry.store_stats.disk_hits > hits_before
        assert cache2.stats.disk_hits > 0


class TestClientSharedHitCredit:
    """``ClientStats.shared_hits`` is credited per read from the tier it
    resolved at — not inferred from the cache-wide counter, which a
    concurrent reader of the same task also moves."""

    def _rig(self):
        """A warm task, and a cold on-demand one (two clients) on the
        same registry: its reads of node-local chunks are shared hits."""
        dep, registry, (warm,), files, index = shared_rig(n_tasks=1)
        dep.run(warm.register())
        dep.run(warm.wait_warm())
        clients = [dep.new_client("ds", node_idx=i, rank=i) for i in range(2)]
        cold = TaskCache(dep.server, "ds", [c.as_cache_client() for c in clients],
                         policy="on-demand", shared=registry)
        dep.run(cold.register())
        for client in clients:
            dep.run(client.load_meta(dep.run(client.save_meta())))
            client.attach_cache(cold)
        cids = [index.lookup(p).chunk_id.encode() for p in files]
        local = [
            sum(resident(registry.for_node(c.node), cid) for cid in cids)
            for c in clients
        ]
        assert all(local)
        return dep, cold, clients, files, local

    def test_get_many_credits_shared_hits(self):
        dep, cold, clients, files, local = self._rig()
        assert dep.run(clients[0].get_many(list(files))) == files
        assert clients[0].stats.shared_hits == local[0] == cold.stats.shared_hits

    def test_interleaved_gets_each_claim_only_their_own(self):
        dep, cold, clients, files, local = self._rig()

        def reads(client):
            for path in files:
                yield from client.get(path)

        procs = [dep.env.process(reads(c)) for c in clients]
        dep.env.run(until=dep.env.all_of(procs))
        assert [c.stats.shared_hits for c in clients] == local
        assert cold.stats.shared_hits == sum(local)
