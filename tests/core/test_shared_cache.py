"""Tests for the node-level shared chunk tier (DESIGN §11).

Cross-task refcounting, warm admission, cross-task single-flight,
per-tenant quotas, QoS-governed eviction and deregistration semantics —
both at the :class:`SharedChunkCache` unit level (bare masters against
the real server) and through full :class:`TaskCache` integration.
"""

import pytest

from repro.calibration import DEFAULT
from repro.core.dist_cache import CacheClient, CacheMaster, TaskCache
from repro.core.shared_cache import SharedCacheRegistry
from repro.cluster.node import Node
from repro.errors import DieselError

from tests.core.conftest import build_deployment, small_files, write_dataset


def shared_rig(n_nodes=2, n_files=24, n_tasks=2, tenants=None, qos=None,
               policy="oneshot", chunk_size=8 * 1024):
    """A deployment + registry + ``n_tasks`` TaskCaches over one dataset."""
    dep = build_deployment(n_client_nodes=n_nodes)
    files = small_files(n_files, size=2048)
    writer = write_dataset(dep, "ds", files, chunk_size=chunk_size)

    def load():
        blob = yield from writer.save_meta()
        yield from writer.load_meta(blob)

    dep.run(load())
    registry = SharedCacheRegistry(dep.env)
    caches = []
    for t in range(n_tasks):
        clients = [
            CacheClient(f"t{t}cc{i}", node, i)
            for i, node in enumerate(dep.client_nodes)
        ]
        caches.append(TaskCache(
            dep.env, dep.fabric, dep.server, "ds", clients,
            policy=policy, shared=registry,
            tenant=tenants[t] if tenants else "default",
            qos_class=qos[t] if qos else "batch",
        ))
    return dep, registry, caches, files, writer.index


def fake_master(dep, tier, task, tenant="default", qos="batch"):
    """A bare CacheMaster (no TaskCache around it) for unit-driving one
    node tier's admission as task ``task``."""
    return CacheMaster(
        dep.env, dep.fabric, CacheClient(f"m-{task}", tier.node, 0),
        dep.server, "ds", DEFAULT, tier, task, tenant, qos,
    )


def acquire(master, cid):
    """Pull one chunk through ``master``'s tier: the bytes now held, or
    ``None`` when the tier refused the admission."""
    held, _ = yield from master.pull([cid])
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


class TestTenantQuotas:
    def _admit_all(self, dep, tier, index, task, tenant):
        cids = [c.encode() for c in index.chunk_ids()]
        master = fake_master(dep, tier, task, tenant=tenant)

        def admit():
            for cid in cids:
                yield from acquire(master, cid)

        dep.run(admit())
        return cids

    def test_tenant_exactly_at_quota_is_admitted(self):
        dep, registry, _, files, index = shared_rig(n_tasks=0)
        # Measure the dataset's exact resident bytes on a probe node.
        probe = dep.fabric.add_node(Node(dep.env, "probe"))
        self._admit_all(dep, registry.for_node(probe), index, "p", "probe")
        exact = registry.for_node(probe).tenant_usage("probe")
        # A tenant whose quota is *exactly* the dataset admits everything.
        registry.set_quota("exact", exact)
        node = dep.client_nodes[0]
        tier = registry.for_node(node)
        self._admit_all(dep, tier, index, "t", "exact")
        assert tier.tenant_usage("exact") == exact
        assert tier.stats.quota_rejections == 0
        assert tier.stats.chunks_resident == len(index.chunk_ids())

    def test_one_byte_under_quota_rejects_the_last_chunk(self):
        dep, registry, _, files, index = shared_rig(n_tasks=0)
        probe = dep.fabric.add_node(Node(dep.env, "probe"))
        self._admit_all(dep, registry.for_node(probe), index, "p", "probe")
        exact = registry.for_node(probe).tenant_usage("probe")
        registry.set_quota("capped", exact - 1)
        node = dep.client_nodes[1]
        tier = registry.for_node(node)
        self._admit_all(dep, tier, index, "t", "capped")
        assert tier.stats.quota_rejections >= 1
        assert tier.tenant_usage("capped") <= exact - 1
        rows = {r["tenant"]: r for r in registry.tenant_rows()}
        assert rows["capped"]["within_quota"]

    def test_warm_ref_bump_also_charges_the_quota(self):
        """A second tenant at quota 0-room cannot ref an existing chunk."""
        dep, registry, _, files, index = shared_rig(n_tasks=0)
        node = dep.client_nodes[0]
        tier = registry.for_node(node)
        cid = index.chunk_ids()[0].encode()
        self._admit_all(dep, tier, index, "rich-task", "rich")
        registry.set_quota("poor", 1)  # one byte: nothing fits
        master = fake_master(dep, tier, "poor-task", tenant="poor")

        def admit():
            return (yield from acquire(master, cid))

        assert dep.run(admit()) is None
        assert tier.stats.quota_rejections == 1
        assert tier.tenant_usage("poor") == 0
        assert tier.refcount("ds", cid) == 1  # only the rich task's ref


class TestQosEviction:
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

    def test_batch_cannot_evict_interactive_warm_pool(self):
        dep, registry, tier, node, cids = self._tiny_node_rig()
        inter = fake_master(dep, tier, "iq", qos="interactive")
        batch = fake_master(dep, tier, "bq", qos="batch")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        assert dep.run(admit(inter, cids[0])) is not None
        tier.release_task("iq", "default")  # leave an interactive warm pool
        assert tier.refcount("ds", cids[0]) == 0
        self._drain(dep, node)
        # Batch admission: the only reclaimable chunk is interactive.
        assert dep.run(admit(batch, cids[1])) is None
        assert tier.stats.qos_denied == 1
        assert tier.stats.evictions == 0
        assert tier.resident("ds", cids[0])

    def test_interactive_may_evict_any_warm_chunk(self):
        dep, registry, tier, node, cids = self._tiny_node_rig()
        inter = fake_master(dep, tier, "iq", qos="interactive")
        inter2 = fake_master(dep, tier, "iq2", qos="interactive")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        assert dep.run(admit(inter, cids[0])) is not None
        tier.release_task("iq", "default")
        self._drain(dep, node)
        assert dep.run(admit(inter2, cids[1])) is not None
        assert tier.stats.evictions >= 1
        assert not tier.resident("ds", cids[0])

    def test_referenced_chunks_are_never_evicted(self):
        dep, registry, tier, node, cids = self._tiny_node_rig()
        batch = fake_master(dep, tier, "bq", qos="batch")
        other = fake_master(dep, tier, "bq2", qos="batch")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        assert dep.run(admit(batch, cids[0])) is not None  # still referenced
        self._drain(dep, node)
        assert dep.run(admit(other, cids[1])) is None
        assert tier.stats.skipped_no_memory == 1
        assert tier.stats.evictions == 0
        assert tier.resident("ds", cids[0])


class TestLruEvictionOrder:
    def test_eviction_takes_least_recently_used_not_insertion_order(self):
        """Regression: the eviction scan used to walk the entry table in
        insertion order, so a warm chunk that was just re-read could be
        evicted before one untouched since admission."""
        dep, registry, _, files, index = shared_rig(n_tasks=0)
        node = dep.fabric.add_node(Node(dep.env, "tiny"))
        tier = registry.for_node(node)
        cids = [c.encode() for c in index.chunk_ids()]
        warmer = fake_master(dep, tier, "warmer", qos="interactive")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        # Insertion order: c0 then c1; both left refcount-0 (warm).
        assert dep.run(admit(warmer, cids[0])) is not None
        assert dep.run(admit(warmer, cids[1])) is not None
        tier.release_task("warmer", "default")
        # Re-reading c0 must refresh its recency: LRU is now [c1, c0].
        toucher = fake_master(dep, tier, "toucher", qos="interactive")
        assert dep.run(admit(toucher, cids[0])) is not None
        tier.release_task("toucher", "default")

        def sip():
            yield node.memory.get(node.memory.level - 64)

        dep.run(sip())
        # Under pressure the admission evicts c1 (LRU), not c0 (first-in).
        other = fake_master(dep, tier, "iq", qos="interactive")
        assert dep.run(admit(other, cids[2])) is not None
        assert tier.resident("ds", cids[0])
        assert not tier.resident("ds", cids[1])
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
        batch = fake_master(dep, tier, "bq", qos="batch")

        def admit(cid):
            return (yield from acquire(batch, cid))

        assert dep.run(admit(cids[0])) is not None
        assert tier.resident("ds", cids[0])
        assert tier.disk_resident("ds", cids[0])
        assert tier.stats.skipped_no_memory == 0
        assert registry.store_stats.disk_admits == 1

    def test_pressure_demotes_warm_chunk_but_not_pinned_interactive(self):
        dep, registry, tier, node, cids = self._tiered_rig()
        inter = fake_master(dep, tier, "iq", qos="interactive")
        batch = fake_master(dep, tier, "bq", qos="batch")
        batch2 = fake_master(dep, tier, "bq2", qos="batch")

        def admit(master, cid):
            return (yield from acquire(master, cid))

        # cids[0] is pinned (interactive, still referenced); cids[1] is
        # a refcount-0 batch warm chunk.
        assert dep.run(admit(inter, cids[0])) is not None
        assert dep.run(admit(batch, cids[1])) is not None
        tier.release_task("bq", "default")
        self._drain(dep, node)
        # The batch admission demotes the warm chunk to disk instead of
        # forgetting it — and never touches the pinned interactive one.
        assert dep.run(admit(batch2, cids[2])) is not None
        assert tier.store.tier_of(f"ds/{cids[0]}") == "ram"
        assert tier.disk_resident("ds", cids[1])
        assert tier.resident("ds", cids[1])  # still a shared-tier entry
        assert tier.stats.evictions == 0
        assert tier.stats.qos_denied == 0
        assert registry.store_stats.demotions == 1

        # The demoted chunk still serves reads (charging the disk).
        def read():
            t0 = dep.env.now
            chunk = yield from tier.read_resident("ds", cids[1])
            assert chunk is not None
            assert dep.env.now > t0

        dep.run(read())
        assert registry.store_stats.disk_hits == 1


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
        cold = TaskCache(
            dep.env, dep.fabric, dep.server, "ds",
            [c.as_cache_client() for c in clients],
            policy="on-demand", shared=registry,
        )
        dep.run(cold.register())
        for client in clients:
            dep.run(client.load_meta(dep.run(client.save_meta())))
            client.attach_cache(cold)
        cids = [index.lookup(p).chunk_id.encode() for p in files]
        local = [
            sum(registry.for_node(c.node).resident("ds", cid) for cid in cids)
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
