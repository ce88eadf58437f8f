"""End-to-end self-healing: detector-driven cache + KV recovery."""

from repro.core.dist_cache import CacheClient, TaskCache
from repro.core.recovery import verify_rebuild
from repro.ft import CacheSupervisor, FailureDetector, KVSupervisor, SUSPECT
from tests.core.conftest import build_deployment, small_files, write_dataset


def cache_rig(n_nodes=3, n_files=24):
    dep = build_deployment(n_client_nodes=n_nodes)
    files = small_files(n_files, size=2048)
    writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)
    dep.load_meta(writer)
    clients = [
        CacheClient(f"cc{i}", node, i)
        for i, node in enumerate(dep.client_nodes)
    ]
    cache = TaskCache(dep.server, "ds", clients)
    dep.run(cache.register())
    dep.run(cache.wait_warm())
    det = FailureDetector(dep.env)
    sup = CacheSupervisor(det, cache)
    det.start()
    return dep, cache, clients, files, writer.index, det, sup


class TestCacheSupervisor:
    def test_master_death_heals_with_no_operator_call(self):
        dep, cache, clients, files, index, det, sup = cache_rig()
        victim_node = dep.client_nodes[0]
        assert victim_node.name in cache.masters

        def scenario():
            yield dep.env.timeout(0.05)
            victim_node.kill()
            # Give the detector + healing process room to run.
            yield dep.env.timeout(2.0)

        dep.run(scenario())
        det.stop()
        dep.env.run()
        # The dead master was evicted and its chunks re-partitioned.
        assert victim_node.name not in cache.masters
        assert len(sup.recoveries) == 1
        assert sup.recoveries[0]["chunks_reloaded"] > 0
        # Every chunk is cached again on a live survivor.
        assert cache.cached_chunks() == len(index.chunk_ids())
        assert det.detection_latency_s("cache:cc0") is not None

    def test_reads_keep_succeeding_through_the_whole_episode(self):
        dep, cache, clients, files, index, det, sup = cache_rig()
        victim_node = dep.client_nodes[0]
        reader = next(c for c in clients
                      if c.node.name != victim_node.name)
        outcomes = {"ok": 0}

        def read_loop():
            for sweep in range(6):
                if sweep == 1:
                    victim_node.kill()
                for path, expected in files.items():
                    data = yield from cache.read_file(reader,
                                                      index.lookup(path))
                    assert data == expected
                    outcomes["ok"] += 1
                yield dep.env.timeout(0.05)

        dep.run(read_loop())
        det.stop()
        dep.env.run()
        assert outcomes["ok"] == 6 * len(files)
        assert len(sup.recoveries) == 1

    def test_inflight_failure_reports_into_the_detector(self):
        dep, cache, clients, files, index, det, sup = cache_rig()
        victim_node = dep.client_nodes[0]
        t_kill = dep.env.now
        victim_node.kill()
        reader = next(c for c in clients
                      if c.node.name != victim_node.name)
        victim_chunks = {
            cid for cid, m in cache._owner_of.items()
            if m.node.name == victim_node.name
        }
        path = next(p for p in files
                    if index.lookup(p).chunk_id.encode() in victim_chunks)

        def read():
            data = yield from cache.read_file(reader, index.lookup(path))
            return data

        assert dep.run(read()) == files[path]
        # The failed read flagged the master at the kill, before the
        # first heartbeat could.
        assert det.events[0] == (t_kill, "cache:cc0", SUSPECT)
        det.stop()


class TestKVSupervisor:
    def heal_rig(self):
        dep = build_deployment()
        files = small_files(30, size=1024)
        write_dataset(dep, "ds", files, chunk_size=8 * 1024)
        det = FailureDetector(dep.env)
        sup = KVSupervisor(det, dep.server, dep.kv, ["ds"])
        det.start()
        return dep, files, det, sup

    def test_shard_loss_is_restarted_and_rebuilt(self):
        dep, files, det, sup = self.heal_rig()
        victim = dep.kv.instances[1]
        keys_before = dep.kv.total_keys()

        def scenario():
            yield dep.env.timeout(0.1)
            victim.node.kill()
            yield dep.env.timeout(3.0)

        dep.run(scenario())
        det.stop()
        dep.env.run()  # drain the rebuild process
        assert victim.up  # auto-restarted
        assert len(sup.rebuilds) == 1
        assert sup.rebuilds[0]["shards"] == ["kv:kv1"]
        assert sup.rebuilds[0]["chunks_scanned"] > 0
        # Scenario (a): replay starts from the last-known-good second.
        assert sup.rebuilds[0]["from_timestamp"] == 0
        # Metadata is whole again: every pair replayed, nothing missing.
        assert dep.kv.total_keys() == keys_before
        expected = {p: len(b) for p, b in files.items()}
        assert verify_rebuild(dep.server, "ds", expected) == []


class TestSharedTierRecovery:
    def shared_rig(self, n_nodes=3, n_files=24):
        from repro.core.shared_cache import SharedCacheRegistry

        dep = build_deployment(n_client_nodes=n_nodes)
        files = small_files(n_files, size=2048)
        writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)
        dep.load_meta(writer)
        registry = SharedCacheRegistry(dep.env)
        det = FailureDetector(dep.env)
        caches, sups = [], []
        for t in range(2):
            clients = [
                CacheClient(f"t{t}cc{i}", node, i)
                for i, node in enumerate(dep.client_nodes)
            ]
            cache = TaskCache(dep.server, "ds", clients, shared=registry)
            dep.run(cache.register())
            dep.run(cache.wait_warm())
            caches.append(cache)
            sups.append(CacheSupervisor(det, cache))
        det.start()
        return dep, registry, caches, sups, files, writer.index, det

    def test_healing_restores_refcounts_without_duplicate_fetches(self):
        dep, registry, caches, sups, files, index, det = self.shared_rig()
        n_chunks = len(index.chunk_ids())
        victim = dep.client_nodes[0]
        dead_chunks = caches[0].masters[victim.name].cached_chunk_count

        def scenario():
            yield dep.env.timeout(0.05)
            fetches = dep.server.stats.chunk_reads
            victim.kill()
            yield dep.env.timeout(2.0)
            return dep.server.stats.chunk_reads - fetches

        refetched = dep.run(scenario())
        det.stop()
        dep.env.run()
        # Both supervisors healed; the dead node's chunks were fetched
        # from the backend exactly once (the second heal warm-admitted).
        assert all(len(s.recoveries) == 1 for s in sups)
        assert refetched == dead_chunks
        s = registry.stats
        assert s.refs == 2 * n_chunks
        assert s.chunks_resident == n_chunks
        # The recovery records attribute the re-pull per shared layer.
        # The two heal windows overlap, so each record sees the union of
        # both tasks' admissions: the dead chunks fetched cold exactly
        # once, plus the other task's warm refcount rebuild.
        recs = [s.recoveries[0] for s in sups]
        for r in recs:
            assert r["shared_cold_admissions"] == dead_chunks
            assert r["shared_warm_admissions"] == dead_chunks
            assert (r["shared_cold_admissions"]
                    + r["shared_warm_admissions"]
                    >= r["chunks_reloaded"])

    def test_recover_keeps_the_other_tasks_watches(self):
        dep, registry, caches, sups, files, index, det = self.shared_rig()
        det.stop()  # no probe notices the crash: only task 0 recovers
        dep.client_nodes[0].kill()
        dep.run(caches[0].recover())
        # Only task 0's departed master is unwatched; task 1 keeps all.
        assert sorted(det._watches) == [
            "cache:t0cc1", "cache:t0cc2",
            "cache:t1cc0", "cache:t1cc1", "cache:t1cc2",
        ]


class TestDiskTierRecovery:
    def _tiered_rig(self, ram_bytes=4 * 1024):
        """Shared tiered registry over two small-memory compute nodes.

        One node is drained so every chunk it admits overflows to the
        simulated NVMe tier — the residency that must survive a crash.
        """
        from repro.cluster.node import Node
        from repro.core.shared_cache import SharedCacheRegistry

        dep = build_deployment(n_client_nodes=1)
        files = small_files(24, size=2048)
        writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)
        dep.load_meta(writer)
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
        return dep, registry, cache, clients, files, writer.index, t1

    def test_disk_tier_survives_crash_and_supervised_restart(self):
        dep, registry, cache, clients, files, index, t1 = self._tiered_rig()
        tier1 = registry.for_node(t1)
        disk_before = tier1.store.stats.chunks_disk
        assert disk_before > 0  # the drained node overflowed to disk

        det = FailureDetector(dep.env)
        sup = CacheSupervisor(det, cache)
        det.start()

        def scenario():
            yield dep.env.timeout(0.05)
            t1.kill()
            yield dep.env.timeout(2.0)

        dep.run(scenario())
        det.stop()
        dep.env.run()
        assert len(sup.recoveries) == 1
        assert t1.name not in cache.masters
        # The crash forgot tier1's RAM residency but kept its disk tier.
        assert tier1.store.stats.chunks_disk == disk_before
        assert tier1.stats.chunks_resident == disk_before

        # Node restarts; a fresh task re-registers over both nodes.
        t1.restore()
        clients2 = [CacheClient("r0", clients[0].node, 0),
                    CacheClient("r1", t1, 1)]
        cache2 = TaskCache(dep.server, "ds", clients2, shared=registry)
        fetches = dep.server.stats.chunk_reads
        dep.run(cache2.register())
        dep.run(cache2.wait_warm())
        # Every chunk was resident somewhere (tier0 RAM after the heal,
        # tier1 disk across the restart): zero backend re-fetches.
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
