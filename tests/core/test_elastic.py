"""Tests for live membership changes: scale_up / scale_down and the
supervisor that follows them."""

import pytest

from repro.core.dist_cache import CacheClient, TaskCache
from repro.core.shared_cache import SharedCacheRegistry
from repro.errors import DieselError
from repro.ft import CacheSupervisor, FailureDetector

from tests.core.conftest import build_deployment, small_files, write_dataset


#: Where the masters keep their chunks: a tier of the task's own, or a
#: passed-in tiered registry — the scale paths are the same code.
TIERS = ["own", "passed-in"]


def setup_cache(n_nodes=4, cache_nodes=2, n_files=24, policy="oneshot",
                tier="own"):
    """A cache over the first ``cache_nodes`` nodes of a larger cluster,
    leaving the rest free to join via scale_up."""
    dep = build_deployment(n_client_nodes=n_nodes)
    files = small_files(n_files, size=2048)
    writer = write_dataset(dep, "ds", files, chunk_size=8 * 1024)
    dep.load_meta(writer)
    clients = [
        CacheClient(f"cc{i}", dep.client_nodes[i % cache_nodes], i)
        for i in range(cache_nodes * 2)
    ]
    shared = (
        SharedCacheRegistry(dep.env, store="tiered")
        if tier == "passed-in" else None
    )
    cache = TaskCache(dep.server, "ds", clients, policy=policy, shared=shared)
    dep.run(cache.register())
    dep.run(cache.wait_warm())
    return dep, cache, clients, files, writer.index


def read_all(cache, cc, files, index):
    for path, expected in files.items():
        data = yield from cache.read_file(cc, index.lookup(path))
        assert data == expected


def joiners(dep, nodes, start_rank=100):
    return [
        CacheClient(f"joiner{r}", dep.client_nodes[n], r)
        for r, n in enumerate(nodes, start=start_rank)
    ]


class TestScaleUp:
    @pytest.mark.parametrize("tier", TIERS)
    def test_new_nodes_take_an_equal_share_warm(self, tier):
        dep, cache, clients, files, index = setup_cache(tier=tier)
        n_chunks = len(index.chunk_ids())
        v0 = cache.membership_version
        fetches_before = dep.server.stats.chunk_reads
        res = dep.run(cache.scale_up(joiners(dep, [2, 3])))
        assert sorted(res["new_masters"]) == ["joiner100", "joiner101"]
        assert len(cache.masters) == 4
        # Minimal movement toward the equal share, warmed peer-to-peer —
        # the backend was never touched for resident data.
        assert res["moved_chunks"] == pytest.approx(n_chunks // 2, abs=2)
        assert res["warmed_chunks"] == res["moved_chunks"]
        assert res["peer_warmed"] == res["moved_chunks"]
        assert dep.server.stats.chunk_reads == fetches_before
        assert cache.membership_version == v0 + 1
        assert cache.stats.scale_ups == 1
        assert cache.stats.peer_warmed_chunks == res["peer_warmed"]
        # Every chunk still resident and owned exactly once.
        assert cache.cached_chunks() >= n_chunks
        dep.run(read_all(cache, clients[1], files, index))

    def test_partition_balance_after_growth(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.scale_up(joiners(dep, [2, 3])))
        sizes = [len(m.assigned) for m in cache.masters.values()]
        assert max(sizes) - min(sizes) <= 1

    def test_scale_up_joins_masters_and_mesh(self):
        dep, cache, clients, files, index = setup_cache()
        v0 = cache.membership_version
        dep.run(cache.scale_up(joiners(dep, [2])))
        assert cache.membership_version == v0 + 1
        assert cache.masters[dep.client_nodes[2].name].client.name == "joiner100"
        assert cache.connection_count() == cache.expected_connection_count()

    def test_clients_on_existing_nodes_join_without_new_masters(self):
        dep, cache, clients, files, index = setup_cache()
        extra = [CacheClient("late", dep.client_nodes[0], 50)]
        res = dep.run(cache.scale_up(extra))
        assert res["new_masters"] == []
        assert res["moved_chunks"] == 0
        assert len(cache.masters) == 2
        dep.run(read_all(cache, extra[0], files, index))

    def test_reads_succeed_while_the_warm_is_in_flight(self):
        """A moved chunk read before its copy lands on the new owner
        falls through to the server (Fig 4), never an error."""
        dep, cache, clients, files, index = setup_cache()
        reader = clients[1]
        local = cache.masters[reader.node.name]

        def read_moved():
            yield dep.env.timeout(0)  # the steal has run, no pull landed
            cid = {p: index.lookup(p).chunk_id.encode() for p in files}
            moved = {
                p: data for p, data in files.items()
                if cache.owner_of(cid[p]).client in new
                and not local.has_chunk(cid[p])
            }
            assert moved
            yield from read_all(cache, reader, moved, index)

        new = joiners(dep, [2, 3])
        file_reads = dep.server.stats.file_reads
        dep.env.process(cache.scale_up(new), name="grow")
        dep.env.process(read_moved(), name="reader")
        dep.env.run()
        assert cache.stats.scale_ups == 1
        assert dep.server.stats.file_reads > file_reads

    def test_validation(self):
        dep, cache, clients, files, index = setup_cache()
        with pytest.raises(DieselError):
            dep.run(cache.scale_up([]))
        with pytest.raises(DieselError):
            dep.run(cache.scale_up(
                [CacheClient("cc0", dep.client_nodes[2], 9)]
            ))
        fresh = TaskCache(dep.server, "ds",
                          [CacheClient("solo", dep.client_nodes[3], 0)])
        with pytest.raises(DieselError):
            dep.run(fresh.scale_up(joiners(dep, [2], start_rank=200)))


class TestScaleDown:
    def grown(self, tier="own"):
        dep, cache, clients, files, index = setup_cache(tier=tier)
        dep.run(cache.scale_up(joiners(dep, [2, 3])))
        return dep, cache, clients, files, index

    @pytest.mark.parametrize("tier", TIERS)
    def test_drain_rehomes_every_chunk(self, tier):
        dep, cache, clients, files, index = self.grown(tier)
        n_chunks = len(index.chunk_ids())
        v0 = cache.membership_version
        fetches_before = dep.server.stats.chunk_reads
        rehome = cache._rehome

        def rehome_checked(owner, cid):  # one owner, one list, mid-drain too
            rehome(owner, cid)
            assert {c: m for m in cache.masters.values()
                    for c in m.assigned} == cache._owner_of

        cache._rehome = rehome_checked
        res = dep.run(cache.scale_down([dep.client_nodes[2],
                                        dep.client_nodes[3]]))
        assert res["lost_chunks"] == 0
        assert res["drained_chunks"] > 0
        assert dep.server.stats.chunk_reads == fetches_before
        assert sorted(res["removed_masters"]) == ["joiner100", "joiner101"]
        assert len(cache.masters) == 2
        assert cache.membership_version == v0 + 1
        assert cache.stats.scale_downs == 1
        assert cache.stats.drained_chunks == res["drained_chunks"]
        # Survivors own and hold the full dataset again.
        assert sum(len(m.assigned) for m in cache.masters.values()) == n_chunks
        dep.run(read_all(cache, clients[0], files, index))

    def test_departed_masters_pulls_stay_counted(self):
        """``coalesced_pulls`` is cumulative: a scale-down removes the
        master, not the pulls it coalesced."""
        dep, cache, clients, files, index = setup_cache(policy="on-demand")
        cids = [cid.encode() for cid in index.chunk_ids()]

        def pull(cc, cid):
            owner = cache.owner_of(cid)
            yield from owner.endpoint.call(cc.node, "pull_chunk", cid)

        for cid in cids:  # two clients fault every chunk at once
            for cc in clients[:2]:
                dep.env.process(pull(cc, cid))
        dep.env.run()
        leaving = cache.masters[dep.client_nodes[1].name]
        assert leaving.stats.coalesced_pulls > 0
        before = cache.stats.coalesced_pulls
        dep.run(cache.scale_down([dep.client_nodes[1]]))
        assert cache.stats.coalesced_pulls >= before

    def test_accepts_node_names_as_well_as_nodes(self):
        dep, cache, clients, files, index = self.grown()
        res = dep.run(cache.scale_down([dep.client_nodes[2].name]))
        assert res["lost_chunks"] == 0
        assert len(cache.masters) == 3

    def test_reads_succeed_while_the_drain_is_in_flight(self):
        dep, cache, clients, files, index = self.grown()
        done = {"reads": 0}

        def reader():
            for _ in range(4):
                yield from read_all(cache, clients[1], files, index)
                done["reads"] += len(files)

        def drainer():
            yield dep.env.timeout(1e-5)  # land mid-read-sweep
            res = yield from cache.scale_down([dep.client_nodes[3]])
            assert res["lost_chunks"] == 0

        dep.env.process(reader(), name="reader")
        dep.env.process(drainer(), name="drainer")
        dep.env.run()
        assert done["reads"] == 4 * len(files)

    def test_removing_every_master_rejected(self):
        dep, cache, clients, files, index = setup_cache()
        with pytest.raises(DieselError):
            dep.run(cache.scale_down([dep.client_nodes[0],
                                      dep.client_nodes[1]]))

    def test_scale_down_leaves_masters_and_mesh(self):
        dep, cache, clients, files, index = self.grown()
        gone, v0 = dep.client_nodes[2].name, cache.membership_version
        dep.run(cache.scale_down([gone]))
        assert cache.membership_version == v0 + 1
        assert gone not in cache.masters
        assert all(c.node.name != gone for c in cache.clients)
        assert cache.connection_count() == cache.expected_connection_count()


class TestClientAcrossMembership:
    """An attached DieselClient's live pipeline reads on across a scale
    event: its plan stays as drawn, each fetch resolves against the
    chunk's owner at fetch time."""

    def test_scale_up_mid_pipeline_reads_every_file(self):
        dep, cache, clients, files, index = setup_cache()
        from repro.core.config import DieselConfig

        dl = dep.new_client("ds", config=DieselConfig(prefetch_depth=2))
        dep.load_meta(dl)
        dl.attach_cache(cache)
        dl.enable_shuffle(group_size=2)
        plan = dl.epoch_file_list(seed=1)
        pipeline = dl.prefetcher
        assert pipeline is not None and pipeline.active
        dep.run(cache.scale_up(joiners(dep, [2, 3])))
        assert dl.prefetcher is pipeline

        def consume():
            for path in plan.files:
                data = yield from dl.get(path)
                assert data == files[path]

        dep.run(consume())
        assert cache.stats.degraded_reads == 0


class TestSupervisorMembership:
    """The failure detector tracks the mesh as it grows and shrinks."""

    def rig(self):
        dep, cache, clients, files, index = setup_cache()
        det = FailureDetector(dep.env)
        sup = CacheSupervisor(det, cache)
        return dep, cache, clients, files, index, det, sup

    def test_scale_up_watches_the_new_masters(self):
        dep, cache, clients, files, index, det, sup = self.rig()
        assert sorted(det._watches) == ["cache:cc0", "cache:cc1"]
        dep.run(cache.scale_up(joiners(dep, [2, 3])))
        assert sorted(det._watches) == [
            "cache:cc0", "cache:cc1", "cache:joiner100", "cache:joiner101",
        ]

    def test_scale_down_unwatches_the_departed_masters(self):
        dep, cache, clients, files, index, det, sup = self.rig()
        dep.run(cache.scale_up(joiners(dep, [2, 3])))
        dep.run(cache.scale_down([dep.client_nodes[2]]))
        assert sorted(det._watches) == [
            "cache:cc0", "cache:cc1", "cache:joiner101",
        ]

    def test_joined_master_death_heals_automatically(self):
        dep, cache, clients, files, index, det, sup = self.rig()
        dep.run(cache.scale_up(joiners(dep, [2, 3])))
        det.start()

        def scenario():
            yield dep.env.timeout(0.05)
            dep.client_nodes[2].kill()
            yield dep.env.timeout(2.0)

        dep.run(scenario())
        det.stop()
        dep.env.run()
        assert dep.client_nodes[2].name not in cache.masters
        assert len(sup.recoveries) == 1
        assert cache.cached_chunks() >= len(index.chunk_ids())
