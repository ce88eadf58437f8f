"""Cross-cutting property-based tests of system invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dist_cache import CacheClient, TaskCache
from repro.core.shuffle import chunkwise_shuffle
from repro.kvstore.sharded import NUM_SLOTS, ShardedKV
from repro.util.ids import ChunkIdGenerator

from tests.core.conftest import build_deployment, write_dataset

GEN = ChunkIdGenerator(machine=b"\x0d" * 6, pid=17)


class TestCachePartitioningProperties:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_nodes=st.integers(1, 5),
        clients_per_node=st.integers(1, 4),
        n_files=st.integers(1, 30),
    )
    def test_partition_invariants(self, n_nodes, clients_per_node, n_files):
        """For any topology: one master per node, every chunk owned by
        exactly one master, connections == p×(n−1), balance within 1."""
        dep = build_deployment(n_client_nodes=n_nodes)
        files = {f"/p/f{i:03d}": bytes([i]) * 512 for i in range(n_files)}
        write_dataset(dep, "ds", files, chunk_size=2048)
        clients = [
            CacheClient(f"c{r}", dep.client_nodes[r % n_nodes], r)
            for r in range(n_nodes * clients_per_node)
        ]
        cache = TaskCache(dep.env, dep.fabric, dep.server, "ds", clients)
        summary = dep.run(cache.register())

        p = len({c.node.name for c in clients})
        n = len(clients)
        assert len(cache.masters) == p
        assert cache.connection_count() == p * n - p
        owners = {}
        for cid in summary["chunk_ids"]:
            owners[cid] = cache.owner_of(cid).client.name
        counts = {}
        for owner in owners.values():
            counts[owner] = counts.get(owner, 0) + 1
        if counts:
            assert max(counts.values()) - min(counts.values()) <= 1

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kill_idx=st.integers(0, 2))
    def test_recovery_preserves_total_ownership(self, kill_idx):
        """Whichever node dies, recovery leaves every chunk owned by a
        live master and the dataset fully cached."""
        dep = build_deployment(n_client_nodes=4)
        files = {f"/p/f{i:03d}": bytes([i]) * 512 for i in range(24)}
        write_dataset(dep, "ds", files, chunk_size=2048)
        clients = [
            CacheClient(f"c{r}", dep.client_nodes[r], r) for r in range(4)
        ]
        cache = TaskCache(dep.env, dep.fabric, dep.server, "ds", clients)
        summary = dep.run(cache.register())
        dep.run(cache.wait_warm())
        total = len(summary["chunk_ids"])
        dep.client_nodes[kill_idx].kill()
        dep.run(cache.recover())
        assert cache.cached_chunks() == total
        for cid in summary["chunk_ids"]:
            assert cache.owner_of(cid).up


class TestEpochPlanProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n_chunks=st.integers(1, 20),
        files_per_chunk=st.integers(1, 8),
        group_size=st.integers(1, 25),
        seed=st.integers(0, 999),
    )
    def test_group_of_consistent_with_flat_order(
        self, n_chunks, files_per_chunk, group_size, seed
    ):
        data = {
            cid: [f"/c{i}/f{j}" for j in range(files_per_chunk)]
            for i, cid in enumerate(GEN.take(n_chunks))
        }
        plan = chunkwise_shuffle(data, group_size, random.Random(seed))
        flat = plan.files
        pos = 0
        for group in plan.groups:
            for f in group.files:
                assert flat[pos] == f
                pos += 1
        assert pos == plan.file_count

    @settings(max_examples=40, deadline=None)
    @given(
        n_chunks=st.integers(2, 20),
        group_size=st.integers(1, 10),
        seed=st.integers(0, 999),
    )
    def test_groups_partition_chunks(self, n_chunks, group_size, seed):
        data = {cid: [f"/x{i}"] for i, cid in enumerate(GEN.take(n_chunks))}
        plan = chunkwise_shuffle(data, group_size, random.Random(seed))
        seen = [c for g in plan.groups for c in g.chunk_ids]
        assert sorted(seen) == sorted(data)
        assert all(len(g.chunk_ids) <= group_size for g in plan.groups)


class TestKvSlotProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.text(min_size=1, max_size=40))
    def test_slot_range_and_stability(self, key):
        dep = build_deployment()
        slot = dep.kv.slot(key)
        assert 0 <= slot < NUM_SLOTS
        assert dep.kv.slot(key) == slot
        assert dep.kv.owner(key) is dep.kv.owner(key)

    def test_owner_independent_of_other_keys(self):
        dep = build_deployment()
        keys = [f"k{i}" for i in range(100)]
        owners_before = {k: dep.kv.owner(k).name for k in keys}
        for k in keys:
            dep.kv.local_put(k, b"v")
        owners_after = {k: dep.kv.owner(k).name for k in keys}
        assert owners_before == owners_after
