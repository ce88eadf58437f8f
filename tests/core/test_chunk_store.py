"""Unit tests for the chunk store (RAM tier + optional NVMe tier)."""

import pytest

from repro.bench.setups import deploy, make_task, warm
from repro.cluster import Node
from repro.core.chunk import Chunk
from repro.core.chunk_store import (
    MAX_COMPRESSION_RATIO,
    MIN_COMPRESSION_RATIO,
    ChunkStore,
    compression_ratio,
)
from repro.core.shared_cache import SharedCacheRegistry
from repro.sim import Environment
from repro.util.ids import ChunkIdGenerator

from tests.invariants import check_invariants

CHUNK = 64 * 1024
GEN = ChunkIdGenerator(machine=b"\x0d" * 6, pid=13)


def make_chunk(key="c0", size=CHUNK):
    return Chunk.build(GEN.next(), [(f"{key}/payload.bin", b"x" * (size - 256))])


def rig(memory_bytes=4 * CHUNK, **store_kw):
    env = Environment()
    node = Node(env, "n0", memory_bytes=memory_bytes)
    return env, node, ChunkStore(env, node, **store_kw)


def resident(store):
    """Chunks the store holds across all tiers."""
    return store.stats.chunks_ram + store.stats.chunks_disk


def run(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


def spare_none(value):
    """The owner's protection rule when nothing is protected."""
    return False


class TestSpecAndFactory:
    def test_defaults_build_a_ram_store(self):
        env, node, store = rig()
        assert store.kind == "ram"
        assert store.device is None

    def test_tiered_spec_builds_a_tiered_store(self):
        env, node, store = rig(kind="tiered", disk_tier_bytes=10 * CHUNK)
        assert store.kind == "tiered"
        assert store.device is not None
        assert store.capacity_bytes == 10 * CHUNK

    @pytest.mark.parametrize("kw", [{"kind": "ssd"}, {"disk_tier_bytes": -1}])
    def test_invalid_spec_is_rejected(self, kw):
        with pytest.raises(ValueError):
            rig(**kw)

    def test_registry_arguments_are_validated_by_the_store(self):
        env = Environment()
        registry = SharedCacheRegistry(env, store="tape")
        with pytest.raises(ValueError):
            registry.for_node(Node(env, "n0"))


class TestCompressionRatio:
    def test_deterministic_and_in_band(self):
        for key in ("ds/c0", "ds/c1", "another"):
            r1 = compression_ratio(key, seed=7)
            r2 = compression_ratio(key, seed=7)
            assert r1 == r2
            assert MIN_COMPRESSION_RATIO <= r1 <= MAX_COMPRESSION_RATIO

    def test_varies_across_keys_and_seeds(self):
        ratios = {compression_ratio(f"ds/c{i}") for i in range(32)}
        assert len(ratios) > 16
        assert compression_ratio("ds/c0", seed=0) != compression_ratio(
            "ds/c0", seed=1
        )


class _RamTierCases:
    """RAM-tier behaviour, the same with (``kind="tiered"``) and without
    (``kind="ram"``) a disk tier behind it."""

    kind: str

    def test_put_get_and_memory_accounting(self):
        env, node, store = rig(memory_bytes=2 * CHUNK, kind=self.kind)
        chunk = make_chunk("c0")
        assert run(env, store.put("c0", chunk, CHUNK, spare_none)) == "ram"
        assert node.memory.level == CHUNK
        got = store.get("c0")
        assert got is not None and got[0] is chunk
        assert store.tier_of("c0") == "ram"
        assert store.stats.ram_hits == 1
        assert store.stats.ram_bytes == CHUNK

    def test_get_refreshes_lru_order(self):
        env, node, store = rig(memory_bytes=4 * CHUNK, kind=self.kind)
        for cid in ("c0", "c1", "c2"):
            run(env, store.put(cid, make_chunk(cid), CHUNK, spare_none))
        assert list(store.ram.entries) == ["c0", "c1", "c2"]
        store.get("c0")
        assert list(store.ram.entries) == ["c1", "c2", "c0"]
        store.ram.get("c1")
        assert list(store.ram.entries) == ["c2", "c0", "c1"]

    def test_drop_returns_memory_but_crash_does_not(self):
        env, node, store = rig(memory_bytes=2 * CHUNK, kind=self.kind)
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        store.drop("c0")
        assert node.memory.level == CHUNK
        assert store.crash() == 1
        assert resident(store) == 0
        # The container died with the node: no memory handed back.
        assert node.memory.level == CHUNK


class TestRamStore(_RamTierCases):
    kind = "ram"

    def test_put_refuses_when_memory_is_short(self):
        env, node, store = rig(memory_bytes=CHUNK // 2)
        assert run(env, store.put("c0", make_chunk(), CHUNK, spare_none)) is None
        assert resident(store) == 0

    def test_displace_evicts(self):
        env, node, store = rig(memory_bytes=2 * CHUNK)
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        assert run(env, store.displace("c0", spare_none)) == "evicted"
        assert store.tier_of("c0") is None
        assert node.memory.level == 2 * CHUNK


class TestTieredStore(_RamTierCases):
    kind = "tiered"

    def test_admission_overflows_to_disk(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        assert run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none)) == "ram"
        t0 = env.now
        assert run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none)) == "disk"
        assert env.now > t0  # the device write charged simulated time
        assert store.tier_of("c1") == "disk"
        assert store.stats.disk_admits == 1
        assert store.stats.disk_bytes == CHUNK

    def test_load_promotes_when_memory_allows(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        store.drop("c0")  # free RAM
        got = run(env, store.load("c1"))
        assert got is not None and got[1] == CHUNK
        assert store.tier_of("c1") == "ram"
        assert store.stats.promotions == 1
        assert store.stats.disk_hits == 1
        assert store.stats.bytes_promoted == CHUNK

    def test_load_reads_through_when_memory_is_full(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        got = run(env, store.load("c1"))
        assert got is not None
        # RAM is full: the read streams through without displacing c0.
        assert store.tier_of("c1") == "disk"
        assert store.tier_of("c0") == "ram"
        assert store.stats.promotions == 0
        assert store.stats.disk_hits == 1

    def test_displace_demotes_and_returns_memory(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        assert run(env, store.displace("c0", spare_none)) == "disk"
        assert store.tier_of("c0") == "disk"
        assert node.memory.level == CHUNK
        assert store.stats.demotions == 1
        assert store.stats.bytes_demoted == CHUNK

    def test_displace_evicts_when_disk_cannot_fit(self):
        env, node, store = rig(
            memory_bytes=CHUNK, kind="tiered",
            disk_tier_bytes=CHUNK // 2,
        )
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        assert run(env, store.displace("c0", spare_none)) == "evicted"
        assert store.tier_of("c0") is None

    def test_disk_capacity_evicts_lru(self):
        env, node, store = rig(
            memory_bytes=CHUNK, kind="tiered", disk_tier_bytes=2 * CHUNK,
        )
        run(env, store.put("hold", make_chunk("hold"), CHUNK, spare_none))
        for cid in ("d0", "d1", "d2"):
            assert run(
                env, store.put(cid, make_chunk(cid), CHUNK, spare_none)
            ) == "disk"
        assert list(store.disk.entries) == ["d1", "d2"]
        assert store.stats.disk_evictions == 1
        assert store.tier_of("d0") is None
        assert store.tier_of("d1") == "disk"
        assert store.stats.disk_stored_bytes == 2 * CHUNK

    def test_evictable_predicate_protects_disk_chunks(self):
        env, node, store = rig(
            memory_bytes=CHUNK, kind="tiered",
            disk_tier_bytes=CHUNK,
        )
        run(env, store.put("hold", make_chunk("hold"), CHUNK, spare_none))
        assert run(env, store.put("d0", make_chunk("d0"), CHUNK, spare_none)) == "disk"
        # d0 is pinned: the next disk admission has no victim and fails.
        tier = run(
            env, store.put("d1", make_chunk("d1"), CHUNK, lambda v: True)
        )
        assert tier is None
        assert store.tier_of("d0") == "disk"

    def test_compression_shrinks_stored_bytes_deterministically(self):
        env, node, store = rig(
            memory_bytes=CHUNK, kind="tiered",
            compression=True,
        )
        run(env, store.put("hold", make_chunk("hold"), CHUNK, spare_none))
        run(env, store.put("d0", make_chunk("d0"), CHUNK, spare_none))
        stored = store.stats.disk_stored_bytes
        assert stored < CHUNK
        assert stored == store.stored_size("d0", CHUNK)
        assert store.stats.compress_ops == 1
        # A second rig with the same seed stores the exact same bytes.
        env2, node2, store2 = rig(
            memory_bytes=CHUNK, kind="tiered",
            compression=True,
        )
        run(env2, store2.put("hold", make_chunk("hold"), CHUNK, spare_none))
        run(env2, store2.put("d0", make_chunk("d0"), CHUNK, spare_none))
        assert store2.stats.disk_stored_bytes == stored

    def test_crash_loses_ram_but_disk_survives(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        assert store.crash() == 1
        assert store.tier_of("c0") is None
        assert store.tier_of("c1") == "disk"
        assert resident(store) == 1

    def test_concurrent_loads_single_flight_the_promotion(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        store.drop("c0")
        results = []

        def reader():
            got = yield from store.load("c1")
            results.append(got)

        p1 = env.process(reader())
        p2 = env.process(reader())
        env.run(until=env.all_of([p1, p2]))
        assert len(results) == 2
        assert results[0][0] is results[1][0]
        # One promotion, not two racing byte accountings.
        assert store.stats.promotions == 1
        assert store.stats.disk_hits == 1
        assert store.tier_of("c1") == "ram"

    def test_displace_during_inflight_promote_waits_and_reports_ram(self):
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        store.drop("c0")
        outcome = {}

        def promoter():
            got = yield from store.load("c1")
            outcome["load"] = got

        def demoter():
            # Starts while the promote's device read is in flight.
            tier = yield from store.displace("c1", spare_none)
            outcome["displace"] = tier

        p1 = env.process(promoter())
        p2 = env.process(demoter())
        env.run(until=env.all_of([p1, p2]))
        assert outcome["load"] is not None
        # The racer waited for the move to settle instead of demoting.
        assert outcome["displace"] == "ram"
        assert store.stats.demotions == 0
        assert store.tier_of("c1") == "ram"

    def test_clear_mid_demotion_files_nothing_on_disk(self):
        """Regression: a demotion whose RAM entry was cleared while it
        wrote still filed the chunk on disk, an orphan nothing held."""
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        demotion = env.process(store.displace("c0", spare_none))
        env.run(until=store.device.op_time(CHUNK) / 2)
        store.clear()
        assert env.run(until=demotion) is None
        assert store.tier_of("c0") is None
        assert store.stats.disk_bytes == store.stats.disk_stored_bytes == 0
        assert store.stats.demotions == 0
        assert node.memory.level == CHUNK

    def test_clear_mid_promotion_files_nothing_in_ram(self):
        """A promotion whose disk entry was cleared during its read
        serves the chunk but files nothing, and hands its memory back."""
        env, node, store = rig(memory_bytes=CHUNK, kind="tiered")
        run(env, store.put("c0", make_chunk("c0"), CHUNK, spare_none))
        run(env, store.put("c1", make_chunk("c1"), CHUNK, spare_none))
        store.drop("c0")
        load = env.process(store.load("c1"))
        env.run(until=env.now + store.device.op_time(CHUNK) / 2)
        store.clear()
        assert env.run(until=load) is not None
        assert store.tier_of("c1") is None
        assert store.stats.promotions == 0 and store.stats.ram_bytes == 0
        assert node.memory.level == CHUNK

    def test_a_chunk_with_a_move_in_flight_is_not_evicted(self):
        """Disk-capacity eviction spares chunks whose promotion read is
        still in flight: with every disk chunk moving, an overflow
        admission is refused instead."""
        env, node, store = rig(
            memory_bytes=CHUNK, kind="tiered", disk_tier_bytes=2 * CHUNK,
        )
        run(env, store.put("hold", make_chunk("hold"), CHUNK, spare_none))
        for cid in ("d0", "d1"):
            run(env, store.put(cid, make_chunk(cid), CHUNK, spare_none))
        loads = [env.process(store.load(cid)) for cid in ("d0", "d1")]
        env.run(until=env.now + store.device.op_time(CHUNK) / 2)
        assert run(
            env, store.put("d2", make_chunk("d2"), CHUNK, spare_none)
        ) is None
        env.run(until=env.all_of(loads))
        assert [store.tier_of(c) for c in ("d0", "d1", "d2")] == [
            "disk", "disk", None]
        assert store.stats.disk_evictions == 0


class TestBoundedDiskTier:
    def test_concurrent_overflow_admissions_stay_within_the_bound(self):
        """Regression: ``_fit_disk`` checked for room before the write
        yielded, so a warm-up's concurrent overflow admissions each
        passed the check and the disk tier filed 8 chunks against a
        6-chunk ``disk_tier_bytes``.  An admission now claims its stored
        bytes until the write settles."""
        files = {f"/d/f{i:03d}.bin": bytes([i]) * (CHUNK // 4)
                 for i in range(96)}
        tb = deploy(1, "ds", files, chunk_size=CHUNK)
        nodes = [
            tb.fabric.add_node(Node(tb.env, f"t{i}", memory_bytes=2 * CHUNK))
            for i in range(2)
        ]
        bound = 6 * CHUNK
        registry = SharedCacheRegistry(
            tb.env, store="tiered", disk_tier_bytes=bound
        )
        task = make_task(tb, "ds", nodes, shared=registry)
        warm(tb, [task])
        tb.run(task.read(0, task.index.all_paths()))
        tb.env.run()
        for tier in registry.node_caches:
            # The bound binds: one more chunk would not fit.
            assert bound - CHUNK < tier.store.disk.bytes <= bound
        check_invariants(nodes, [task.cache])
