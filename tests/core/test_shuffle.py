"""Tests for chunk-wise shuffle (§4.3, Fig 8) and its invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shuffle import (
    EpochPlan,
    chunk_adjacency,
    chunkwise_shuffle,
    full_shuffle,
    shuffle,
    shuffle_quality,
)
from repro.util.ids import ChunkIdGenerator

GEN = ChunkIdGenerator(machine=b"\x05" * 6, pid=5)


def make_dataset(n_chunks=10, files_per_chunk=8):
    return {
        cid: [f"/c{ci:03d}/f{fi}" for fi in range(files_per_chunk)]
        for ci, cid in enumerate(GEN.take(n_chunks))
    }


#: 2^k and 2^k ± 1 up to 600: where the draws' bit count changes.
POWER_EDGES = sorted({
    n for k in range(10) for n in (2**k - 1, 2**k, 2**k + 1) if n <= 600
})


class TestShuffleDraws:
    """``shuffle`` is ``random.Random.shuffle`` draw for draw: the same
    permutation, and the generator left in the same state."""

    @staticmethod
    def _both(n, seed):
        expected, got = list(range(n)), list(range(n))
        reference, rng = random.Random(seed), random.Random(seed)
        reference.shuffle(expected)
        shuffle(got, rng)
        return expected, got, reference.getstate(), rng.getstate()

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 600), st.sampled_from(POWER_EDGES)),
        seed=st.integers(0, 2**64),
    )
    def test_matches_random_shuffle(self, n, seed):
        expected, got, reference_state, state = self._both(n, seed)
        assert got == expected
        assert state == reference_state

    def test_every_length_to_600(self):
        for n in range(601):
            for seed in (0, n + 1):
                expected, got, reference_state, state = self._both(n, seed)
                assert got == expected, (n, seed)
                assert state == reference_state, (n, seed)


class TestFullShuffle:
    def test_is_permutation(self):
        paths = [f"/f{i}" for i in range(100)]
        order = full_shuffle(paths, random.Random(0))
        assert sorted(order) == sorted(paths)
        assert order != paths  # overwhelmingly likely with 100 items

    def test_seed_determinism(self):
        paths = [f"/f{i}" for i in range(50)]
        assert full_shuffle(paths, random.Random(7)) == full_shuffle(
            paths, random.Random(7)
        )


class TestChunkwiseShuffle:
    def test_is_permutation_of_all_files(self):
        data = make_dataset()
        plan = chunkwise_shuffle(data, group_size=3, rng=random.Random(0))
        all_files = [f for files in data.values() for f in files]
        assert sorted(plan.files) == sorted(all_files)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 10),
        st.integers(1, 15),
        st.integers(0, 10_000),
    )
    def test_permutation_property(self, n_chunks, files_per_chunk, group_size, seed):
        data = make_dataset(n_chunks, files_per_chunk)
        plan = chunkwise_shuffle(data, group_size, random.Random(seed))
        assert sorted(plan.files) == sorted(
            f for files in data.values() for f in files
        )

    def test_files_stay_within_their_chunks_group(self):
        """The locality invariant that makes chunk-wise reads possible."""
        data = make_dataset(n_chunks=12, files_per_chunk=5)
        plan = chunkwise_shuffle(data, group_size=4, rng=random.Random(1))
        chunk_of = {f: cid for cid, files in data.items() for f in files}
        for group in plan.groups:
            allowed = set(group.chunk_ids)
            for f in group.files:
                assert chunk_of[f] in allowed

    def test_group_sizes(self):
        data = make_dataset(n_chunks=10)
        plan = chunkwise_shuffle(data, group_size=4, rng=random.Random(2))
        sizes = [len(g.chunk_ids) for g in plan.groups]
        assert sizes == [4, 4, 2]

    def test_epochs_differ(self):
        data = make_dataset()
        p1 = chunkwise_shuffle(data, 3, random.Random(1)).files
        p2 = chunkwise_shuffle(data, 3, random.Random(2)).files
        assert p1 != p2

    def test_deterministic_for_seed(self):
        data = make_dataset()
        p1 = chunkwise_shuffle(data, 3, random.Random(9)).files
        p2 = chunkwise_shuffle(data, 3, random.Random(9)).files
        assert p1 == p2

    def test_empty_chunks_skipped(self):
        data = make_dataset(n_chunks=3)
        empty_cid = GEN.next()
        data[empty_cid] = []
        plan = chunkwise_shuffle(data, 2, random.Random(0))
        for g in plan.groups:
            assert empty_cid not in g.chunk_ids

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            chunkwise_shuffle(make_dataset(), 0, random.Random(0))

    def test_group_size_one_still_shuffles_within_chunk(self):
        data = make_dataset(n_chunks=1, files_per_chunk=50)
        plan = chunkwise_shuffle(data, 1, random.Random(3))
        original = list(data.values())[0]
        assert sorted(plan.files) == sorted(original)
        assert plan.files != original

    def test_empty_dataset(self):
        plan = chunkwise_shuffle({}, 5, random.Random(0))
        assert plan.files == []
        assert plan.file_count == 0


class TestEpochPlan:
    def test_memory_bound(self):
        """Peak working set ≤ group_size × max chunk size (§4.3)."""
        data = make_dataset(n_chunks=20, files_per_chunk=3)
        chunk_sizes = {cid: 4_000_000 for cid in data}
        for group_size in (1, 5, 10):
            plan = chunkwise_shuffle(data, group_size, random.Random(0))
            peak = max(sum(chunk_sizes[c] for c in g.chunk_ids)
                       for g in plan.groups)
            assert peak <= group_size * 4_000_000

    def test_file_count(self):
        data = make_dataset(n_chunks=6, files_per_chunk=7)
        plan = chunkwise_shuffle(data, 2, random.Random(0))
        assert plan.file_count == 42


class TestShuffleQuality:
    def test_sequential_order_scores_low(self):
        data = make_dataset(n_chunks=10, files_per_chunk=10)
        sequential = [f for cid in sorted(data) for f in data[cid]]
        assert shuffle_quality(sequential, data) == 0.0

    def test_full_shuffle_scores_near_one(self):
        data = make_dataset(n_chunks=20, files_per_chunk=20)
        paths = [f for files in data.values() for f in files]
        order = full_shuffle(paths, random.Random(0))
        assert shuffle_quality(order, data) > 0.7

    def test_even_smallest_groups_scatter_globally(self):
        """Chunk-order shuffling alone already spreads files dataset-wide."""
        data = make_dataset(n_chunks=40, files_per_chunk=10)
        q1 = shuffle_quality(
            chunkwise_shuffle(data, 1, random.Random(0)).files, data
        )
        assert q1 > 0.7


class TestChunkAdjacency:
    def test_sequential_is_maximal(self):
        data = make_dataset(n_chunks=10, files_per_chunk=10)
        sequential = [f for cid in sorted(data) for f in data[cid]]
        assert chunk_adjacency(sequential, data) > 0.85

    def test_full_shuffle_is_minimal(self):
        data = make_dataset(n_chunks=20, files_per_chunk=10)
        paths = [f for files in data.values() for f in files]
        order = full_shuffle(paths, random.Random(0))
        assert chunk_adjacency(order, data) < 0.15

    def test_mixing_grows_with_group_size(self):
        """Larger groups → less same-chunk adjacency (Fig 13 tradeoff knob)."""
        data = make_dataset(n_chunks=40, files_per_chunk=10)
        adj = {
            g: chunk_adjacency(
                chunkwise_shuffle(data, g, random.Random(0)).files, data
            )
            for g in (1, 10, 40)
        }
        assert adj[1] > adj[10] > adj[40]
        # group g keeps ~1/g same-chunk adjacency
        assert adj[1] == pytest.approx(0.9, abs=0.1)
        assert adj[10] == pytest.approx(0.1, abs=0.07)

    def test_short_orders(self):
        data = make_dataset(n_chunks=1, files_per_chunk=1)
        assert chunk_adjacency(list(data.values())[0], data) == 0.0


class TestMemoizedFiles:
    def test_files_built_once(self):
        data = make_dataset(n_chunks=5)
        plan = chunkwise_shuffle(data, 2, random.Random(0))
        assert plan.files is plan.files  # cached_property: same object

    def test_memoized_list_matches_groups(self):
        data = make_dataset(n_chunks=5)
        plan = chunkwise_shuffle(data, 2, random.Random(0))
        assert plan.files == [f for g in plan.groups for f in g.files]


class TestPartition:
    def test_partition_is_a_partition(self):
        data = make_dataset(n_chunks=10, files_per_chunk=5)
        plan = chunkwise_shuffle(data, 2, random.Random(0))
        shards = plan.partition(3, random.Random(0))
        spread = [f for s in shards for f in s.files]
        assert sorted(spread) == sorted(plan.files)

    def test_unowned_groups_deal_least_loaded(self):
        data = make_dataset(n_chunks=9, files_per_chunk=4)
        plan = chunkwise_shuffle(data, 1, random.Random(0))
        shards = plan.partition(3, random.Random(0))
        counts = sorted(s.file_count for s in shards)
        assert counts[-1] - counts[0] <= 4  # one group's worth

    def test_shard_order_permuted_per_rng(self):
        data = make_dataset(n_chunks=30, files_per_chunk=4)
        plan = chunkwise_shuffle(data, 1, random.Random(0))
        s1 = plan.partition(2, random.Random(1))[0].files
        s2 = plan.partition(2, random.Random(2))[0].files
        assert sorted(s1) == sorted(s2)
        assert s1 != s2

    def test_validation(self):
        plan = chunkwise_shuffle(make_dataset(), 2, random.Random(0))
        with pytest.raises(ValueError):
            plan.partition(0, random.Random(0))
