"""Tests for client-side chunk aggregation (Fig 3)."""

import pytest

from repro.core.chunk_builder import ChunkBuilder
from repro.errors import DieselError
from repro.util.ids import ChunkIdGenerator


def builder(chunk_size=100, on_seal=None):
    return ChunkBuilder(
        ChunkIdGenerator(machine=b"\x02" * 6, pid=1),
        chunk_size=chunk_size,
        on_seal=on_seal,
    )


class TestBuilder:
    def test_buffers_until_threshold(self):
        b = builder(chunk_size=100)
        assert b.add("/a", b"x" * 40) is None
        assert b.add("/b", b"x" * 40) is None
        sealed = b.add("/c", b"x" * 40)  # crosses 100
        assert sealed is not None
        assert sealed.paths == ("/a", "/b", "/c")
        assert b.flush() is None  # nothing left pending

    def test_single_large_file_seals_immediately(self):
        b = builder(chunk_size=100)
        sealed = b.add("/big", b"x" * 500)
        assert sealed is not None
        assert sealed.data_size == 500

    def test_flush_seals_remainder(self):
        b = builder(chunk_size=100)
        b.add("/a", b"x")
        sealed = b.flush()
        assert sealed is not None
        assert sealed.paths == ("/a",)

    def test_flush_empty_returns_none(self):
        assert builder().flush() is None

    def test_duplicate_pending_path_rejected(self):
        b = builder(chunk_size=1000)
        b.add("/a", b"1")
        with pytest.raises(DieselError):
            b.add("/a", b"2")

    def test_same_path_after_seal_is_allowed(self):
        """Modify-by-rewrite: the new version lands in a later chunk."""
        b = builder(chunk_size=4)
        first = b.add("/a", b"v1!!")
        assert first is not None
        second = b.add("/a", b"v2!!")
        assert second is not None
        assert second.chunk_id > first.chunk_id

    def test_on_seal_callback(self):
        sealed = []
        b = builder(chunk_size=4, on_seal=sealed.append)
        b.add("/a", b"xxxx")
        b.add("/b", b"y")
        b.flush()
        assert [c.paths for c in sealed] == [("/a",), ("/b",)]
        assert b.sealed_count == 2

    def test_build_all(self):
        b = builder(chunk_size=100)
        chunks = list(b.build_stream((f"/f{i}", b"z" * 30) for i in range(10)))
        assert sum(len(c) for c in chunks) == 10
        # every chunk except possibly the last reaches the threshold
        for c in chunks[:-1]:
            assert c.data_size >= 100
        # chunk IDs are monotonically increasing (written order)
        ids = [c.chunk_id for c in chunks]
        assert ids == sorted(ids)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            builder(chunk_size=0)

    def test_paper_min_chunk_size_default(self):
        from repro.core.chunk import DEFAULT_CHUNK_SIZE

        assert DEFAULT_CHUNK_SIZE == 4 * 1024 * 1024  # §4: >= 4MB
