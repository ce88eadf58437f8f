"""Tests for chunk-ID generation and codec (paper Table 1, §4.1.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.ids import (
    CHUNK_ID_BYTES,
    ENCODED_LENGTH,
    MAX_IDS_PER_SECOND,
    ChunkId,
    ChunkIdGenerator,
    decode_chunk_id,
)

MACHINE = bytes.fromhex("001122334455")


class TestChunkIdLayout:
    """Byte layout exactly per Table 1 of the paper."""

    def test_total_length_is_16_bytes(self):
        assert CHUNK_ID_BYTES == 16

    def test_field_extraction(self):
        cid = ChunkId.from_parts(0x01020304, MACHINE, 0x0A0B0C, 0x112233)
        assert cid.timestamp == 0x01020304
        assert cid.machine == MACHINE
        assert cid.counter == 0x112233
        # Field byte ranges per Table 1.
        assert cid.raw[0:4] == bytes.fromhex("01020304")
        assert cid.raw[4:10] == MACHINE
        assert cid.raw[10:13] == bytes.fromhex("0A0B0C")
        assert cid.raw[13:16] == bytes.fromhex("112233")

    def test_capacity_exceeds_16_7_million_per_second(self):
        # Paper: "more than 16.7 million unique chunk IDs per second".
        assert MAX_IDS_PER_SECOND > 16_700_000

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ChunkId(b"\x00" * 15)

    @pytest.mark.parametrize(
        "ts,machine,pid,counter",
        [
            (1 << 32, MACHINE, 0, 0),
            (-1, MACHINE, 0, 0),
            (0, b"\x00" * 5, 0, 0),
            (0, MACHINE, 1 << 24, 0),
            (0, MACHINE, 0, 1 << 24),
        ],
    )
    def test_out_of_range_parts_rejected(self, ts, machine, pid, counter):
        with pytest.raises(ValueError):
            ChunkId.from_parts(ts, machine, pid, counter)


class TestOrdering:
    def test_timestamp_dominates_ordering(self):
        older = ChunkId.from_parts(100, b"\xff" * 6, 999, 999)
        newer = ChunkId.from_parts(101, b"\x00" * 6, 0, 0)
        assert older < newer

    def test_counter_breaks_ties(self):
        a = ChunkId.from_parts(100, MACHINE, 1, 0)
        b = ChunkId.from_parts(100, MACHINE, 1, 1)
        assert a < b

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_encoded_order_matches_byte_order(self, raw_a, raw_b):
        """The printable encoding must preserve sort order (recovery §4.1.2)."""
        a, b = ChunkId(raw_a), ChunkId(raw_b)
        assert (a.encode() < b.encode()) == (raw_a < raw_b)
        assert (a.encode() == b.encode()) == (raw_a == raw_b)


class TestCodec:
    @given(st.binary(min_size=16, max_size=16))
    def test_roundtrip(self, raw):
        cid = ChunkId(raw)
        assert decode_chunk_id(cid.encode()) == cid

    def test_encoded_length(self):
        cid = ChunkId(b"\xab" * 16)
        assert len(cid.encode()) == ENCODED_LENGTH

    @given(st.binary(min_size=16, max_size=16))
    def test_memoised_encoding_is_the_base32hex_form(self, raw):
        import base64

        cid = ChunkId(raw)
        expected = base64.b32hexencode(raw).decode("ascii").rstrip("=")
        assert cid.encode() == expected
        assert cid.encode() is cid.encode()  # computed once
        # The memo is not part of the value.
        assert cid == ChunkId(raw) and hash(cid) == hash(ChunkId(raw))

    def test_decode_garbage_raises(self):
        with pytest.raises(ValueError):
            decode_chunk_id("!!notvalid!!")
        with pytest.raises(ValueError):
            decode_chunk_id("!!")
        with pytest.raises(ValueError):
            decode_chunk_id("caf\u00e9")  # non-ASCII never reaches base32


class TestGenerator:
    def test_uniqueness_within_second(self):
        gen = ChunkIdGenerator(machine=MACHINE, pid=42)
        ids = [gen.next() for _ in range(10_000)]
        assert len(set(ids)) == len(ids)

    def test_monotone(self):
        gen = ChunkIdGenerator(machine=MACHINE, pid=42)
        ids = [gen.next() for _ in range(1000)]
        assert ids == sorted(ids)

    def test_uses_supplied_clock(self):
        t = [1000.0]
        gen = ChunkIdGenerator(machine=MACHINE, pid=1, clock=lambda: t[0])
        a = gen.next()
        t[0] = 2000.0
        b = gen.next()
        assert a.timestamp == 1000
        assert b.timestamp == 2000
        assert b.counter == 0  # counter resets on new second

    def test_counter_increments_within_second(self):
        gen = ChunkIdGenerator(machine=MACHINE, pid=1, clock=lambda: 5.0)
        a, b = gen.next(), gen.next()
        assert (a.timestamp, a.counter) == (5, 0)
        assert (b.timestamp, b.counter) == (5, 1)

    def test_clock_going_backwards_keeps_monotone(self):
        t = [100.0]
        gen = ChunkIdGenerator(machine=MACHINE, pid=1, clock=lambda: t[0])
        a = gen.next()
        t[0] = 50.0  # clock reset
        b = gen.next()
        assert b > a

    def test_pid_wraps_to_3_bytes(self):
        gen = ChunkIdGenerator(machine=MACHINE, pid=(1 << 24) + 7)
        assert gen.next().raw[10:13] == bytes.fromhex("000007")

    def test_take(self):
        gen = ChunkIdGenerator(machine=MACHINE, pid=1)
        ids = list(gen.take(5))
        assert len(ids) == 5
        assert len(set(ids)) == 5

    def test_two_processes_never_collide(self):
        g1 = ChunkIdGenerator(machine=MACHINE, pid=1, clock=lambda: 0.0)
        g2 = ChunkIdGenerator(machine=MACHINE, pid=2, clock=lambda: 0.0)
        ids1 = {g1.next() for _ in range(100)}
        ids2 = {g2.next() for _ in range(100)}
        assert not ids1 & ids2
