"""Tests for the self-contained chunk format (Fig 5a)."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunk import Chunk, ChunkFile
from repro.errors import ChunkChecksumError, ChunkFormatError
from repro.util.bitmap import Bitmap
from repro.util.ids import ChunkId, ChunkIdGenerator

GEN = ChunkIdGenerator(machine=b"\x01" * 6, pid=7)


def make_chunk(items=None):
    items = items or [("/a/x", b"xxxx"), ("/a/y", b"yy"), ("/b/z", b"zzzzzz")]
    return Chunk.build(GEN.next(), items)


class TestBuild:
    def test_paths_and_payloads(self):
        c = make_chunk()
        assert c.paths == ("/a/x", "/a/y", "/b/z")
        assert c.payload("/a/x") == b"xxxx"
        assert c.payload("/b/z") == b"zzzzzz"
        assert len(c) == 3
        assert "/a/y" in c

    def test_offsets_are_contiguous(self):
        c = make_chunk()
        assert [f.offset for f in c.files] == [0, 4, 6]
        assert c.data_size == 12

    def test_empty_chunk_rejected(self):
        with pytest.raises(ChunkFormatError):
            Chunk.build(GEN.next(), [])

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ChunkFormatError):
            Chunk.build(GEN.next(), [("/a", b"1"), ("/a", b"2")])

    def test_paths_normalized(self):
        c = Chunk.build(GEN.next(), [("a//b/./c", b"1")])
        assert c.paths == ("/a/b/c",)

    def test_empty_payload_allowed(self):
        c = Chunk.build(GEN.next(), [("/empty", b"")])
        assert c.payload("/empty") == b""

    def test_missing_path_raises(self):
        c = make_chunk()
        with pytest.raises(ChunkFormatError):
            c.payload("/nope")

    def test_entry_crc_matches_payload(self):
        c = make_chunk()
        for f in c.files:
            assert f.crc32 == zlib.crc32(c.payload(f.path))


class TestCodec:
    def test_roundtrip(self):
        c = make_chunk()
        restored = Chunk.decode(c.encode())
        assert restored.chunk_id == c.chunk_id
        assert restored.paths == c.paths
        for p in c.paths:
            assert restored.payload(p) == c.payload(p)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        blacklist_characters="/", blacklist_categories=("Cs",)
                    ),
                    min_size=1,
                    max_size=12,
                ).filter(lambda s: s not in (".", "..")),
                st.binary(max_size=256),
            ),
            min_size=1,
            max_size=10,
            unique_by=lambda t: t[0],
        )
    )
    def test_roundtrip_property(self, items):
        items = [(f"/d/{name}", data) for name, data in items]
        c = Chunk.build(GEN.next(), items)
        restored = Chunk.decode(c.encode())
        assert restored.paths == c.paths
        for path, data in items:
            assert restored.payload(path) == data

    def test_header_only_decode(self):
        c = make_chunk()
        blob = c.encode()
        shell, data_offset = Chunk.decode_header(blob)
        assert shell.chunk_id == c.chunk_id
        assert shell.paths == c.paths
        assert blob[data_offset:] == c.data

    def test_bad_magic(self):
        blob = b"XXXX" + make_chunk().encode()[4:]
        with pytest.raises(ChunkFormatError):
            Chunk.decode(blob)

    def test_truncated(self):
        blob = make_chunk().encode()
        with pytest.raises(ChunkFormatError):
            Chunk.decode_header(blob[:10])

    def test_header_corruption_detected(self):
        blob = bytearray(make_chunk().encode())
        blob[25] ^= 0xFF  # flip a byte inside the file table
        with pytest.raises((ChunkChecksumError, ChunkFormatError)):
            Chunk.decode(bytes(blob))

    def test_payload_corruption_detected(self):
        c = make_chunk()
        blob = bytearray(c.encode())
        blob[-1] ^= 0xFF  # corrupt the last payload byte
        restored = Chunk.decode(bytes(blob))
        with pytest.raises(ChunkChecksumError):
            restored.payload("/b/z")
        # verify=False skips the check (used on trusted in-memory copies)
        assert restored.payload("/b/z", verify=False) != c.payload("/b/z")


def encoded(files, data):
    """Header + data as given: what ``Chunk(...)`` would refuse to build."""
    shell = Chunk.__new__(Chunk)
    shell.chunk_id, shell.files = GEN.next(), tuple(files)
    shell.deletion_bitmap = Bitmap(len(files))
    return shell.header_bytes() + data


class TestReadEntries:
    """The reader ingest uses builds no object per file and refuses what
    ``decode`` refuses."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["/a", "/a/b", "/données/été.bin", "/火/x", "/.git"]),
            st.binary(max_size=20), min_size=1,
        ),
        st.data(),
    )
    def test_agrees_with_decode(self, items, data):
        built = Chunk.build(GEN.next(), items.items())
        dead = data.draw(st.sets(st.integers(0, len(items) - 1)))
        bitmap = Bitmap(len(items))
        for i in dead:
            bitmap.set(i)
        blob = Chunk(built.chunk_id, built.files, built.data, bitmap).encode()
        chunk = Chunk.decode(blob)
        cid, bits, entries, data_size = Chunk.read_entries(blob)
        assert (cid, bits, data_size) == (
            chunk.chunk_id, chunk.deletion_bitmap, chunk.data_size
        )
        assert entries == [
            (f.path, f.offset, f.length, f.crc32) for f in chunk.files
        ]
        assert Chunk.read_header(blob)[:3] == (cid, bits, entries)
        assert Chunk.read_header(blob)[3] == len(blob) - data_size

    @pytest.mark.parametrize("damage,error", [
        (lambda b: b"XSL1" + b[4:], ChunkFormatError),  # magic
        (lambda b: b[:40], ChunkFormatError),  # truncated inside the table
        (lambda b: b[:22], ChunkFormatError),  # truncated before the bitmap
        (lambda b: b[:45] + bytes([b[45] ^ 0x01]) + b[46:], ChunkChecksumError),
    ])
    def test_refuses_a_damaged_header(self, damage, error):
        blob = damage(make_chunk().encode())
        for read in (Chunk.decode, Chunk.read_entries, Chunk.read_header):
            with pytest.raises(error) as caught:
                read(blob)
            assert type(caught.value) is error

    @pytest.mark.parametrize("files,data,match", [
        ([ChunkFile("/a", 0, 2, 0), ChunkFile("/a", 2, 2, 0)], b"xxyy",
         "duplicate paths"),
        ([ChunkFile("/a", 0, 2, 0), ChunkFile("/b", 2, 3, 0)], b"xxyy",
         "'/b' extends past data section"),
    ])
    def test_refuses_what_the_constructor_refuses(self, files, data, match):
        blob = encoded(files, data)
        Chunk.read_header(blob)  # the header alone is well formed
        for read in (Chunk.decode, Chunk.read_entries):
            with pytest.raises(ChunkFormatError, match=match):
                read(blob)


class TestDeletion:
    def test_fresh_chunk_nothing_deleted(self):
        c = make_chunk()
        assert c.deleted_count == 0
        assert not any(c.is_deleted(p) for p in c.paths)

    def test_bitmap_marks_deleted(self):
        c = make_chunk()
        bm = Bitmap(3)
        bm.set(1)
        c2 = Chunk(c.chunk_id, c.files, c.data, bm)
        assert c2.is_deleted("/a/y")
        assert [p for p in c2.paths if not c2.is_deleted(p)] == ["/a/x", "/b/z"]
        assert c2.deleted_count == 1

    def test_bitmap_roundtrips_through_codec(self):
        c = make_chunk()
        bm = Bitmap(3)
        bm.set(0)
        c2 = Chunk(c.chunk_id, c.files, c.data, bm)
        restored = Chunk.decode(c2.encode())
        assert restored.is_deleted("/a/x")

    def test_bitmap_size_mismatch_rejected(self):
        c = make_chunk()
        with pytest.raises(ChunkFormatError):
            Chunk(c.chunk_id, c.files, c.data, Bitmap(2))


class TestValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ChunkFormatError):
            ChunkFile("/a", -1, 4, 0)

    def test_entry_past_data_rejected(self):
        cid = GEN.next()
        with pytest.raises(ChunkFormatError):
            Chunk(cid, [ChunkFile("/a", 0, 100, 0)], b"short")

    def test_self_contained_for_recovery(self):
        """Everything recovery needs is in the encoded header."""
        items = [(f"/ds/f{i}", bytes([i]) * (i + 1)) for i in range(5)]
        c = Chunk.build(GEN.next(), items)
        shell, _ = Chunk.decode_header(c.encode())
        # chunk id, full paths, offsets, lengths, checksums all present
        assert shell.chunk_id == c.chunk_id
        assert shell.paths == tuple(p for p, _ in items)
        for a, b in zip(shell.files, c.files):
            assert (a.offset, a.length, a.crc32) == (b.offset, b.length, b.crc32)
