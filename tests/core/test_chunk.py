"""Tests for the self-contained chunk format (Fig 5a)."""

import hashlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunk import Chunk, ChunkFile, _seal
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

    def test_wire_format_is_pinned(self):
        """The bytes of a fixed chunk, packed and re-sealed with a
        tombstone, hash to what the two-copy encoder gave before the
        seal-once pack (sha256 pinned then, never edited)."""
        cid = ChunkId(bytes(range(16)))
        items = [(f"/pin/d{i % 3}/é{i:03d}.bin", bytes([i]) * (7 * i + 1))
                 for i in range(40)]
        packed = Chunk.build(cid, items)
        bitmap = Bitmap(len(items))
        for i in (0, 9, 39):
            bitmap.set(i)
        marked = Chunk(cid, packed.files, packed.data, bitmap)
        assert hashlib.sha256(packed.encode()).hexdigest() == (
            "c6e65b787e8ab627f42d7f0821090262cc005a85c83377289c2b0a66ff37039d"
        )
        assert hashlib.sha256(marked.encode()).hexdigest() == (
            "7528c6a34887381fd4b43772f965de88333b1c79804bdbadd964884d84395231"
        )

    def test_sealed_once(self):
        """A packed chunk's data section views its encoding, and a
        decoded chunk encodes to the very blob it came from."""
        c = make_chunk()
        blob = c.encode()
        assert c.data.obj is blob and c.encode() is blob
        assert Chunk.decode(blob).encode() is blob
        # A mutable buffer is not handed back: encode() seals a copy.
        resealed = Chunk.decode(bytearray(blob)).encode()
        assert type(resealed) is bytes and resealed == blob
        # A chunk built from parts seals a fresh, equal blob.
        rebuilt = Chunk(c.chunk_id, c.files, bytes(c.data))
        assert rebuilt.encode() == blob and rebuilt.encode() is not blob

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
    table = [(f.path, (f.offset, f.length, f.crc32)) for f in files]
    return _seal(GEN.next(), Bitmap(len(files)), table, [data])[0]


class TestReadEntries:
    """Ingest reads a chunk's entries with ``decode``'s one header walk:
    it agrees with the ``read_header`` oracle and refuses what the
    constructor refuses."""

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
        cid, bits, entries, data_offset = Chunk.read_header(blob)
        assert (cid, bits, len(blob) - data_offset) == (
            chunk.chunk_id, chunk.deletion_bitmap, chunk.data_size
        )
        paths, table = chunk.columns()
        assert [(p, *e) for p, e in zip(paths, table)] == entries == [
            (f.path, f.offset, f.length, f.crc32) for f in chunk.files
        ]

    @pytest.mark.parametrize("damage,error", [
        (lambda b: b"XSL1" + b[4:], ChunkFormatError),  # magic
        (lambda b: b[:40], ChunkFormatError),  # truncated inside the table
        (lambda b: b[:22], ChunkFormatError),  # truncated before the bitmap
        (lambda b: b[:45] + bytes([b[45] ^ 0x01]) + b[46:], ChunkChecksumError),
    ])
    def test_refuses_a_damaged_header(self, damage, error):
        blob = damage(make_chunk().encode())
        for read in (Chunk.decode, Chunk.read_header):
            with pytest.raises(error) as caught:
                read(blob)
            assert type(caught.value) is error

    def test_a_flipped_header_byte_fails_every_header_walk(self):
        """Each header byte that no walk reads for the layout — chunk id,
        bitmap, name, offset, length, crc — is caught by the header
        checksum alone: by the name-length walk (``header_size``,
        ``fetched``) and by a tombstone's ``locate``, whether it walks
        or answers from a table kept for the unflipped header."""
        c = make_chunk()
        blob = c.encode()
        size = len(blob) - c.data_size
        structural = set(range(4)) | set(range(20, 24))  # magic, file count
        pos = 24 + 1  # past the 3-file bitmap
        for path in c.paths:
            structural |= {pos, pos + 1}  # the name length
            pos += 2 + len(path.encode()) + 20
        assert pos + 4 == size
        kept = Chunk.locate(blob, c.paths[0], None)[2]
        cid = c.chunk_id.encode()
        for at in sorted(set(range(size - 4)) - structural):
            flipped = bytearray(blob)
            flipped[at] ^= 0x10
            flipped = bytes(flipped)
            for read in (Chunk.header_size, lambda b: Chunk.fetched(b, cid),
                         lambda b: Chunk.locate(b, c.paths[1], None),
                         lambda b: Chunk.locate(b, c.paths[1], kept)):
                with pytest.raises(ChunkChecksumError):
                    read(flipped)

    @pytest.mark.parametrize("files,data,match", [
        ([ChunkFile("/a", 0, 2, 0), ChunkFile("/a", 2, 2, 0)], b"xxyy",
         "duplicate paths"),
        ([ChunkFile("/a", 0, 2, 0), ChunkFile("/b", 2, 3, 0)], b"xxyy",
         "'/b' extends past data section"),
    ])
    def test_refuses_what_the_constructor_refuses(self, files, data, match):
        blob = encoded(files, data)
        Chunk.read_header(blob)  # the header alone is well formed
        with pytest.raises(ChunkFormatError, match=match):
            Chunk.decode(blob)


NAMES = ["/a", "/a/b", "/données/été.bin", "/火/x", "/.git", "/e"]


@st.composite
def file_tables(draw):
    """``(rows, data, bitmap)``: a file table as the header can hold it —
    duplicate paths, empty payloads, non-ASCII paths, extents past the
    data section, wrong checksums — and a data section."""
    data = draw(st.binary(max_size=48))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        offset = draw(st.integers(0, len(data)))
        length = draw(st.integers(0, len(data) - offset + 2))
        good = zlib.crc32(data[offset : offset + length])
        crc = draw(st.sampled_from([good, good ^ 1]))
        rows.append((draw(st.sampled_from(NAMES)), offset, length, crc))
    bitmap = Bitmap(len(rows))
    for i in draw(st.sets(st.integers(0, max(len(rows) - 1, 0)))):
        if rows:
            bitmap.set(i)
    return rows, data, bitmap


def reference_decode(blob):
    """:meth:`Chunk.read_header` plus the rules decode has always added
    (no duplicate path; every file inside the data section, the first
    that is not named): ``(chunk_id, bitmap, files, payloads)``."""
    chunk_id, bitmap, entries, data_offset = Chunk.read_header(blob)
    data_size = len(blob) - data_offset
    if len({e[0] for e in entries}) != len(entries):
        raise ChunkFormatError("duplicate paths within one chunk")
    for path, offset, length, _ in entries:
        if offset + length > data_size:
            raise ChunkFormatError(
                f"file {path!r} extends past data section "
                f"({offset}+{length} > {data_size})"
            )
    start = data_offset
    payloads = {
        e[0]: bytes(blob[start + e[1] : start + e[1] + e[2]]) for e in entries
    }
    return chunk_id, bitmap, [ChunkFile(*e) for e in entries], payloads


def through_decode(blob):
    """What :meth:`Chunk.decode` gives, in :func:`reference_decode`'s
    shape."""
    c = Chunk.decode(blob)
    payloads = {p: c.payload(p, verify=False) for p in c.paths}
    return c.chunk_id, c.deletion_bitmap, list(c.files), payloads


def outcome(read, blob):
    """``("ok", read(blob))``, or ``("error", type, message)`` of what
    it raised."""
    try:
        return "ok", read(blob)
    except (ChunkFormatError, ChunkChecksumError) as e:
        return "error", type(e), str(e)


class TestOneTable:
    """``decode`` fills one path → (offset, length, crc32) table in one
    header walk, ``payload`` is a slice of the blob, and neither builds
    a ``ChunkFile``; differential against ``read_header`` and the rules
    the per-file decoder kept."""

    @settings(max_examples=150, deadline=None)
    @given(file_tables())
    def test_decode_agrees_with_read_header_and_the_rules(self, table):
        rows, data, bitmap = table
        cid = GEN.next()
        blob = _seal(cid, bitmap, [(r[0], r[1:]) for r in rows], [data])[0]
        expect = outcome(reference_decode, blob)
        assert outcome(through_decode, blob) == expect
        # The header-only decode checks the same, against the blob's data
        # section, and the name-length walk agrees on the header's size.
        header = outcome(Chunk.decode_header, blob)
        data_offset = len(blob) - len(data)
        if expect[0] == "ok":
            shell, at = header[1]
            assert list(shell.files) == expect[1][2] and at == data_offset
            c = Chunk.decode(blob)
            assert c.columns() == (
                [r[0] for r in rows], [tuple(r[1:]) for r in rows]
            )
            assert (len(c), c.paths) == (len(rows), tuple(r[0] for r in rows))
            for path, offset, length, crc in rows:
                if zlib.crc32(data[offset : offset + length]) == crc:
                    assert c.payload(path) == data[offset : offset + length]
                else:
                    with pytest.raises(ChunkChecksumError):
                        c.payload(path)
            # encode round-trips byte-equal: the blob itself, and a seal
            # of the table from a copy of the data section.
            assert c.encode() is blob
            assert Chunk.decode(bytearray(blob)).encode() == blob
            rebuilt = Chunk(c.chunk_id, c.files, bytes(c.data), c.deletion_bitmap)
            assert rebuilt.encode() == blob
        else:
            assert header == expect
        assert Chunk.header_size(blob) == data_offset
        names = [r[0] for r in rows]
        kept = None
        for path in names:
            index, header, kept = Chunk.locate(blob, path, kept)
            assert (index, len(header)) == (names.index(path), data_offset)
        # A cut anywhere — in the header or the data section — fails, or
        # succeeds, as the reference does, with its error and message;
        # the header-size walk raises read_header's error, message too.
        for cut in range(len(blob)):
            short = blob[:cut]
            assert outcome(through_decode, short) == outcome(
                reference_decode, short
            )
            if cut < data_offset:
                assert outcome(Chunk.header_size, short) == outcome(
                    Chunk.read_header, short
                )

    def test_a_corrupted_resident_byte_is_caught(self):
        c = make_chunk()
        flipped = bytes([ord("z") ^ 0x5A])
        # A byte flipped in the blob before decode: the slice reads it.
        blob = bytearray(c.encode())
        blob[-1] ^= 0x5A
        restored = Chunk.decode(bytes(blob))
        with pytest.raises(ChunkChecksumError):
            restored.payload("/b/z")
        assert restored.payload("/b/z", verify=False) == b"zzzzz" + flipped
        # A byte flipped in a decoded chunk's buffer after decode: the
        # read sees it, so it reads the buffer, not a copy taken earlier.
        blob = bytearray(c.encode())
        resident = Chunk.decode(blob)
        assert resident.payload("/b/z") == b"zzzzzz"
        blob[-1] ^= 0x5A
        with pytest.raises(ChunkChecksumError):
            resident.payload("/b/z")
        assert resident.payload("/b/z", verify=False) == b"zzzzz" + flipped
        assert resident.payload("/a/x") == b"xxxx"

    def test_the_read_path_builds_no_chunk_file(self, monkeypatch):
        items = [(f"/d{i % 3}/f{i}", bytes([i]) * i) for i in range(20)]
        blob = Chunk.build(GEN.next(), items).encode()
        built = [0]

        def count(self):
            built[0] += 1

        monkeypatch.setattr(ChunkFile, "__post_init__", count)
        packed = Chunk.pack(GEN.next(), items)
        chunk = Chunk.decode(blob)
        for path, data in items:
            assert path in chunk
            assert chunk.payload(path) == data
            assert chunk.payload(path, verify=False) == data
        assert len(chunk) == len(packed) == 20 and chunk.columns()
        Chunk.decode_header(blob)
        Chunk.header_size(blob)
        packed.encode()
        assert built[0] == 0
        # The counter does see the lazy build, once, on first access.
        assert chunk.files is chunk.files and built[0] == 20


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
