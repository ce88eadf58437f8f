"""The metadata write plane writes each key once and charges what the
chunk implies (docs/METADATA.md "Write path").

* the KV contents and the returned pair count of ``ingest_metadata``
  equal the per-file reference expansion (``meta.directory_entry_pairs``
  per live file), over random path sets;
* the work is per directory, per header and constant per dataset —
  counted, not timed;
* a tombstone is an in-place header patch that keeps every check the
  decode-and-re-encode it replaced made.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import meta
from repro.core import meta_journal as mj
from repro.core import server as server_module
from repro.core.chunk import Chunk
from repro.core.server import object_key
from repro.errors import ChunkChecksumError, ChunkFormatError
from repro.kvstore.kv import KVTable
from repro.util import hashing
from repro.util.bitmap import Bitmap
from repro.util.ids import ChunkId, ChunkIdGenerator

from tests.core.conftest import build_deployment, write_dataset

DS = "ds"

name = st.text(
    alphabet=st.characters(
        blacklist_characters="/\0", blacklist_categories=("Cs",)
    ),
    min_size=1,
    max_size=5,
).filter(lambda s: s not in (".", ".."))
# A small pool of directory names makes shared ancestors likely; free
# text (unicode, dotted names) makes disjoint ones.
component = st.one_of(st.sampled_from(["a", "b", "train", "é", ".git"]), name)
canonical_path = st.lists(component, min_size=1, max_size=5).map(
    lambda parts: "/" + "/".join(parts)
)
path_sets = st.lists(canonical_path, min_size=1, max_size=12, unique=True)


def reference_pairs(chunk, ts, chunk_ids, data_size=None):
    """What the chunk implies, expanded per file: ``(distinct pairs,
    pair count)``, journal keys excluded."""
    pairs, count = {}, 0
    for i, f in enumerate(chunk.files):
        if chunk.deletion_bitmap.get(i):
            continue
        rec = meta.FileRecord(f.path, chunk.chunk_id, f.offset, f.length, f.crc32)
        expansion = [(meta.file_key(DS, f.path), rec.encode())]
        expansion += meta.directory_entry_pairs(DS, f.path)
        pairs.update(expansion)
        count += len(expansion)
    crec = meta.ChunkRecord(
        chunk.chunk_id, ts,
        chunk.data_size if data_size is None else data_size,
        len(chunk.files), chunk.deleted_count, chunk.deletion_bitmap.copy(),
    )
    pairs[meta.chunk_key(DS, chunk.chunk_id)] = crec.encode()
    pairs[meta.dataset_key(DS)] = meta.DatasetRecord(
        DS, ts, tuple(sorted(chunk_ids))
    ).encode()
    return pairs, count + 2


def metadata_pairs(kv):
    """Every pair but the journal's and the registry's."""
    return {
        k: v for k, v in kv.local_pscan("")
        if not k.startswith(("jr:", "jrm:", "reg:"))
    }


def tombstoned(chunk, dead):
    bitmap = Bitmap(len(chunk.files))
    for i in dead:
        bitmap.set(i)
    return Chunk(chunk.chunk_id, chunk.files, chunk.data, bitmap)


class TestAgainstThePerFileExpansion:
    @settings(max_examples=60, deadline=None)
    @given(
        first=path_sets,
        second=path_sets,
        dead=st.sets(st.integers(0, 11)),
        header_only=st.booleans(),
        newest_first=st.booleans(),
    )
    def test_kv_contents_and_pair_count(
        self, first, second, dead, header_only, newest_first
    ):
        dep = build_deployment()
        server = dep.server
        ids = list(ChunkIdGenerator(machine=b"\x07" * 6, pid=3).take(2))
        if newest_first:
            ids.reverse()  # the second id splices in *before* the first
        expected: dict[str, bytes] = {}
        seen: list[ChunkId] = []
        for ts, (cid, paths) in enumerate(zip(ids, (first, second)), start=1):
            chunk = Chunk.build(
                cid, [(p, p.encode("utf-8") * 3) for p in paths]
            )
            chunk = tombstoned(chunk, {i for i in dead if i < len(paths)})
            data_size = None
            if header_only:
                data_size = chunk.data_size
                chunk, _ = Chunk.decode_header(chunk.encode())
            seen.append(cid)
            pairs, count = reference_pairs(chunk, ts, seen, data_size)
            # A later chunk overwrites an earlier one's records of the
            # same paths, exactly as the per-file writes would.
            expected.update(pairs)
            assert server.ingest_metadata(DS, chunk, data_size) == count + 2
            assert metadata_pairs(dep.kv) == expected
            # A wrong carried hash state would strand a key on a shard
            # ``local_get`` never asks.
            for inst in dep.kv.instances:
                assert all(dep.kv.owner(k) is inst for k in inst.table.keys())
            (blob,) = server.journal.entries_since(DS, ts - 1)
            ops = [
                mj.JournalOp(
                    mj.OP_APPEND, f.path, expected[meta.file_key(DS, f.path)]
                )
                for i, f in enumerate(chunk.files)
                if not chunk.deletion_bitmap.get(i)
            ]
            ops.append(mj.JournalOp(mj.OP_CHUNK_ADD, "", cid.raw))
            assert blob == mj.JournalEntry(ts, tuple(ops)).encode()

    @settings(max_examples=60, deadline=None)
    @given(
        have=st.sets(st.integers(0, 40), max_size=12),
        add=st.integers(0, 40),
        ts=st.integers(0, 2**40),
    )
    def test_bump_is_the_decoded_path_on_bytes(self, have, add, ts):
        ids = list(ChunkIdGenerator(machine=b"\x08" * 6, pid=4).take(41))
        rec = meta.DatasetRecord("données", ts, tuple(ids[i] for i in sorted(have)))
        blob = rec.encode()
        assert meta.DatasetRecord.bump(blob) == (
            ts + 1, meta.DatasetRecord(rec.name, ts + 1, rec.chunk_ids).encode()
        )
        assert meta.DatasetRecord.bump(blob, add=ids[add]) == (
            ts + 1, rec.with_chunks([ids[add]], ts + 1).encode()
        )


def depth3_chunk(cid, n_files=256, n_dirs=8):
    return Chunk.build(cid, [
        (f"/r000/d{i % n_dirs}/f{i:05d}.bin", b"x" * 16) for i in range(n_files)
    ])


def counting(monkeypatch, owner, attr):
    """Count calls of ``owner.attr`` from here on; returns the counter."""
    calls = [0]
    inner = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestWorkIsCountedNotTimed:
    """Deterministic guards: each fails at the parent commit."""

    N_FILES, N_DIRS = 256, 8

    def test_hashes_and_puts_for_one_depth3_chunk(self, monkeypatch):
        dep = build_deployment()
        chunk = depth3_chunk(ChunkIdGenerator(b"\x09" * 6, 5).next(),
                             self.N_FILES, self.N_DIRS)
        meta.dir_hash.cache_clear()
        hashed = [0]  # bytes fed to the hash: calls no longer bound the work
        fnv = hashing.fnv1a_64

        def counted(data, *state):
            hashed[0] += len(data.encode("utf-8") if isinstance(data, str) else data)
            return fnv(data, *state)

        for module in (hashing, server_module):
            monkeypatch.setattr(module, "fnv1a_64", counted)
        puts = counting(monkeypatch, KVTable, "put")
        dep.server.ingest_metadata(DS, chunk)
        # Two keys per file (its record, its directory entry) are hashed
        # for their KV slot over the basename alone, each continuing a
        # state its directory's keys share; every directory — the eight
        # leaves, /r000 — costs its two key prefixes, its own hash and
        # its link's key; the chunk, dataset, journal and registry keys
        # are a constant.  (The parent commit fed 2 × Σ len(key) ≈ 16 kB.)
        basenames = sum(len(f.path.rpartition("/")[2]) for f in chunk.files)
        directories = self.N_DIRS + 1
        assert 2 * basenames <= hashed[0]
        assert hashed[0] <= 2 * basenames + 128 * directories + 256
        # Nothing is written twice: one put per key the store now holds.
        assert puts[0] == dep.kv.total_keys()
        assert puts[0] == 2 * self.N_FILES + directories + 2 + 2 + 1

    def test_load_meta_delta_builds_no_journal_op(self, monkeypatch):
        dep = build_deployment()
        gen = ChunkIdGenerator(b"\x0c" * 6, 8)
        for _ in range(3):
            dep.server.ingest_metadata(DS, depth3_chunk(gen.next(), 16, 2))
        built = counting(monkeypatch, mj.JournalOp, "__post_init__")
        resp = dep.run(dep.server.call(
            dep.client_nodes[0], "load_meta_delta", DS, 0
        ))
        assert resp["mode"] == "delta" and len(resp["entries"]) == 3
        assert built[0] == 0
        mj.JournalEntry.decode(resp["entries"][0])
        assert built[0] == 17  # the counter does see the decoder's ops

    @pytest.mark.parametrize("op", ["ingest_chunk", "delete_file"])
    def test_chunk_id_constructions_do_not_grow_with_the_dataset(
        self, op, monkeypatch
    ):
        def constructions(n_chunks):
            dep = build_deployment()
            gen = ChunkIdGenerator(b"\x0a" * 6, 6)
            for c in range(n_chunks):
                dep.server.ingest_metadata(DS, Chunk.build(
                    gen.next(), [(f"/c{c:03d}/f{i}", b"y") for i in range(4)]
                ))
            victim = Chunk.build(
                gen.next(), [(f"/victim/f{i}", b"z") for i in range(4)]
            )
            if op == "delete_file":
                dep.store.load(
                    [(object_key(DS, victim.chunk_id), victim.encode())]
                )
                dep.server.ingest_metadata(DS, victim)
                args = ("delete_file", DS, "/victim/f2")
            else:
                args = ("ingest_chunk", DS, victim.encode())
            with monkeypatch.context() as m:
                made = counting(m, ChunkId, "__post_init__")
                dep.run(dep.server.call(dep.client_nodes[0], *args))
            assert len(dep.server.dataset_info(DS).chunk_ids) == n_chunks + 1
            return made[0]

        small, large = constructions(4), constructions(64)
        assert small == large
        assert small <= 4


@pytest.fixture
def one_chunk():
    """A deployment holding one six-file chunk; ``(dep, key, files)``."""
    dep = build_deployment()
    files = {f"/t/d{i % 2}/f{i}.bin": bytes([65 + i]) * 300 for i in range(6)}
    write_dataset(dep, DS, files, chunk_size=1024 * 1024)
    (key,) = dep.store.list_keys()
    return dep, key, files


def delete(dep, path):
    return dep.server.call(dep.client_nodes[0], "delete_file", DS, path)


class TestTombstonePatch:
    def test_stored_blob_is_the_reencoded_chunk(self, one_chunk):
        dep, key, files = one_chunk
        before = Chunk.decode(dep.store.peek(key))
        victim = list(files)[3]
        written = dep.store.device.stats.write_bytes
        dep.run(delete(dep, victim))
        bitmap = Bitmap(len(before.files))
        bitmap.set(before.index_of(victim))
        expected = Chunk(before.chunk_id, before.files, before.data, bitmap)
        stored = dep.store.peek(key)
        assert stored == expected.encode()
        after = Chunk.decode(stored)
        assert after.is_deleted(victim) and after.deleted_count == 1
        assert after.payload(list(files)[4]) == files[list(files)[4]]
        # Charged as the header write it models, to the same device.
        assert dep.store.device.stats.write_bytes - written == len(
            expected.header_bytes()
        )

    def test_two_deletes_interleaved_across_the_device_write(self, one_chunk):
        dep, key, files = one_chunk
        a, b = list(files)[1], list(files)[4]
        procs = [dep.env.process(delete(dep, p)) for p in (a, b)]
        dep.env.run(until=dep.env.all_of(procs))
        stored = Chunk.decode(dep.store.peek(key))
        assert stored.is_deleted(a) and stored.is_deleted(b)
        assert stored.deleted_count == 2
        crec = dep.server._chunk_record(DS, stored.chunk_id)
        assert crec.bitmap == stored.deletion_bitmap
        assert dep.server.dataset_info(DS).update_ts == 3

    def test_flipped_header_byte_fails_the_checksum(self, one_chunk):
        dep, key, files = one_chunk
        blob = bytearray(dep.store.peek(key))
        _, data_offset = Chunk.decode_header(bytes(blob))
        blob[data_offset - 5] ^= 0x40  # last entry's crc32 field
        dep.store.load([(key, bytes(blob))])
        with pytest.raises(ChunkChecksumError):
            dep.run(delete(dep, list(files)[0]))
        # Nothing was tombstoned on the way to the error.
        cid = dep.server.dataset_info(DS).chunk_ids[0]
        assert dep.server._chunk_record(DS, cid).ndeleted == 0

    def test_bad_magic_and_truncation_are_format_errors(self, one_chunk):
        dep, key, files = one_chunk
        blob = dep.store.peek(key)
        for broken in (b"XSL1" + blob[4:], blob[:40]):
            dep.store.load([(key, broken)])
            with pytest.raises(ChunkFormatError):
                dep.run(delete(dep, list(files)[0]))

    def test_path_the_header_does_not_hold_is_a_format_error(self, one_chunk):
        dep, key, files = one_chunk
        cid = dep.server.dataset_info(DS).chunk_ids[0]
        # A file record pointing at a chunk that never held the path.
        dep.kv.local_put(
            meta.file_key(DS, "/t/d0/ghost"),
            meta.FileRecord("/t/d0/ghost", cid, 0, 1, 0).encode(),
        )
        with pytest.raises(ChunkFormatError, match="ghost"):
            dep.run(delete(dep, "/t/d0/ghost"))
        assert dep.store.peek(key) == Chunk.decode(dep.store.peek(key)).encode()

    def test_with_bitmap_checks_the_bitmap_size(self, one_chunk):
        dep, key, files = one_chunk
        blob = dep.store.peek(key)
        _, header_size = Chunk.find_in_header(blob, list(files)[0])
        with pytest.raises(ChunkFormatError):
            Chunk.with_bitmap(blob, Bitmap(len(files) + 1), header_size)

    @settings(max_examples=40, deadline=None)
    @given(paths=path_sets, data=st.data())
    def test_find_and_patch_match_decode_and_encode(self, paths, data):
        chunk = Chunk.build(
            ChunkIdGenerator(b"\x0b" * 6, 7).next(),
            [(p, p.encode("utf-8")) for p in paths],
        )
        blob = chunk.encode()
        target = data.draw(st.sampled_from(paths))
        dead = data.draw(st.sets(st.integers(0, len(paths) - 1)))
        index, header_size = Chunk.find_in_header(blob, target)
        assert index == chunk.index_of(target)
        assert header_size == len(chunk.header_bytes())
        marked = tombstoned(chunk, dead)
        assert Chunk.with_bitmap(
            blob, marked.deletion_bitmap, header_size
        ) == marked.encode()
