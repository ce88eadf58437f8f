"""Real wall-clock micro-benchmarks of the library's hot paths.

Unlike the ``bench_fig*`` files (which reproduce the paper's simulated
experiments), these measure the actual Python implementation: chunk
encode/decode throughput, snapshot serialization, O(1) snapshot lookups,
chunk-wise shuffle generation, consistent-hash lookups, KV prefix scans,
and the server's metadata write path (chunk ingest, tombstone delete).
They guard the data structures the simulation's fidelity rests on.
"""

import random

import pytest

from repro.bench.setups import deploy
from repro.core.chunk import Chunk
from repro.core.meta import FileRecord
from repro.core.server import object_key
from repro.core.shuffle import chunkwise_shuffle
from repro.core.snapshot import MetadataSnapshot, SnapshotIndex, build_snapshot
from repro.kvstore.kv import KVTable
from repro.util.hashing import ConsistentHashRing
from repro.util.ids import ChunkIdGenerator

GEN = ChunkIdGenerator(machine=b"\x0b" * 6, pid=11)


def make_chunk(n_files=256, file_size=4096):
    items = [(f"/bench/f{i:05d}", bytes([i % 256]) * file_size)
             for i in range(n_files)]
    return Chunk.build(GEN.next(), items)


def make_snapshot(n_files=20_000, n_chunks=64):
    cids = sorted(GEN.take(n_chunks))
    files = [
        FileRecord(f"/ds/class{i % 100:03d}/img{i:06d}.jpg",
                   cids[i % n_chunks], (i // n_chunks) * 4096, 4096, i)
        for i in range(n_files)
    ]
    return build_snapshot("bench", 1, files, cids)


@pytest.mark.benchmark(group="micro-chunk")
def test_chunk_encode(benchmark):
    chunk = make_chunk()
    blob = benchmark(chunk.encode)
    assert len(blob) > 256 * 4096


@pytest.mark.benchmark(group="micro-chunk")
def test_chunk_decode(benchmark):
    blob = make_chunk().encode()
    chunk = benchmark(Chunk.decode, blob)
    assert len(chunk) == 256


@pytest.mark.benchmark(group="micro-chunk")
def test_chunk_header_only_decode(benchmark):
    """Recovery's fast path: header decode must not touch payloads."""
    blob = make_chunk().encode()
    shell, _ = benchmark(Chunk.decode_header, blob)
    assert len(shell.files) == 256


@pytest.mark.benchmark(group="micro-snapshot")
def test_snapshot_serialize(benchmark):
    snap = make_snapshot()
    blob = benchmark(snap.serialize)
    assert len(blob) / snap.file_count < 80  # compactness (§4.1.3)


@pytest.mark.benchmark(group="micro-snapshot")
def test_snapshot_load(benchmark):
    blob = make_snapshot().serialize()

    def load():
        return SnapshotIndex(MetadataSnapshot.deserialize(blob))

    index = benchmark(load)
    assert index.file_count == 20_000


@pytest.mark.benchmark(group="micro-snapshot")
def test_snapshot_deserialize(benchmark):
    """The columnar decode path alone (no index build): one
    ``iter_unpack`` sweep over the entry section, one split over the
    NUL-joined path section."""
    blob = make_snapshot().serialize()
    snap = benchmark(MetadataSnapshot.deserialize, blob)
    assert snap.file_count == 20_000
    per_file = benchmark.stats["mean"] / 20_000
    assert per_file < 2e-6, f"snapshot decode too slow: {per_file:.2e}s/file"


@pytest.mark.benchmark(group="micro-snapshot")
def test_snapshot_apply_delta(benchmark):
    """In-place delta application must stay O(delta), not O(dataset).

    One 20k-file index lives across all rounds; each round decodes and
    applies a fresh 100-op journal delta (the versions keep advancing,
    as they would on a training client refreshing mid-epoch).  The time
    bound holds per *op*, on an index 200× the delta's size.
    """
    from repro.core.meta_journal import JournalEntry, JournalOp, OP_APPEND

    base = make_snapshot()
    cid = base.chunk_ids[0]
    index = SnapshotIndex(base)
    bodies = [
        JournalEntry(
            0,  # placeholder ts; re-stamped per round below
            (
                JournalOp(
                    OP_APPEND,
                    f"/ds/late/img{i:04d}.jpg",
                    FileRecord(
                        f"/ds/late/img{i:04d}.jpg", cid, i * 4096, 4096, i
                    ).encode(),
                ),
            ),
        ).encode()[8:]
        for i in range(100)
    ]

    def apply():
        ts = index.update_ts
        entries = [
            (ts + 1 + i).to_bytes(8, "big") + body
            for i, body in enumerate(bodies)
        ]
        return index.apply_delta(entries)

    assert benchmark(apply) == 100
    per_op = benchmark.stats["mean"] / 100
    assert per_op < 2e-5, f"delta apply too slow: {per_op:.2e}s/op"


@pytest.mark.benchmark(group="micro-snapshot")
def test_snapshot_lookup(benchmark):
    """The Fig 10b hot path: must be well under 2µs per lookup."""
    index = SnapshotIndex(make_snapshot())
    paths = index.all_paths()
    rng = random.Random(0)
    sample = [rng.choice(paths) for _ in range(1000)]

    def lookups():
        total = 0
        for p in sample:
            total += index.lookup(p).length
        return total

    assert benchmark(lookups) == 1000 * 4096
    per_lookup = benchmark.stats["mean"] / 1000
    assert per_lookup < 2e-6, f"snapshot lookup too slow: {per_lookup:.2e}s"


@pytest.mark.benchmark(group="micro-shuffle")
def test_chunkwise_shuffle_generation(benchmark):
    index = SnapshotIndex(make_snapshot())
    grouping = index.files_by_chunk()

    plan = benchmark(chunkwise_shuffle, grouping, 8, random.Random(0))
    assert plan.file_count == 20_000


@pytest.mark.benchmark(group="micro-hash")
def test_consistent_hash_lookup(benchmark):
    ring = ConsistentHashRing([f"node{i}" for i in range(20)], replicas=128)
    keys = [f"/img/f{i}" for i in range(1000)]

    def lookups():
        return [ring.lookup(k) for k in keys]

    owners = benchmark(lookups)
    assert len(set(owners)) > 10


@pytest.mark.benchmark(group="micro-kv")
def test_kv_pscan(benchmark):
    table = KVTable()
    for i in range(50_000):
        table.put(f"f:ds:/class{i % 100:03d}/img{i:06d}", b"x" * 40)
    table.keys()  # build the index outside the timed region

    result = benchmark(table.pscan, "f:ds:/class042/")
    assert len(result) == 500


def make_metadata_server(n_chunks=64, n_files=256, file_size=64):
    """A server holding ``n_chunks`` depth-3 chunks of ``n_files`` files
    (stored and ingested); returns ``(testbed, chunks)``."""
    tb = deploy(1)
    chunks = []
    for c in range(n_chunks):
        chunk = Chunk.build(GEN.next(), [
            (f"/r{c:03d}/d{i % 8}/f{i:05d}.bin", bytes([i % 256]) * file_size)
            for i in range(n_files)
        ])
        tb.store.load([(object_key("bench", chunk.chunk_id), chunk.encode())])
        tb.diesel.ingest_metadata("bench", chunk)
        chunks.append(chunk)
    return tb, chunks


@pytest.mark.benchmark(group="micro-metadata")
def test_ingest_metadata(benchmark):
    """Server-side metadata extraction of one 256-file depth-3 chunk
    into a 64-chunk dataset: the per-file cost of the write path."""
    tb, chunks = make_metadata_server()
    late = Chunk.build(GEN.next(), [
        (f"/late/d{i % 8}/f{i:05d}.bin", b"x" * 64) for i in range(256)
    ])
    n_pairs = benchmark(tb.diesel.ingest_metadata, "bench", late)
    # Charged: 256 x (record + 3 entries) + chunk + dataset + 2 journal.
    assert n_pairs == 256 * 4 + 4
    per_file = benchmark.stats["mean"] / 256
    benchmark.extra_info["files_per_s"] = round(1 / per_file)
    assert per_file < 3e-5, f"metadata ingest too slow: {per_file:.2e}s/file"


@pytest.mark.benchmark(group="micro-metadata")
def test_kv_slots_for_a_chunk(benchmark):
    """KV slots for a 256-file depth-3 chunk: the two keys of each file
    (record, directory entry) routed as the write path routes them — the
    FNV state of each directory's two key prefixes carried over the
    basename.  Hashing both keys in full (``kv.slot``, the reference the
    result is checked against) costs ~8 us/file."""
    from repro.core import meta
    from repro.kvstore.sharded import NUM_SLOTS
    from repro.util.hashing import fnv1a_64, mix64

    tb = deploy(1)
    paths = [f"/late/d{i % 8}/f{i:05d}.bin" for i in range(256)]

    def slots():
        out, states = [], {}
        for path in paths:
            parent, _, name = path.rpartition("/")
            carried = states.get(parent)
            if carried is None:
                carried = states[parent] = (
                    fnv1a_64(meta.file_key("bench", parent + "/")),
                    fnv1a_64(meta.dir_scan_prefix("bench", parent, "f")),
                )
            for state in carried:
                out.append(mix64(fnv1a_64(name, state)) % NUM_SLOTS)
        return out

    assert benchmark(slots) == [
        tb.kv.slot(key) for path in paths for key in (
            meta.file_key("bench", path),
            meta.dir_entry_key("bench", *path.rpartition("/")[::2], False),
        )
    ]
    per_file = benchmark.stats["mean"] / 256
    assert per_file < 5.5e-6, f"carried KV slots too slow: {per_file:.2e}s/file"


@pytest.mark.benchmark(group="micro-metadata")
def test_load_meta_delta_server_side(benchmark):
    """``load_meta_delta`` of 16 retained entries (256 files each),
    server side: the stored blobs are forwarded, none decoded."""
    tb, _ = make_metadata_server(n_chunks=16)
    node = tb.compute_nodes[0]

    def serve():
        return tb.run(tb.diesel.call(node, "load_meta_delta", "bench", 0))

    resp = benchmark(serve)
    assert resp["mode"] == "delta" and len(resp["entries"]) == 16
    per_entry = benchmark.stats["mean"] / 16
    assert per_entry < 1e-4, f"delta serve too slow: {per_entry:.2e}s/entry"


@pytest.mark.benchmark(group="micro-metadata")
def test_delete_file(benchmark):
    """Tombstone deletes through the server RPC (KV chunk record, header
    patch in place, dataset version bump, journal), 32 per round."""
    tb, chunks = make_metadata_server(n_chunks=64)
    victims = (f.path for chunk in chunks for f in chunk.files)
    node = tb.compute_nodes[0]

    def delete_batch():
        def proc():
            for _ in range(32):
                yield from tb.diesel.call(
                    node, "delete_file", "bench", next(victims))

        tb.run(proc())

    benchmark.pedantic(delete_batch, rounds=20, iterations=1)
    per_op = benchmark.stats["mean"] / 32
    benchmark.extra_info["ops_per_s"] = round(1 / per_op)
    assert per_op < 6e-4, f"delete_file too slow: {per_op:.2e}s/op"
    assert sum(
        tb.diesel._chunk_record("bench", c.chunk_id).ndeleted for c in chunks
    ) == 20 * 32
