"""Real wall-clock micro-benchmarks of the library's hot paths.

Unlike the registered experiments (which reproduce the paper's
simulated figures behind ``python -m repro.bench.runner``), these measure the actual Python implementation: chunk
encode/decode throughput, a window read by extent, snapshot serialization, O(1) snapshot lookups,
chunk-wise shuffle generation, consistent-hash lookups, KV prefix scans,
and the server's metadata write path (chunk ingest, tombstone delete).
They guard the data structures the simulation's fidelity rests on.
"""

import random

import pytest

from repro.bench.setups import deploy, warmed_task
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
def test_window_chunk_read(benchmark):
    """A window read: verify a fetched 128-file chunk's header (no file
    table) and read every file by its snapshot extent."""
    chunk = make_chunk(n_files=128)
    blob, encoded = chunk.encode(), chunk.chunk_id.encode()
    extents = [(f.offset, f.length) for f in chunk.files]

    def read_all():
        view = Chunk.fetched(blob, encoded)
        return [view.extent(offset, length) for offset, length in extents]

    payloads = benchmark(read_all)
    assert payloads == [chunk.payload(p) for p in chunk.paths]
    per_file = benchmark.stats["mean"] / 128
    assert per_file < 2e-6, f"window read too slow: {per_file:.2e}s/file"


@pytest.mark.benchmark(group="micro-chunk")
def test_window_hit_read(benchmark):
    """A window hit through the kernel: ``CacheReader.read`` of a file
    whose chunk the §4.3 window holds (the index's extent, one window
    lookup, the tier's credit, one ``WINDOW_HIT_S`` timeout, the extent
    copy), for each of a resident group's files, in one process."""
    files = {f"/w/f{i:04d}": bytes([i % 256]) * 1024 for i in range(512)}
    tb = deploy(1, "bench", files, 64 * 1024, n_storage=1)
    task = warmed_task(tb, "bench", tb.compute_nodes, "w", group_size=4)
    reader = task.make_readers()[0]
    env = tb.env
    order = env.run(until=env.process(reader.begin_epoch(0)))
    paths = order[:len(reader.last_plan.groups[0].files)]

    def read_all():
        def proc():
            for path in paths:
                yield from reader.read(path)

        env.run(until=env.process(proc()))

    read_all()  # the group's first accesses: its chunks come in
    resident = reader.window.chunks.entries
    assert all(task.index.locate(p)[0] in resident for p in paths)
    scored = task.cache.readahead.to_dict()
    benchmark.pedantic(read_all, rounds=50, iterations=1)
    assert task.cache.readahead.to_dict() == scored  # repeats score nothing
    per_file = benchmark.stats["mean"] / len(paths)
    benchmark.extra_info["us_per_file"] = round(per_file * 1e6, 3)
    assert per_file < 4e-6, f"window hit too slow: {per_file:.2e}s/file"


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
    """The columnar decode path alone (no index build): one numpy view
    of the entry section, one split over the NUL-joined path section."""
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
def test_snapshot_apply_delta_chunk_entries(benchmark):
    """A refresh's delta on an ingesting dataset: 30 chunk ingests'
    entries of 250 new paths each (and each one's chunk add), applied
    to a 20k-file index — the shape ``refresh_meta`` meets on
    ``ingest_meta``.  A fresh index each round, one that has already
    copied the columns it shared with its snapshot (a copy the first
    delta makes once)."""
    from repro.core.meta_journal import chunk_entry

    base = make_snapshot()
    bodies = []
    for e in range(30):
        cid = GEN.next()
        paths = [f"/ds/late{e}/d{i % 10}/img{i:05d}.jpg".encode()
                 for i in range(250)]
        records = FileRecord.pack_many(
            paths, cid.raw, [(i * 4096, 4096, i) for i in range(250)]
        )
        bodies.append(chunk_entry(base.update_ts + 1 + e, paths, records, cid.raw))

    def fresh():
        index = SnapshotIndex(base)
        index.apply_delta([])
        return (index,), {}

    def apply(index):
        return index.apply_delta(bodies)

    benchmark.pedantic(apply, setup=fresh, rounds=30, iterations=1)
    per_op = benchmark.stats["mean"] / (30 * 251)
    benchmark.extra_info["us_per_op"] = round(per_op * 1e6, 3)
    benchmark.extra_info["median_us_per_op"] = round(
        benchmark.stats["median"] / (30 * 251) * 1e6, 3
    )
    assert per_op < 3e-6, f"chunk entry apply too slow: {per_op:.2e}s/op"


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
    per_file = benchmark.stats["mean"] / 20_000
    assert per_file < 2e-7, f"shuffle too slow: {per_file:.2e}s/file"


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


@pytest.mark.benchmark(group="micro-kv")
def test_kv_pscan_after_writes(benchmark):
    """A narrow scan between writes, as ``ls`` meets one on an ingesting
    dataset: a 12k-key table of 120 directories' entries, and before
    each scan of one directory 100 new keys across all of them and 3
    deletes.  ``test_kv_pscan`` builds its index before timing, so it
    cannot see what the writes since the last scan cost the next one."""
    from repro.core import meta

    table = KVTable()
    dirs = [f"/r{d // 10:03d}/d{d % 10}" for d in range(120)]
    table.put_many(
        [meta.dir_entry_key("ds", d, f"f{i:05d}.bin", False)
         for i in range(100) for d in dirs],
        [b""] * 12_000,
    )
    table.keys()  # the index exists, as it does after a set-up's scans
    rng = random.Random(0)
    rounds = iter(range(10**6))

    def writes():
        r = next(rounds)
        new = [meta.dir_entry_key("ds", rng.choice(dirs), f"n{r}-{i}.bin", False)
               for i in range(100)]
        prefix = meta.dir_scan_prefix("ds", rng.choice(dirs), "f")
        return (new, rng.sample(new, 3), prefix), {}

    def write_then_scan(new, gone, prefix):
        table.put_many(new, [b""] * 100)
        for key in gone:
            table.delete(key)
        return table.pscan(prefix)

    benchmark.pedantic(write_then_scan, setup=writes, rounds=200, iterations=1)
    # The mean carries the rounds that merge runs (a few times the
    # rest); the median shows the scan that merges none.
    per_scan = benchmark.stats["mean"]
    benchmark.extra_info["us_per_round"] = round(per_scan * 1e6, 1)
    benchmark.extra_info["median_us_per_round"] = round(
        benchmark.stats["median"] * 1e6, 1
    )
    assert per_scan < 2e-4, f"scan after writes too slow: {per_scan:.2e}s"


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
    (record, directory entry) routed as ``ShardedKV.local_put_many``
    routes them — ``kv.slots``, Redis's CRC16 of each key mod the slot
    count in one pass of C-level maps.  Checked against ``kv.slot`` of
    each key."""
    from repro.core import meta

    tb = deploy(1)
    keys = [
        key for i in range(256) for key in (
            meta.file_key("bench", f"/late/d{i % 8}/f{i:05d}.bin"),
            meta.dir_entry_key("bench", f"/late/d{i % 8}", f"f{i:05d}.bin", False),
        )
    ]
    assert benchmark(tb.kv.slots, keys) == list(map(tb.kv.slot, keys))
    per_file = benchmark.stats["mean"] / 256
    assert per_file < 5.5e-6, f"KV slots too slow: {per_file:.2e}s/file"


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
def test_stat_file(benchmark):
    """Server ``stat`` of a file through the metadata RPC, 64 per round
    across a 64-chunk dataset: one routed KV point get and the record's
    tail read."""
    tb, chunks = make_metadata_server(n_chunks=64)
    rng = random.Random(0)
    paths = [f.path for chunk in chunks for f in chunk.files]
    node = tb.compute_nodes[0]

    def stat_batch():
        def proc():
            for path in rng.sample(paths, 64):
                st = yield from tb.diesel.call(node, "stat", "bench", path)
                assert st["size"] == 64

        tb.run(proc())

    benchmark.pedantic(stat_batch, rounds=20, iterations=1)
    per_op = benchmark.stats["mean"] / 64
    benchmark.extra_info["ops_per_s"] = round(1 / per_op)
    assert per_op < 1e-4, f"stat too slow: {per_op:.2e}s/op"


@pytest.mark.benchmark(group="micro-metadata")
def test_delete_file(benchmark):
    """Tombstone deletes through the server RPC, 32 per round across 64
    chunks: the KV chunk record's bit and count patched as bytes, the
    file's index from the kept header table (or one header walk), a
    header-sized patch held as the object's pending head, the dataset
    version bump and the journal entry."""
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


@pytest.mark.benchmark(group="micro-metadata")
def test_delete_file_one_large_chunk(benchmark):
    """100 tombstones into one 1 MiB, 256-file chunk: per delete, one
    header walk at most (the first), no copy of the chunk and no record
    decode; a fresh server each round."""
    state = {}

    def fresh():
        tb, (chunk,) = make_metadata_server(n_chunks=1, file_size=4096)
        state.update(tb=tb, chunk=chunk)
        return (tb, iter(chunk.paths[:100])), {}

    def delete_100(tb, victims):
        def proc():
            for path in victims:
                yield from tb.diesel.call(
                    tb.compute_nodes[0], "delete_file", "bench", path)

        tb.run(proc())

    benchmark.pedantic(delete_100, setup=fresh, rounds=10, iterations=1)
    per_op = benchmark.stats["mean"] / 100
    benchmark.extra_info["ops_per_s"] = round(1 / per_op)
    assert per_op < 3e-4, f"delete_file into a 1 MiB chunk too slow: {per_op:.2e}s/op"
    tb, chunk = state["tb"], state["chunk"]
    assert chunk.data_size == 1 << 20
    stored = Chunk.decode(tb.store.peek(object_key("bench", chunk.chunk_id)))
    assert stored.deletion_bitmap.count() == 100
