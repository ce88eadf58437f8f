"""The DIESEL server (paper Fig 2–4, §4.1, §5).

A DIESEL server is *stateless* with respect to metadata: it translates
filesystem operations into key-value operations against the shared KV
cluster and chunk operations against the shared object store, so any
number of servers can run side by side (Fig 10a scales 1→3→5 servers
against the same KV backend).

Responsibilities implemented here:

* **ingest** — receive a sealed chunk from a client, store it, extract
  its header into KV pairs (file records, chunk record, directory
  entries) and bump the dataset record (write flow, Fig 3);
* **request executor** — sort + merge batched small-file reads into
  chunk-wise range reads (§4 "The request executor in the DIESEL server
  sorts and merges small file requests to chunk-wise operations");
* **serve reads** — file / chunk / range reads through the (optionally
  tiered) object store (read flow, Fig 4);
* **metadata service** — stat/ls/snapshot generation at a calibrated
  aggregate QPS (:class:`repro.calibration.DieselProfile`);
* **housekeeping** — tombstone deletes, `DL_purge` chunk rewriting,
  dataset removal (§4.1.1, §5).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import add, itemgetter, methodcaller
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.calibration import Calibration, DEFAULT
from repro.core import meta
from repro.core.chunk import Chunk, HeaderTable
from repro.core.config import DieselConfig
from repro.core.meta_journal import (
    OP_CHUNK_DROP,
    JournalOp,
    MetaJournal,
    chunk_entry,
    delete_entry,
)
from repro.core.snapshot import MetadataSnapshot
from repro.errors import (
    ChunkFormatError,
    DatasetNotFoundError,
    DieselError,
    FileNotFoundInDatasetError,
)
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.kvstore.sharded import ShardedKV
from repro.obs.counters import Counters
from repro.objectstore.store import ObjectStore
from repro.objectstore.tiered import TieredStore
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment, Event
from repro.util.ids import ChunkId, decode_chunk_id, sim_id_generator
from repro.util.pathutil import normalize

AnyStore = Union[ObjectStore, TieredStore]

#: Mutation-journal entries retained per dataset (§4.1.3 incremental
#: extension): a client at most this many versions behind refreshes by
#: delta, an older one falls back to a full snapshot reload.
META_JOURNAL_HORIZON = 256
#: Keys per page of the server's paginated prefix scans (snapshot
#: assembly, dataset-removal sweeps).
PSCAN_PAGE_SIZE = 1024

#: Methods that are pure metadata (charged at the metadata service rate).
_META_METHODS = frozenset(
    {
        "stat", "ls", "dataset_ts", "exists", "save_meta", "register",
        "auth", "load_meta_delta", "list_datasets",
    }
)


_SPLIT = methodcaller("rpartition", "/")


def object_key(dataset: str, chunk_id: ChunkId) -> str:
    """Object-store key for a chunk: ``<dataset>/<order-preserving id>``.

    The dataset prefix keeps per-dataset listings contiguous; within a
    dataset, lexicographic order equals written order (§4.1.2).
    """
    return f"{dataset}/{chunk_id.encode()}"


def parse_object_key(key: str) -> tuple[str, ChunkId]:
    """The ``(dataset, chunk id)`` an :func:`object_key` names."""
    dataset, _, encoded = key.rpartition("/")
    return dataset, decode_chunk_id(encoded)


@dataclass(slots=True)
class ServerStats(Counters):
    """Data-path read counters (chunk transfers, batched reads).

    ``chunk_reads`` counts whole-chunk transfers served to clients; the
    ``prefetch`` experiment's claims read it to show the single-flight
    map eliminates duplicate chunk fetches.
    """

    chunk_reads: int = 0
    file_reads: int = 0
    range_reads: int = 0
    #: get_files RPCs served.
    batch_reads: int = 0
    #: Files delivered through batched RPCs.
    batch_files: int = 0
    #: Merged chunk-wise range reads issued for batched RPCs.
    batch_spans: int = 0
    ingests: int = 0
    #: Task registrations served (one per TaskCache.register()).
    registrations: int = 0


class DieselServer:
    """One DIESEL server process bound to a cluster node."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        node: Node,
        kv: ShardedKV,
        store: AnyStore,
        config: DieselConfig | None = None,
        calibration: Calibration = DEFAULT,
        name: str = "diesel0",
        workers: int = 32,
        access_keys: Optional[Dict[str, str]] = None,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.node = node
        self.kv = kv
        self.store = store
        self.config = config or DieselConfig()
        self.cal = calibration
        self.name = name
        self.stats = ServerStats()
        # Delta metadata plane: the journal lives in the shared KV, so
        # every stateless server sees the same one.
        self.journal = MetaJournal(kv, META_JOURNAL_HORIZON)
        #: Optional user→key credentials checked by DL_connect; None
        #: means open access (the default in trusted-cluster deployments).
        self.access_keys = access_keys
        # Two worker pools, as in the real server: a metadata path with a
        # calibrated QPS ceiling (Fig 10a) and a data path whose time is
        # dominated by the object store devices.
        self.meta_endpoint = RpcEndpoint.for_capacity(
            env, fabric, node, f"{name}-meta",
            handler=self._handle,
            qps=self.cal.diesel.server_meta_qps,
            latency_s=self.cal.diesel.server_meta_latency_s,
        )
        self.endpoint = RpcEndpoint(
            env,
            fabric,
            node,
            name,
            handler=self._handle,
            service_s=2e-6,  # dispatch; data time is charged by the store
            workers=workers,
        )
        self._recorder = None
        # Logical dataset version counter (monotone per server group; shared
        # through the KV dataset record, so multiple servers stay coherent).
        self._kv_batch = 128  # records per pipelined KV round trip
        # One generator per server so purge-minted chunk IDs never collide.
        self._idgen = sim_id_generator(self.name, clock=lambda: env.now)
        #: Dataset -> the KV write count when its last snapshot was
        #: assembled, and a weak reference to that snapshot.
        self._snapshots: dict[str, tuple[int, weakref.ref]] = {}
        #: The file table of the chunk header last tombstoned: a delete
        #: into a header it describes walks nothing (``Chunk.locate``).
        self._tombstone_table: Optional[HeaderTable] = None

    @property
    def recorder(self):
        """Attached observability recorder (None = disabled)."""
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        """Propagate the recorder to both RPC worker pools."""
        self._recorder = value
        self.endpoint.recorder = value
        self.meta_endpoint.recorder = value

    # ------------------------------------------------------------------ RPC
    def _handle(self, method: str, *args: Any) -> Any:
        if method not in _METHODS:
            raise DieselError(f"unknown server method {method!r}")
        return getattr(self, "_op_" + method)(*args)

    def call(
        self, client: Node, method: str, *args: Any, **kw: Any
    ) -> Generator[Event, Any, Any]:
        """RPC into this server from ``client`` (generator).

        Metadata methods route through the capacity-limited metadata
        pool; data methods through the I/O worker pool.
        """
        ep = self.meta_endpoint if method in _META_METHODS else self.endpoint
        return ep.call(client, method, *args, **kw)

    def call_batch(
        self, client: Node, calls: Sequence[Tuple], **kw: Any
    ) -> Generator[Event, Any, List[Any]]:
        """Vectorized admission: run ``calls`` — ``(method, *args)``
        tuples — as one batch on the request executor (generator).

        One scheduler entry per arrival batch instead of per request:
        the batch pays one marshalling charge, one transfer, one pool
        entry and one aggregated service charge, while each call's
        handler still runs its full logic in order.  All calls in a
        batch must route to the same pool, so a batch may not mix
        metadata and data methods.
        """
        if not calls:
            raise DieselError("call_batch requires at least one call")
        is_meta = calls[0][0] in _META_METHODS
        if any((c[0] in _META_METHODS) != is_meta for c in calls):
            raise DieselError(
                "call_batch cannot mix metadata and data methods"
            )
        ep = self.meta_endpoint if is_meta else self.endpoint
        return ep.call_batch(client, list(calls), **kw)

    # -------------------------------------------------------------- helpers
    def _kv_pipeline_cost(self, n_records: int) -> float:
        """Simulated time for writing ``n_records`` KV pairs, pipelined.

        The server batches metadata writes to the KV cluster (Redis
        pipelining); effective cost is bounded by the cluster's aggregate
        QPS rather than per-record round trips.
        """
        qps = self.cal.redis.cluster_qps
        round_trips = max(1, n_records // self._kv_batch)
        return n_records / qps + round_trips * self.cal.network.latency_s

    def _dataset_record(self, dataset: str) -> meta.DatasetRecord:
        blob = self.kv.local_get_or_none(meta.dataset_key(dataset))
        if blob is None:
            raise DatasetNotFoundError(dataset)
        return meta.DatasetRecord.decode(blob)

    def _file_record(self, dataset: str, path: str) -> meta.FileRecord:
        blob = self.kv.local_get_or_none(meta.file_key(dataset, path))
        if blob is None:
            raise FileNotFoundInDatasetError(path)
        return meta.FileRecord.decode(blob)

    def _is_current(self, dataset: str, path: str, cid: ChunkId) -> bool:
        """Whether ``path``'s ``f:`` record names chunk ``cid``: whether
        that chunk holds the file's current copy."""
        blob = self.kv.local_get_or_none(meta.file_key(dataset, path))
        return blob is not None and meta.FileRecord.decode(blob).chunk_id == cid

    def _chunk_record(self, dataset: str, cid: ChunkId) -> meta.ChunkRecord:
        blob = self.kv.local_get_or_none(meta.chunk_key(dataset, cid))
        if blob is None:
            raise DieselError(f"missing chunk record for {cid.encode()}")
        return meta.ChunkRecord.decode(blob)

    def ingest_metadata(
        self, dataset: str, chunk: Chunk, data_size: int | None = None
    ) -> int:
        """Write all KV pairs implied by one chunk; returns the pair count.

        Pure metadata mutation (no simulated time) — callers charge
        :meth:`_kv_pipeline_cost` for it.  ``data_size`` overrides the
        chunk's payload size when ingesting from a header-only decode
        (recovery scans read headers, not payloads).

        The count is what the chunk *implies*: per live file its record
        plus one directory entry per path component
        (:func:`meta.directory_entry_pairs`), the chunk and dataset
        records, the journal keys.  What is *written* is each distinct
        key once, in the order that per-file expansion would first have
        written it, all the chunk's keys in one
        :meth:`ShardedKV.local_put_many` (docs/METADATA.md "Write
        path").  The work is by column: each name is encoded once, each
        directory once.
        """
        cid = chunk.chunk_id
        bitmap = chunk.deletion_bitmap
        if data_size is None:
            data_size = chunk.data_size
        cid_raw = cid.raw
        ndeleted = bitmap.count()
        paths, entries = chunk.columns()
        if ndeleted:  # tombstoned files must not resurrect on rescan
            live = [i for i in range(len(paths)) if not bitmap.get(i)]
            paths = [paths[i] for i in live]
            entries = [entries[i] for i in live]
        n = len(paths)
        dirs, _, names = zip(*map(_SPLIT, paths)) if n else ((), (), ())
        leaves = names
        if "" in names:  # a path ending in "/" is its own entry's name
            leaves = [name or path for name, path in zip(names, paths)]
        file_prefix = meta.file_key_prefix(dataset)
        #: Per directory, in first-seen order: its file entries' key
        #: prefix, its path with a trailing "/" in UTF-8, the links into
        #: its ancestors that this chunk writes.
        entry_prefix: dict[str, str] = {}
        head_bytes: dict[str, bytes] = {}
        links: list[list[str]] = []
        linked: set[str] = set()  # directories already linked into their parent
        for d in dict.fromkeys(dirs):
            entry_prefix[d] = meta.dir_scan_prefix(dataset, d or "/", "f")
            head_bytes[d] = (d + "/").encode()
            chain: list[str] = []
            parent = d
            while parent and parent not in linked:
                linked.add(parent)
                parent, _, child = parent.rpartition("/")
                chain.append(meta.dir_entry_key(dataset, parent or "/", child, True))
            links.append(chain)
        path_bytes = list(map(
            add, map(head_bytes.__getitem__, dirs), map(str.encode, names)
        ))
        records = meta.FileRecord.pack_many(path_bytes, cid_raw, entries)
        # Interleave as the per-file expansion writes: each file's record
        # and entry, a directory's links after its first file's pair.
        keys: list = [None] * (2 * n)
        keys[0::2] = map(file_prefix.__add__, paths)
        keys[1::2] = map(add, map(entry_prefix.__getitem__, dirs), leaves)
        values: list[bytes] = [b""] * (2 * n)
        values[0::2] = records
        if any(links):
            first = dict(zip(reversed(dirs), range(n - 1, -1, -1)))
            after = [
                (2 * first[d] + 2, chain)
                for d, chain in zip(entry_prefix, links) if chain
            ]
            for at, chain in reversed(after):
                keys[at:at] = chain
                values[at:at] = [b""] * len(chain)
        ds_key = meta.dataset_key(dataset)
        old = self.kv.local_get_or_none(ds_key)
        if old is None:
            ts, dsrec = 1, meta.DatasetRecord(dataset, 1, (cid,)).encode()
        else:
            ts, dsrec = meta.DatasetRecord.bump(old, add=cid)
        crec = meta.ChunkRecord(
            cid, ts, data_size, len(chunk), ndeleted, bitmap.copy()
        )
        keys += (meta.chunk_key(dataset, cid), ds_key)
        values += (crec.encode(), dsrec)
        self.kv.local_put_many(keys, values)
        n_journal = self.journal.record_encoded(
            dataset, ts, chunk_entry(ts, path_bytes, records, cid_raw)
        )
        implied = 2 + n + "".join(paths).count("/")
        return implied + n_journal

    # ------------------------------------------------------------ operations
    def _op_ingest_chunk(
        self, dataset: str, chunk_bytes: bytes
    ) -> Generator[Event, Any, str]:
        """Write flow (Fig 3): store the chunk, extract metadata to KV.

        The object write is journaled: the client's ingest is acked once
        the chunk hits the replicated journal; the NVMe flush proceeds in
        the background (still occupying the device, so concurrent reads
        feel it).  This is how the paper writes ImageNet-1K (~150 GB)
        "within only 3 seconds" (§6.2).
        """
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        chunk = Chunk.decode(chunk_bytes)
        # The header's paths become keys as they are: hold the sender to
        # the canonical form its chunk builder writes.
        if any(normalize(p) != p for p in chunk.paths):
            raise ChunkFormatError("chunk header holds a non-canonical path")
        cid = chunk.chunk_id
        key = object_key(dataset, cid)
        yield self.env.timeout(
            len(chunk_bytes) / self.cal.diesel.ingest_journal_bps
        )
        flush = self.store.put_journaled(key, chunk_bytes)
        self.env.process(flush, name=f"flush:{cid.encode()[:8]}")
        n_pairs = self.ingest_metadata(dataset, chunk)
        yield self.env.timeout(self._kv_pipeline_cost(n_pairs))
        self.stats.ingests += 1
        if rec is not None:
            rec.record("ingest", "objectstore", self.env.now - t0,
                       actor=self.name, bytes=len(chunk_bytes))
        return cid.encode()

    def _read_range(
        self, key: str, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        result = yield from self.store.get_range(key, offset, length)
        if rec is not None:
            rec.record("range_read", "objectstore", self.env.now - t0,
                       actor=self.name, bytes=length)
        return result

    def _header_size(self, chunk_bytes_key: str) -> int:
        # Range reads address the data section; its start is where the
        # header ends.
        return Chunk.header_size(self.store.peek(chunk_bytes_key))

    def _op_get_file(
        self, dataset: str, path: str
    ) -> Generator[Event, Any, bytes]:
        """Read one file: KV lookup + chunk range read."""
        rec = self._file_record(dataset, normalize(path))
        yield self.env.timeout(1.0 / self.cal.redis.cluster_qps)
        key = object_key(dataset, rec.chunk_id)
        data_offset = self._header_size(key)
        payload = yield from self._read_range(
            key, data_offset + rec.offset, rec.length
        )
        self.stats.file_reads += 1
        return payload

    def _op_get_files(
        self, dataset: str, paths: Sequence[str]
    ) -> Generator[Event, Any, Dict[str, bytes]]:
        """Batched multi-get: the RPC behind the client's ``get_many()``.

        The request executor: files are sorted by (chunk, offset) and
        each resident chunk is read once (one merged range per chunk),
        however many of its files the batch asks for, so a shuffled
        mini-batch that shares chunks costs a handful of large reads.
        """
        records = [
            (p, self._file_record(dataset, normalize(p))) for p in paths
        ]
        yield self.env.timeout(len(records) / self.cal.redis.cluster_qps)
        records.sort(key=lambda pr: (pr[1].chunk_id, pr[1].offset))
        out: Dict[str, bytes] = {}
        spans = 0
        i = 0
        while i < len(records):
            cid = records[i][1].chunk_id
            j = i
            # Collect the run of files in this chunk and merge their span.
            while j < len(records) and records[j][1].chunk_id == cid:
                j += 1
            run = records[i:j]
            start = min(r.offset for _, r in run)
            end = max(r.offset + r.length for _, r in run)
            key = object_key(dataset, cid)
            data_offset = self._header_size(key)
            span = yield from self._read_range(key, data_offset + start, end - start)
            for p, r in run:
                out[p] = span[r.offset - start : r.offset - start + r.length]
            spans += 1
            i = j
        self.stats.batch_reads += 1
        self.stats.batch_files += len(records)
        self.stats.batch_spans += spans
        return out

    def _op_get_file_range(
        self, dataset: str, path: str, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        """Partial file read (POSIX pread through FUSE, §5).

        Reads past EOF are clamped, matching read(2) semantics.
        """
        rec = self._file_record(dataset, normalize(path))
        if offset < 0 or length < 0:
            raise DieselError("offset and length must be non-negative")
        yield self.env.timeout(1.0 / self.cal.redis.cluster_qps)
        offset = min(offset, rec.length)
        length = min(length, rec.length - offset)
        if length == 0:
            return b""
        key = object_key(dataset, rec.chunk_id)
        data_offset = self._header_size(key)
        payload = yield from self._read_range(
            key, data_offset + rec.offset + offset, length
        )
        self.stats.range_reads += 1
        return payload

    def _op_get_chunk(
        self, dataset: str, encoded_cid: str
    ) -> Generator[Event, Any, bytes]:
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        key = f"{dataset}/{encoded_cid}"
        blob = yield from self.store.get(key)
        self.stats.chunk_reads += 1
        if rec is not None:
            rec.record("chunk_read", "objectstore", self.env.now - t0,
                       actor=self.name, bytes=len(blob))
        return blob

    def _op_stat(self, dataset: str, path: str) -> dict:
        """A file's length and chunk from its record's tail (no record
        built), else a directory probe."""
        path = normalize(path)
        blob = self.kv.local_get_or_none(meta.file_key(dataset, path))
        if blob is not None:
            raw, _, length, _ = meta.RECORD_TAIL.unpack_from(
                blob, len(blob) - meta.RECORD_TAIL.size
            )
            cid = ChunkId(raw)
            return {
                "path": path,
                "is_dir": False,
                "size": length,
                "chunk_id": cid.encode(),
                # Table 3: DL_stat returns "file size, upload time, etc.";
                # the upload second is embedded in the chunk ID (Table 1).
                "upload_time": cid.timestamp,
            }
        # Directory probe: any entries under it?
        if path == "/" or self._op_ls(dataset, path):
            return {"path": path, "is_dir": True, "size": 0,
                    "chunk_id": None, "upload_time": None}
        raise FileNotFoundInDatasetError(path)

    def _op_ls(self, dataset: str, path: str) -> list[str]:
        """readdir = pscan hash(dir)/d ∪ pscan hash(dir)/f (§4.1.1).

        Each shard's range of each prefix is read as one slice of its
        key index; the names are sorted once.
        """
        names: list[str] = []
        for kind in ("d", "f"):
            prefix = meta.dir_scan_prefix(dataset, path, kind)
            cut = len(prefix)
            names += [key[cut:] for key in self.kv.local_keys(prefix)]
        names.sort()
        return names

    def _op_exists(self, dataset: str, path: str) -> bool:
        key = meta.file_key(dataset, normalize(path))
        return self.kv.local_get_or_none(key) is not None

    def _op_dataset_ts(self, dataset: str) -> int:
        return self._dataset_record(dataset).update_ts

    def _op_auth(self, user: str, key: str) -> bool:
        """DL_connect credential check (Table 3: user, key)."""
        if self.access_keys is None:
            return True
        return self.access_keys.get(user) == key

    def _op_register(self, dataset: str) -> dict:
        """Task registration: returns dataset summary for cache planning."""
        rec = self._dataset_record(dataset)
        self.stats.registrations += 1
        return {
            "dataset": dataset,
            "update_ts": rec.update_ts,
            "chunk_ids": [c.encode() for c in rec.chunk_ids],
        }

    def _op_save_meta(self, dataset: str) -> Generator[Event, Any, bytes]:
        """Materialize the dataset's metadata snapshot (§4.1.3)."""
        snapshot = self.build_snapshot(dataset)
        yield self.env.timeout(self._kv_pipeline_cost(snapshot.file_count))
        return snapshot.serialize()

    def build_snapshot(self, dataset: str) -> MetadataSnapshot:
        """Assemble the snapshot from KV (no simulated cost; see save_meta).

        File records stream in via paginated pscan so assembling a huge
        dataset's snapshot holds one page at a time, not the whole
        keyspace slice.  A snapshot is immutable: while no KV write has
        happened since this server last assembled one for ``dataset``
        and some holder still references it, that one is returned
        again.  It is held weakly, so the last holder frees it.
        """
        self.kv.check_up()
        writes = self.kv.writes
        held = self._snapshots.get(dataset)
        if held is not None and held[0] == writes:
            snapshot = held[1]()
            if snapshot is not None:
                return snapshot
        dsrec = self._dataset_record(dataset)
        # A file's path is its key's tail; its chunk id, offset, length
        # and crc are its record's tail.  Both are cut in C, per page.
        prefix = meta.file_key_prefix(dataset)
        path_of = itemgetter(slice(len(prefix), None))
        tail_of = itemgetter(slice(-meta.RECORD_TAIL.size, None))
        paths: list[str] = []
        tails: list[bytes] = []
        for page in self.kv.local_pscan_iter(prefix, PSCAN_PAGE_SIZE):
            keys, blobs = zip(*page)
            paths += map(path_of, keys)
            tails += map(tail_of, blobs)
        snapshot = MetadataSnapshot.from_record_tails(
            dataset, dsrec.update_ts, dsrec.chunk_ids, paths, b"".join(tails)
        )
        self._snapshots[dataset] = (writes, weakref.ref(snapshot))
        return snapshot

    def _op_load_meta_delta(
        self, dataset: str, from_ts: int
    ) -> Generator[Event, Any, dict]:
        """Serve the metadata delta since ``from_ts`` (incremental §4.1.3).

        Returns ``{"mode": "delta", "ts", "entries"}`` with the encoded
        journal entries ``(from_ts, current]`` when the journal still
        retains them, or ``{"mode": "full", "ts"}`` when the client's
        version has fallen past the compaction horizon and must reload
        the full snapshot.  Cost is O(delta) point gets, not O(dataset).
        """
        current = self._dataset_record(dataset).update_ts
        if from_ts > current:
            raise DieselError(
                f"client ts {from_ts} is ahead of dataset ts {current}"
            )
        entries = self.journal.entries_since(dataset, from_ts)
        if entries is None:
            yield self.env.timeout(self._kv_pipeline_cost(1))
            return {"mode": "full", "ts": current}
        yield self.env.timeout(self._kv_pipeline_cost(max(1, len(entries))))
        return {"mode": "delta", "ts": current, "entries": tuple(entries)}

    def _op_list_datasets(
        self, cursor: Optional[str] = None, limit: Optional[int] = None
    ) -> Generator[Event, Any, Tuple[list[str], Optional[str]]]:
        """One name-sorted page of the dataset records (``ds:<name>``).

        ``cursor`` is the last name of the previous page and ``limit``
        (at least 1; ``None`` = every name) the page size.  Returns
        ``(names, next_cursor)``: the KV's one-pass merged page of the
        ``ds:`` range, so a page reads at most ``limit`` keys plus one
        per KV shard however many datasets exist.
        """
        prefix = meta.DATASET_PREFIX
        pairs, last = self.kv.local_pscan_page(
            prefix, None if cursor is None else prefix + cursor, limit
        )
        names = [key[len(prefix):] for key, _ in pairs]
        next_cursor = None if last is None else last[len(prefix):]
        yield self.env.timeout(self._kv_pipeline_cost(max(1, len(names))))
        return names, next_cursor

    def _op_delete_file(
        self, dataset: str, path: str
    ) -> Generator[Event, Any, None]:
        """Delete = tombstone in the chunk's deletion bitmap (§4.1.1).

        The tombstone is written both to the KV chunk record and into the
        stored chunk's header bitmap, keeping chunks self-contained: a
        metadata rebuild from chunks (§4.1.2) must not resurrect deleted
        files.  Both are patched as bytes: the record's bit and count
        where they sit, the header alone into the object store, the
        file's index from the header table kept since the last delete
        when it still describes the stored header (docs/METADATA.md).
        """
        path = normalize(path)
        kv = self.kv
        f_key = meta.file_key(dataset, path)
        blob = kv.local_get_or_none(f_key)
        if blob is None:
            raise FileNotFoundInDatasetError(path)
        cid = ChunkId(meta.RECORD_TAIL.unpack_from(
            blob, len(blob) - meta.RECORD_TAIL.size
        )[0])
        key = object_key(dataset, cid)
        index, header, self._tombstone_table = Chunk.locate(
            self.store.head(key), path, self._tombstone_table
        )
        ck_key = meta.chunk_key(dataset, cid)
        ck_blob = kv.local_get_or_none(ck_key)
        if ck_blob is None:
            raise DieselError(f"missing chunk record for {cid.encode()}")
        crec, nbits, bits = meta.ChunkRecord.tombstone(ck_blob, index)
        kv.local_put(ck_key, crec)
        # Rewrite the stored header's bitmap in place (a header-sized
        # write) from the KV record's: that one already holds the bit of
        # a delete still waiting on its own write to this chunk.
        yield from self.store.patch(
            key, Chunk.with_bitmap(header, bits, nbits)
        )
        kv.local_delete(f_key)
        parent, _, name = path.rpartition("/")
        kv.local_delete(meta.dir_entry_key(dataset, parent or "/", name, False))
        # Version the dataset record as it stands *now*: a chunk ingested
        # during the device write above must stay in its id list.
        ds_key = meta.dataset_key(dataset)
        old = kv.local_get_or_none(ds_key)
        if old is None:
            raise DatasetNotFoundError(dataset)
        ts, dsrec = meta.DatasetRecord.bump(old)
        kv.local_put(ds_key, dsrec)
        n_journal = self.journal.record_encoded(
            dataset, ts, delete_entry(ts, path.encode())
        )
        yield self.env.timeout(self._kv_pipeline_cost(4 + n_journal))

    def _op_purge(self, dataset: str) -> Generator[Event, Any, int]:
        """DL_purge: rewrite chunks that contain deletion holes (§5).

        For every chunk with tombstones, read it, repack only the live
        files into a fresh chunk (new ID), ingest the new chunk, and drop
        the old one.  Returns the number of chunks rewritten.

        A live file is one whose bit is clear *and* whose ``f:`` record
        still names this chunk: a plain ``put`` over a live path leaves
        the old copy's bit clear, and repacking that copy would bring
        the overwritten payload back over the newer record.
        """
        dsrec = self._dataset_record(dataset)
        rewritten = 0
        for cid in list(dsrec.chunk_ids):
            crec = self._chunk_record(dataset, cid)
            if crec.ndeleted == 0:
                continue
            key = object_key(dataset, cid)
            blob = yield from self.store.get(key)
            old_chunk = Chunk.decode(blob)
            live = [
                (path, old_chunk.payload(path))
                for i, path in enumerate(old_chunk.paths)
                if not crec.bitmap.get(i) and self._is_current(dataset, path, cid)
            ]
            if live:
                new_chunk = Chunk.build(self._idgen.next(), live)
                new_bytes = new_chunk.encode()
                yield from self.store.put(
                    object_key(dataset, new_chunk.chunk_id), new_bytes
                )
                n_pairs = self.ingest_metadata(dataset, new_chunk)
                yield self.env.timeout(self._kv_pipeline_cost(n_pairs))
            # Drop the old chunk and its record; trim the dataset record.
            yield from self._drop_chunk(dataset, cid)
            rewritten += 1
        return rewritten

    def _drop_chunk(self, dataset: str, cid: ChunkId) -> Generator[Event, Any, None]:
        yield from self.store.delete(object_key(dataset, cid))
        self.kv.local_delete(meta.chunk_key(dataset, cid))
        dsrec = self._dataset_record(dataset)
        ts = dsrec.update_ts + 1
        self.kv.local_put(
            meta.dataset_key(dataset), dsrec.without_chunks([cid], ts).encode()
        )
        self.journal.record(
            dataset, ts, [JournalOp(OP_CHUNK_DROP, "", cid.raw)]
        )

    def _op_delete_dataset(self, dataset: str) -> Generator[Event, Any, int]:
        """DL_delete_dataset: remove every chunk and KV pair (§5)."""
        dsrec = self._dataset_record(dataset)
        n = 0
        for cid in dsrec.chunk_ids:
            yield from self._drop_chunk(dataset, cid)
            n += 1
        for prefix in (
            meta.file_key_prefix(dataset),
            meta.chunk_key_prefix(dataset),
            f"dir:{dataset}:",
        ):
            for page in self.kv.local_pscan_iter(prefix, PSCAN_PAGE_SIZE):
                for key, _ in page:
                    self.kv.local_delete(key)
        self.journal.drop(dataset)
        self.kv.local_delete(meta.dataset_key(dataset))
        yield self.env.timeout(self._kv_pipeline_cost(max(1, n)))
        return n

    # ----------------------------------------------------------- inspection
    def datasets(self) -> list[str]:
        """Every dataset name, sorted: the ``ds:`` records' names."""
        prefix = meta.DATASET_PREFIX
        return [key[len(prefix):] for key, _ in self.kv.local_pscan(prefix)]

    def dataset_info(self, dataset: str) -> meta.DatasetRecord:
        """The dataset's record: version and chunk ids."""
        return self._dataset_record(dataset)


#: RPC method names ``_handle`` accepts: one per ``_op_<method>``.
_METHODS = frozenset(
    name[4:] for name in vars(DieselServer) if name.startswith("_op_")
)
