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

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.calibration import Calibration, DEFAULT
from repro.core import meta
from repro.core.chunk import Chunk
from repro.core.config import DieselConfig
from repro.core.meta_journal import (
    OP_CHUNK_DROP,
    OP_DELETE,
    JournalOp,
    MetaJournal,
    chunk_entry,
)
from repro.core.registry import DatasetRegistry
from repro.core.snapshot import MetadataSnapshot, build_snapshot
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
from repro.util.bitmap import Bitmap
from repro.util.hashing import fnv1a_64
from repro.util.ids import ChunkId, decode_chunk_id, sim_id_generator
from repro.util.pathutil import normalize

AnyStore = Union[ObjectStore, TieredStore]

#: Mutation-journal entries retained per dataset (§4.1.3 incremental
#: extension): a client at most this many versions behind refreshes by
#: delta, an older one falls back to a full snapshot reload.
META_JOURNAL_HORIZON = 256
#: Keys per page of the server's paginated prefix scans (``ls``,
#: snapshot assembly, dataset-removal sweeps; §4.1.1 readdir).
PSCAN_PAGE_SIZE = 1024
#: Shards the dataset registry spreads the namespace over.
REGISTRY_SHARDS = 16

#: Methods that are pure metadata (charged at the metadata service rate).
_META_METHODS = frozenset(
    {
        "stat", "ls", "dataset_ts", "exists", "save_meta", "register",
        "auth", "load_meta_delta", "list_datasets",
    }
)


def object_key(dataset: str, chunk_id: ChunkId) -> str:
    """Object-store key for a chunk: ``<dataset>/<order-preserving id>``.

    The dataset prefix keeps per-dataset listings contiguous; within a
    dataset, lexicographic order equals written order (§4.1.2).
    """
    return f"{dataset}/{chunk_id.encode()}"


def parse_object_key(key: str) -> tuple[str, ChunkId]:
    dataset, _, encoded = key.rpartition("/")
    return dataset, decode_chunk_id(encoded)


@dataclass(slots=True)
class ServerStats(Counters):
    """Data-path read counters (chunk transfers, batched reads).

    ``chunk_reads`` counts whole-chunk transfers served to clients; the
    pipelined-prefetch benchmarks assert against it to prove the
    single-flight map eliminates duplicate chunk fetches.
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
        #: Registration log: one dict per task registration (dataset,
        #: client, tenant, qos_class, at) — the ``dlcmd tenants`` seam.
        self.registrations: list[dict] = []
        # Delta metadata plane: both live in the shared KV, so every
        # stateless server sees the same journal and registry.
        self.journal = MetaJournal(kv, META_JOURNAL_HORIZON)
        self.registry = DatasetRegistry(kv, REGISTRY_SHARDS)
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
        """
        return self._ingest_entries(
            dataset, chunk.chunk_id, chunk.deletion_bitmap,
            [(f.path, f.offset, f.length, f.crc32) for f in chunk.files],
            data_size if data_size is not None else chunk.data_size,
        )

    def _ingest_entries(
        self,
        dataset: str,
        cid: ChunkId,
        bitmap: Bitmap,
        entries: Sequence[Tuple[str, int, int, int]],
        data_size: int,
    ) -> int:
        """:meth:`ingest_metadata` of a chunk given as its id, deletion
        bitmap and ``(path, offset, length, crc32)`` file table.

        The count is what the chunk *implies*: per live file its record
        plus one directory entry per path component
        (:func:`meta.directory_entry_pairs`), the chunk and dataset
        records, the journal keys.  What is *written* is each distinct
        key once, in the order that per-file expansion would first have
        written it, its KV slot hashed from the state its directory's
        keys share (docs/METADATA.md "Write path").
        """
        cid_raw = cid.raw
        ndeleted = bitmap.count()
        file_prefix = meta.file_key_prefix(dataset)
        #: Path up to its last "/" -> (FNV state of the file keys under
        #: it, key prefix of its file entries, that prefix's FNV state).
        dirs: dict[str, tuple[int, str, int]] = {}
        linked: set[str] = set()  # directories already linked into their parent
        pairs: list[tuple[str, bytes, int]] = []  # key, value, fnv1a_64(key)
        records: list[bytes] = []
        implied = 2
        pack, fnv, add = meta.FileRecord.pack, fnv1a_64, pairs.append
        for i, (path, offset, length, crc) in enumerate(entries):
            if ndeleted and bitmap.get(i):
                continue  # tombstoned files must not resurrect on rescan
            blob = pack(path, cid_raw, offset, length, crc)
            records.append(blob)
            implied += 1 + path.count("/")
            head = path[: path.rfind("/") + 1]
            name = path[len(head) :]
            carried = dirs.get(head)
            fresh = carried is None
            if fresh:
                prefix = meta.dir_scan_prefix(dataset, head[:-1] or "/", "f")
                carried = dirs[head] = (
                    fnv(file_prefix + head), prefix, fnv(prefix)
                )
            file_state, prefix, entry_state = carried
            leaf = name or path
            add((file_prefix + path, blob, fnv(name, file_state)))
            add((prefix + leaf, b"", fnv(leaf, entry_state)))
            parent = head[:-1] if fresh else ""
            while parent and parent not in linked:
                linked.add(parent)
                parent, _, child = parent.rpartition("/")
                key = meta.dir_entry_key(dataset, parent or "/", child, True)
                add((key, b"", fnv(key)))
        ds_key = meta.dataset_key(dataset)
        old = self.kv.local_get_or_none(ds_key)
        if old is None:
            ts, dsrec = 1, meta.DatasetRecord(dataset, 1, (cid,)).encode()
        else:
            ts, dsrec = meta.DatasetRecord.bump(old, add=cid)
        crec = meta.ChunkRecord(
            cid, ts, data_size, len(entries), ndeleted, bitmap.copy()
        )
        ck_key = meta.chunk_key(dataset, cid)
        add((ck_key, crec.encode(), fnv(ck_key)))
        add((ds_key, dsrec, fnv(ds_key)))
        self.kv.local_put_hashed(pairs)
        n_journal = self.journal.record_encoded(
            dataset, ts, chunk_entry(ts, records, cid_raw)
        )
        if old is None:
            self.registry.add(dataset)
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
        cid, bitmap, entries, data_size = Chunk.read_entries(chunk_bytes)
        # The header's paths become keys as they are: hold the sender to
        # the canonical form its chunk builder writes.
        if any(normalize(e[0]) != e[0] for e in entries):
            raise ChunkFormatError("chunk header holds a non-canonical path")
        key = object_key(dataset, cid)
        yield self.env.timeout(
            len(chunk_bytes) / self.cal.diesel.ingest_journal_bps
        )
        flush = self.store.put_journaled(key, chunk_bytes)
        self.env.process(flush, name=f"flush:{cid.encode()[:8]}")
        n_pairs = self._ingest_entries(dataset, cid, bitmap, entries, data_size)
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
        *_, data_offset = Chunk.read_header(self.store.peek(chunk_bytes_key))
        return data_offset

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
        out = yield from self._batched_read(dataset, paths)
        return out

    def _batched_read(
        self, dataset: str, paths: Sequence[str]
    ) -> Generator[Event, Any, Dict[str, bytes]]:
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
        path = normalize(path)
        blob = self.kv.local_get_or_none(meta.file_key(dataset, path))
        if blob is not None:
            rec = meta.FileRecord.decode(blob)
            return {
                "path": path,
                "is_dir": False,
                "size": rec.length,
                "chunk_id": rec.chunk_id.encode(),
                # Table 3: DL_stat returns "file size, upload time, etc.";
                # the upload second is embedded in the chunk ID (Table 1).
                "upload_time": rec.chunk_id.timestamp,
            }
        # Directory probe: any entries under it?
        if path == "/" or self._op_ls(dataset, path):
            return {"path": path, "is_dir": True, "size": 0,
                    "chunk_id": None, "upload_time": None}
        raise FileNotFoundInDatasetError(path)

    def _op_ls(self, dataset: str, path: str) -> list[str]:
        """readdir = pscan hash(dir)/d ∪ pscan hash(dir)/f (§4.1.1).

        Scans page by page (``PSCAN_PAGE_SIZE``) so a directory with
        millions of entries never materializes per-shard intermediate
        lists larger than one page.
        """
        names: list[str] = []
        for kind in ("d", "f"):
            prefix = meta.dir_scan_prefix(dataset, path, kind)
            for page in self.kv.local_pscan_iter(prefix, PSCAN_PAGE_SIZE):
                names.extend(key[len(prefix):] for key, _ in page)
        return sorted(names)

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

    def _op_register(
        self,
        dataset: str,
        client_name: str,
        tenant: str = "default",
        qos_class: str = "batch",
    ) -> dict:
        """Task registration: returns dataset summary for cache planning.

        ``chunk_sizes`` lets capacity-aware placement (locality policy)
        budget each node's partition in bytes rather than chunk counts.
        Multi-tenant callers identify themselves with ``tenant`` /
        ``qos_class`` (defaults keep single-tenant callers unchanged);
        the registration log feeds the ``dlcmd tenants`` view.
        """
        rec = self._dataset_record(dataset)
        sizes = {
            c.encode(): self._chunk_record(dataset, c).size
            for c in rec.chunk_ids
        }
        self.stats.registrations += 1
        self.registrations.append({
            "dataset": dataset,
            "client": client_name,
            "tenant": tenant,
            "qos_class": qos_class,
            "at": self.env.now,
        })
        return {
            "dataset": dataset,
            "update_ts": rec.update_ts,
            "chunk_ids": [c.encode() for c in rec.chunk_ids],
            "chunk_sizes": sizes,
        }

    def _op_save_meta(self, dataset: str) -> Generator[Event, Any, bytes]:
        """Materialize the dataset's metadata snapshot (§4.1.3)."""
        snapshot = self.build_snapshot(dataset)
        yield self.env.timeout(self._kv_pipeline_cost(len(snapshot.files)))
        return snapshot.serialize()

    def build_snapshot(self, dataset: str) -> MetadataSnapshot:
        """Assemble the snapshot from KV (no simulated cost; see save_meta).

        File records stream in via paginated pscan so assembling a huge
        dataset's snapshot holds one page per shard at a time, not the
        whole keyspace slice.
        """
        dsrec = self._dataset_record(dataset)
        # Every file of a chunk points at the dataset record's ChunkId.
        chunk_ids = {cid.raw: cid for cid in dsrec.chunk_ids}
        files: list[meta.FileRecord] = []
        for page in self.kv.local_pscan_iter(
            meta.file_key_prefix(dataset), PSCAN_PAGE_SIZE
        ):
            files.extend(
                meta.FileRecord.decode(blob, chunk_ids) for _, blob in page
            )
        return build_snapshot(dataset, dsrec.update_ts, files, dsrec.chunk_ids)

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
        """One page of the sharded dataset registry (name-sorted)."""
        names, next_cursor = self.registry.list_page(cursor, limit)
        yield self.env.timeout(self._kv_pipeline_cost(max(1, len(names))))
        return names, next_cursor

    def _op_delete_file(
        self, dataset: str, path: str
    ) -> Generator[Event, Any, None]:
        """Delete = tombstone in the chunk's deletion bitmap (§4.1.1).

        The tombstone is written both to the KV chunk record and into the
        stored chunk's header bitmap, keeping chunks self-contained: a
        metadata rebuild from chunks (§4.1.2) must not resurrect deleted
        files.
        """
        path = normalize(path)
        cid = self._file_record(dataset, path).chunk_id
        key = object_key(dataset, cid)
        blob = self.store.peek(key)
        index, header_size = Chunk.find_in_header(blob, path)
        crec = self._chunk_record(dataset, cid).with_deleted(index)
        self.kv.local_put(meta.chunk_key(dataset, cid), crec.encode())
        # Rewrite the stored header's bitmap in place (a header-sized
        # write) from the KV record's: that one already holds the bit of
        # a delete still waiting on its own write to this chunk.
        yield from self.store.patch(
            key, Chunk.with_bitmap(blob, crec.bitmap, header_size), header_size
        )
        self.kv.local_delete(meta.file_key(dataset, path))
        parent, _, name = path.rpartition("/")
        self.kv.local_delete(
            meta.dir_entry_key(dataset, parent or "/", name, False)
        )
        # Version the dataset record as it stands *now*: a chunk ingested
        # during the device write above must stay in its id list.
        ds_key = meta.dataset_key(dataset)
        old = self.kv.local_get_or_none(ds_key)
        if old is None:
            raise DatasetNotFoundError(dataset)
        ts, dsrec = meta.DatasetRecord.bump(old)
        self.kv.local_put(ds_key, dsrec)
        n_journal = self.journal.record(
            dataset, ts, [JournalOp(OP_DELETE, path)]
        )
        yield self.env.timeout(self._kv_pipeline_cost(4 + n_journal))

    def _op_purge(self, dataset: str) -> Generator[Event, Any, int]:
        """DL_purge: rewrite chunks that contain deletion holes (§5).

        For every chunk with tombstones, read it, repack only the live
        files into a fresh chunk (new ID), ingest the new chunk, and drop
        the old one.  Returns the number of chunks rewritten.
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
                (f.path, old_chunk.payload(f.path))
                for i, f in enumerate(old_chunk.files)
                if not crec.bitmap.get(i)
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
        self.registry.remove(dataset)
        self.kv.local_delete(meta.dataset_key(dataset))
        yield self.env.timeout(self._kv_pipeline_cost(max(1, n)))
        return n

    # ----------------------------------------------------------- inspection
    def datasets(self) -> list[str]:
        """Every dataset name, via the sharded registry (sorted)."""
        return self.registry.dataset_names()

    def dataset_info(self, dataset: str) -> meta.DatasetRecord:
        return self._dataset_record(dataset)


#: RPC method names ``_handle`` accepts: one per ``_op_<method>``.
_METHODS = frozenset(
    name[4:] for name in vars(DieselServer) if name.startswith("_op_")
)
