"""libDIESEL: the client library (paper Table 3, §5).

Implements the full API surface::

    DL_connect  -> DieselClient(...)          DL_stat
    DL_put      -> put()                      DL_delete -> delete()
    DL_flush    -> flush()                    DL_ls     -> ls()
    DL_get      -> get()                      DL_save_meta / DL_load_meta
    DL_shuffle  -> enable_shuffle()           DL_close  -> close()

plus the housekeeping functions ``DL_purge`` and ``DL_delete_dataset``.
All data-path methods are generators that run inside the simulation; the
:class:`SyncDieselClient` wrapper drives them to completion for scripts
and examples.

Read resolution order (read flow, Fig 4): local group cache (chunk-wise
shuffle working set) → task-grained distributed cache → DIESEL server
(which itself may hit its SSD tier before HDD).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Sequence

from repro.calibration import Calibration, DEFAULT
from repro.core.chunk import Chunk
from repro.core.chunk_builder import ChunkBuilder, ChunkPipeline
from repro.core.config import DieselConfig
from repro.core.dist_cache import CacheClient, TaskCache
from repro.core.meta import FileRecord
from repro.core.prefetch import WINDOW_HIT_S, ChunkPrefetcher, ChunkWindow
from repro.core.server import DieselServer
from repro.core.shuffle import EpochPlan, chunkwise_shuffle
from repro.core.snapshot import MetadataSnapshot, SnapshotIndex
from repro.errors import (
    ClosedError,
    DeltaConflictError,
    DieselError,
    JournalFormatError,
    StaleSnapshotError,
)
from repro.cluster.node import Node
from repro.obs.counters import Counters, hwm
from repro.sim.engine import Environment, Event, fan_out
from repro.util.hashing import stable_hash
from repro.util.ids import sim_id_generator
from repro.util.pathutil import normalize


def connect(
    env: Environment,
    node: Node,
    servers: Sequence[DieselServer],
    dataset: str,
    user: str = "",
    key: str = "",
    name: str = "client0",
    rank: int = 0,
    config: DieselConfig | None = None,
    calibration: Calibration = DEFAULT,
) -> Generator[Event, Any, "DieselClient"]:
    """DL_connect (Table 3): authenticate and open a client context.

    Credentials are checked against the first server's access table; an
    open deployment (no keys configured) accepts anything.  Returns the
    connected :class:`DieselClient`.
    """
    from repro.errors import AuthError

    if not servers:
        raise DieselError("DL_connect needs at least one DIESEL server")
    ok = yield from servers[0].call(node, "auth", user, key)
    if not ok:
        raise AuthError(user)
    return DieselClient(
        env, node, servers, dataset,
        name=name, rank=rank, config=config, calibration=calibration,
    )


@dataclass(slots=True)
class ClientStats(Counters):
    """Cumulative libDIESEL counters (the bench-reporting seam)."""

    puts: int = 0
    gets: int = 0
    local_hits: int = 0
    cache_hits: int = 0
    #: Reads the task cache resolved from the node-level shared chunk
    #: tier (a chunk another task admitted); 0 without a shared tier.
    shared_hits: int = 0
    server_reads: int = 0
    chunks_sent: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    #: get_many() batches resolved (however many files each).
    batched_gets: int = 0
    #: Pipelined-prefetch accounting (see repro.core.prefetch).
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_wasted: int = 0
    #: Scatter-gather high-water marks: the most chunk sends /
    #: chunk+file fetches ever concurrently in flight.  Stay 0/1
    #: with the fan-out knobs at their serial defaults — the proof
    #: that the knobs really change overlap and nothing else.
    ingest_inflight_hwm: int = hwm()
    fetch_inflight_hwm: int = hwm()
    #: Delta metadata plane: refresh_meta() rounds resolved with an
    #: incremental journal delta vs full-snapshot fallbacks, the ops
    #: applied in place, and the delta bytes transferred (compare with
    #: the full snapshot blob size to see the §4.1.3 win).
    delta_reloads: int = 0
    delta_ops_applied: int = 0
    delta_bytes: int = 0
    full_reloads: int = 0


class DieselClient:
    """One libDIESEL context (the result of ``DL_connect``)."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        servers: Sequence[DieselServer],
        dataset: str,
        name: str = "client0",
        rank: int = 0,
        config: DieselConfig | None = None,
        calibration: Calibration = DEFAULT,
    ) -> None:
        if not servers:
            raise DieselError("DL_connect needs at least one DIESEL server")
        self.env = env
        self.node = node
        self.servers = list(servers)
        self.dataset = dataset
        self.name = name
        self.rank = rank
        self.config = config or DieselConfig()
        self.cal = calibration
        self.stats = ClientStats()
        #: Attached observability recorder (``repro.obs.SpanRecorder``);
        #: None keeps every instrumentation site a single failed
        #: ``is not None`` check — the hot path allocates nothing.
        self.recorder = None
        self._rr = 0
        self._closed = False
        self._builder = ChunkBuilder(
            sim_id_generator(self.name, clock=lambda: env.now),
            chunk_size=self.config.chunk_size,
        )
        self._index: Optional[SnapshotIndex] = None
        self._cache: Optional[TaskCache] = None
        self._cache_identity: Optional[CacheClient] = None
        # Chunk-wise shuffle state: the §4.3 working set (group cache)
        # and its read-ahead pipeline live in one ChunkWindow.
        self._shuffle_enabled = False
        self._window = ChunkWindow(
            env, self._fetch_chunk, self.config.shuffle_group_size,
            self.stats, name=self.name,
        )
        #: Lazy async ingest sink (only when ingest_pipeline_depth > 1).
        self._ingest: Optional[ChunkPipeline] = None
        self._epoch = 0

    # --------------------------------------------------------------- helpers
    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("client context is closed (DL_close was called)")

    def _server(self) -> DieselServer:
        """Round-robin over DIESEL servers (they are stateless, §4.1.1)."""
        s = self.servers[self._rr % len(self.servers)]
        self._rr += 1
        return s

    def preferred_server(self, encoded_cid: str) -> DieselServer:
        """Stable chunk→server placement (the scatter-gather seam).

        Concurrent fetches advancing the shared round-robin cursor would
        make placement depend on interleaving order; hashing the chunk
        id pins each chunk to one server deterministically and spreads a
        scattered batch across all of them.
        """
        return self.servers[stable_hash(encoded_cid, len(self.servers))]

    @property
    def index(self) -> SnapshotIndex:
        if self._index is None:
            raise DieselError("no metadata snapshot loaded (call DL_load_meta)")
        return self._index

    def as_cache_client(self) -> CacheClient:
        if self._cache_identity is None:
            self._cache_identity = CacheClient(self.name, self.node, self.rank)
        return self._cache_identity

    def attach_cache(self, cache: TaskCache) -> None:
        """Join a task-grained distributed cache (after its register())."""
        self._cache = cache

    # -------------------------------------------------------------- DL_put
    def put(self, path: str, data: bytes) -> Generator[Event, Any, None]:
        """DL_put: buffer a file; ship a chunk when ≥ chunk_size accrues."""
        self._check_open()
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        sealed = self._builder.add(path, data)
        self.stats.puts += 1
        self.stats.bytes_written += len(data)
        # Client-side packing cost (copy into the chunk buffer + hashing).
        yield self.env.timeout(
            self.cal.diesel.client_put_overhead_s
            + len(data) * self.cal.diesel.client_put_per_byte_s
        )
        if sealed is not None:
            yield from self._dispatch_chunk(sealed)
        if rec is not None:
            # "pack" puts only buffered; "ship" puts sealed a chunk and
            # (synchronously or via the pipeline) dispatched it.
            rec.record("put", "pack" if sealed is None else "ship",
                       self.env.now - t0, actor=self.name, path=path)

    def flush(self) -> Generator[Event, Any, None]:
        """DL_flush: seal and ship whatever is buffered; wait for every
        pipelined send still in flight."""
        self._check_open()
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        sealed = self._builder.flush()
        if sealed is not None:
            yield from self._dispatch_chunk(sealed)
        else:
            yield self.env.timeout(0)
        if self._ingest is not None:
            yield from self._ingest.drain()
        if rec is not None:
            rec.record("flush", "drain", self.env.now - t0, actor=self.name)

    def put_many(
        self, items: Sequence[tuple[str, bytes]]
    ) -> Generator[Event, Any, int]:
        """Batched DL_put + DL_flush: ingest a whole listing of files.

        With ``ingest_pipeline_depth > 1`` chunk sends overlap the
        packing of later files (§4.1.1 write overlap); the final flush
        waits for every send.  Returns the number of chunks shipped.
        """
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        before = self.stats.chunks_sent
        for path, data in items:
            yield from self.put(path, data)
        yield from self.flush()
        if rec is not None:
            rec.record("put_many", "total", self.env.now - t0,
                       actor=self.name, files=len(items),
                       chunks=self.stats.chunks_sent - before)
        return self.stats.chunks_sent - before

    def _note_ingest_inflight(self, n: int) -> None:
        if n > self.stats.ingest_inflight_hwm:
            self.stats.ingest_inflight_hwm = n

    def _dispatch_chunk(self, chunk: Chunk) -> Generator[Event, Any, None]:
        """Ship a sealed chunk — synchronously at depth 1 (the legacy
        path, byte-identical timing), else through the ingest pipeline."""
        if self.config.ingest_pipeline_depth <= 1:
            yield from self._send_chunk(chunk)
            return
        if self._ingest is None:
            self._ingest = ChunkPipeline(
                self.env,
                self._send_chunk,
                self.config.ingest_pipeline_depth,
                watermark=self._note_ingest_inflight,
            )
        yield from self._ingest.submit(chunk)

    def _send_chunk(self, chunk: Chunk) -> Generator[Event, Any, None]:
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        blob = chunk.encode()
        yield from self._server().call(
            self.node,
            "ingest_chunk",
            self.dataset,
            blob,
            request_bytes=len(blob),
            response_bytes=32,
        )
        self.stats.chunks_sent += 1
        if rec is not None:
            rec.record("chunk_send", "server", self.env.now - t0,
                       actor=self.name, bytes=len(blob))

    # -------------------------------------------------------------- DL_get
    def _record_for(self, path: str) -> Optional[FileRecord]:
        if self._index is not None:
            return self._index.lookup(path)
        return None

    def get(self, path: str) -> Generator[Event, Any, bytes]:
        """DL_get: read one file through the Fig 4 resolution chain."""
        if self._closed:
            self._check_open()
        env, stats = self.env, self.stats
        stats.gets += 1
        rec = self.recorder
        t0 = env.now if rec is not None else 0.0
        yield env.timeout(self.cal.diesel.api_read_overhead_s)
        # 1. Chunk-wise-shuffle working set (client-local memory), read
        #    by the snapshot's extent; ``locate`` normalises on a miss.
        #    The §4.3 working set holds at most ``shuffle_group_size``
        #    chunks (group_size × chunk_size, ~2 GB for the paper's
        #    ImageNet-1K run vs the 150 GB dataset), plus the prefetch
        #    pipeline's ``prefetch_depth`` look-ahead when enabled.
        if self._index is not None and self._shuffle_enabled:
            encoded, offset, length = self._index.locate(path)
            chunk = self._window.access(encoded)
            if chunk is not None:
                layer = "group_cache"
                stats.local_hits += 1
                yield env.timeout(WINDOW_HIT_S)
            else:
                layer = "server" if self._cache is None else "task_cache"
                chunk = yield from self._window.ensure(encoded)
            payload = chunk.extent(offset, length)
            stats.bytes_read += length
            if rec is not None:
                rec.record("get", layer, env.now - t0,
                           actor=self.name, path=normalize(path))
                rec.count("read", layer)
            return payload
        path = normalize(path)
        record = self._record_for(path)
        # 2. Task-grained distributed cache (one-hop peer fetch), backed
        #    by the node chunk tier — where other tasks share it, a read
        #    can resolve from a chunk another task admitted.
        if record is not None and self._cache is not None:
            payload = yield from self._cache_read(record)
            if rec is not None:
                # Exact attribution (cache hit vs server fall-through)
                # requires the recorder to be attached to the TaskCache
                # as well; it publishes which layer served the read.
                layer = self._cache.last_resolution
                rec.record("get", layer, self.env.now - t0,
                           actor=self.name, path=path)
                rec.count("read", layer)
            return payload
        # 3. DIESEL server.
        payload = yield from self._server().call(
            self.node,
            "get_file",
            self.dataset,
            path,
            response_bytes=record.length if record else None,
        )
        self.stats.server_reads += 1
        self.stats.bytes_read += len(payload)
        if rec is not None:
            rec.record("get", "server", self.env.now - t0,
                       actor=self.name, path=path)
            rec.count("read", "server")
        return payload

    def get_many(
        self, paths: Sequence[str]
    ) -> Generator[Event, Any, Dict[str, bytes]]:
        """Batched DL_get: resolve a whole mini-batch in one pass.

        Follows the same Fig 4 resolution chain as :meth:`get`, but
        amortized: paths are grouped by chunk so each group-cache chunk
        is resolved once (shuffle mode), and everything that has to go
        to a DIESEL server travels in a single ``get_files`` RPC whose
        request executor merges the batch into chunk-wise range reads.
        Returns ``{path: payload}``.
        """
        self._check_open()
        paths = [normalize(p) for p in paths]
        self.stats.gets += len(paths)
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        yield self.env.timeout(self.cal.diesel.api_read_overhead_s)
        out: Dict[str, bytes] = {}
        remote: list[str] = []
        if self._shuffle_enabled and self._index is not None:
            # Group the batch by chunk; resolve each chunk once.
            by_chunk: Dict[str, list[tuple[str, int, int]]] = {}
            locate = self._index.locate
            for path in paths:
                encoded, offset, length = locate(path)
                by_chunk.setdefault(encoded, []).append((path, offset, length))
            # One walk: a resident chunk is served inline; a miss is
            # fetched inline at width 1, else deferred to one fan_out.
            # The width fork stays because deferring serves residents
            # before misses, which at width 1 moves BENCH_prefetch.
            fanned = self.config.read_fanout > 1
            resolved: Dict[str, Optional[Chunk]] = {}
            missing: list[str] = []
            for encoded, group in by_chunk.items():
                n = len(group)
                chunk = self._window.access(encoded)
                if chunk is not None:
                    self.stats.local_hits += n
                    if rec is not None:
                        rec.count("read", "group_cache", n)
                    yield self.env.timeout(WINDOW_HIT_S * n)
                else:
                    # One file pays the chunk fetch; the rest of the
                    # chunk's files read locally.
                    self.stats.local_hits += n - 1
                    if rec is not None:
                        rec.count("read", "server")
                        if n > 1:
                            rec.count("read", "group_cache", n - 1)
                    if fanned:
                        missing.append(encoded)  # filled in after the walk
                    else:
                        chunk = yield from self._window.ensure(encoded)
                resolved[encoded] = chunk
            if missing:
                chunks = yield from fan_out(
                    self.env,
                    [self._window.ensure(e) for e in missing],
                    self.config.read_fanout,
                    name="read_fanout",
                )
                resolved.update(zip(missing, chunks))
            for encoded, chunk in resolved.items():
                for path, offset, length in by_chunk[encoded]:
                    out[path] = chunk.extent(offset, length)
                    self.stats.bytes_read += length
        elif self._cache is not None and self._index is not None:
            # Task-grained distributed cache: one-hop fetch per file
            # from the owning master (already chunk-resident there).
            records: list[FileRecord] = []
            for path in paths:
                record = self._record_for(path)
                if record is None:
                    remote.append(path)
                else:
                    records.append(record)
            if records:
                payloads = yield from fan_out(
                    self.env,
                    [self._cache_read(r) for r in records],
                    self.config.read_fanout,
                    name="cache_fanout",
                    watermark=self._window.note_inflight,
                )
                out.update(zip((r.path for r in records), payloads))
                if rec is not None:
                    rec.count("read", "task_cache", len(records))
        else:
            remote = list(paths)
        if remote:
            known = [self._record_for(p) for p in remote]
            response_bytes = (
                sum(r.length for r in known)
                if all(r is not None for r in known) else None
            )
            got = yield from self._server().call(
                self.node,
                "get_files",
                self.dataset,
                tuple(remote),
                response_bytes=response_bytes,
            )
            self.stats.server_reads += 1
            for path, payload in got.items():
                out[path] = payload
                self.stats.bytes_read += len(payload)
            if rec is not None:
                rec.count("read", "server", len(got))
        self.stats.batched_gets += 1
        if rec is not None:
            rec.record("get_many", "total", self.env.now - t0,
                       actor=self.name, files=len(paths))
        return out

    def get_range(
        self, path: str, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        """Read ``length`` bytes of a file at ``offset`` (pread semantics).

        In shuffle mode the chunk comes through the working set as a
        :meth:`get` would bring it, and only the range is copied out of
        it; otherwise a server range read (only the requested bytes
        move).  Reads past EOF are clamped like read(2); a negative
        ``offset`` or ``length`` is rejected on either path, before any
        cost.
        """
        if offset < 0 or length < 0:
            raise DieselError("offset and length must be non-negative")
        self._check_open()
        self.stats.gets += 1
        yield self.env.timeout(self.cal.diesel.api_read_overhead_s)
        if self._index is not None and self._shuffle_enabled:
            encoded, at, size = self._index.locate(path)
            chunk = self._window.access(encoded)
            if chunk is not None:
                self.stats.local_hits += 1
                yield self.env.timeout(WINDOW_HIT_S)
            else:
                chunk = yield from self._window.ensure(encoded)
            piece = chunk.extent(at, size, offset, offset + length)
            self.stats.bytes_read += len(piece)
            return piece
        path = normalize(path)
        record = self._record_for(path)
        piece = yield from self._server().call(
            self.node,
            "get_file_range",
            self.dataset,
            path,
            offset,
            length,
            response_bytes=min(length, record.length if record else length),
        )
        self.stats.server_reads += 1
        self.stats.bytes_read += len(piece)
        return piece

    def put_overwrite(self, path: str, data: bytes) -> Generator[Event, Any, None]:
        """Modify a file: delete the old version, then write the new one
        (§4.1.1: "DIESEL supports modifying/deleting files by first
        deleting the old file and then writing a new file").

        The old payload stays as a hole in its chunk until DL_purge.
        """
        self._check_open()
        path = normalize(path)
        # Pin one server for the read-check + delete pair: interleaving
        # the round-robin cursor with concurrent pipelined sends must
        # not split a logical operation across servers.
        server = self._server()
        exists = yield from server.call(
            self.node, "exists", self.dataset, path
        )
        if exists:
            yield from server.call(
                self.node, "delete_file", self.dataset, path
            )
        yield from self.put(path, data)
        yield from self.flush()

    def _credit_cache_read(self, tier: str) -> None:
        """Count one read the task cache resolved, by the tier it
        resolved at (what ``TaskCache.credit_read`` is given)."""
        self.stats.cache_hits += 1
        if tier == "shared_hits":
            self.stats.shared_hits += 1

    def _cache_read(self, record: FileRecord) -> Generator[Event, Any, bytes]:
        """One file through the task cache, credited to this client."""
        payload, tier = yield from self._cache.resolve_file(
            self.as_cache_client(), record
        )
        self._credit_cache_read(tier)
        self.stats.bytes_read += len(payload)
        return payload

    def _fetch_chunk(self, encoded: str) -> Generator[Event, Any, Chunk]:
        """The window's fetch: one whole chunk, down the Fig 4 chain.

        A group-cache miss resolves through the task cache when one is
        attached and plans this chunk (node-local copy, one-hop peer, or
        its own server fall-through); otherwise straight from a server,
        kept as a :meth:`Chunk.fetched` view: its header checked, its
        file table never parsed, since reads go by the index's extent.
        """
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        cache = self._cache
        if cache is not None and cache.chunk_owner_node(encoded) is not None:
            chunk, tier = yield from cache.read_chunk(
                self.as_cache_client(), encoded
            )
            cache.credit_read(tier)
            self._credit_cache_read(tier)
            layer = "task_cache"
        else:
            blob = yield from self.preferred_server(encoded).call(
                self.node,
                "get_chunk",
                self.dataset,
                encoded,
                response_bytes=None,
            )
            chunk = Chunk.fetched(blob, encoded)
            self.stats.server_reads += 1
            layer = "server"
        if rec is not None:
            rec.record("chunk_fetch", layer, self.env.now - t0,
                       actor=self.name, chunk=encoded[:12])
        return chunk

    def working_set_bytes(self) -> int:
        return sum(len(c.data) for c, _ in self._window.chunks.entries.values())

    # ------------------------------------------------------------- metadata
    def stat(self, path: str) -> Generator[Event, Any, dict]:
        """DL_stat: O(1) from the snapshot when loaded, else a server RPC."""
        self._check_open()
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        if self._index is not None:
            yield self.env.timeout(self.cal.diesel.client_meta_lookup_s)
            result = self._index.stat(path)
            if rec is not None:
                rec.record("stat", "snapshot", self.env.now - t0,
                           actor=self.name, path=path)
            return result
        result = yield from self._server().call(self.node, "stat", self.dataset, path)
        if rec is not None:
            rec.record("stat", "server", self.env.now - t0,
                       actor=self.name, path=path)
        return result

    def ls(self, path: str = "/") -> Generator[Event, Any, list[str]]:
        """DL_ls: list files and folders under ``path``."""
        self._check_open()
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        if self._index is not None:
            yield self.env.timeout(self.cal.diesel.client_meta_lookup_s)
            result = self._index.readdir(path)
            if rec is not None:
                rec.record("ls", "snapshot", self.env.now - t0,
                           actor=self.name, path=path)
            return result
        result = yield from self._server().call(self.node, "ls", self.dataset, path)
        if rec is not None:
            rec.record("ls", "server", self.env.now - t0,
                       actor=self.name, path=path)
        return result

    def save_meta(self) -> Generator[Event, Any, bytes]:
        """DL_save_meta: download the dataset's metadata snapshot blob."""
        self._check_open()
        blob = yield from self._server().call(
            self.node, "save_meta", self.dataset, response_bytes=None
        )
        return blob

    def load_meta(self, blob: bytes) -> Generator[Event, Any, SnapshotIndex]:
        """DL_load_meta: load a snapshot, verifying freshness (§4.1.3)."""
        self._check_open()
        snapshot = MetadataSnapshot.deserialize(blob)
        if snapshot.dataset != self.dataset:
            raise DieselError(
                f"snapshot is for dataset {snapshot.dataset!r}, "
                f"client is connected to {self.dataset!r}"
            )
        current_ts = yield from self._server().call(
            self.node, "dataset_ts", self.dataset
        )
        if snapshot.update_ts != current_ts:
            raise StaleSnapshotError(self.dataset, snapshot.update_ts, current_ts)
        # Building the in-memory index costs real work at load time.
        yield self.env.timeout(
            snapshot.file_count * self.cal.diesel.client_meta_lookup_s
        )
        self._index = SnapshotIndex(snapshot)
        return self._index

    def refresh_meta(self) -> Generator[Event, Any, SnapshotIndex]:
        """Bring the loaded snapshot up to date incrementally.

        Asks a server for the mutation-journal delta since the index's
        version and applies it in place — O(delta) work and bytes, not
        O(dataset).  Falls back to a full ``save_meta``/``load_meta``
        round when the client's version has dropped past the journal's
        compaction horizon (or a delta fails to apply).  Returns the
        (possibly replaced) live index.
        """
        self._check_open()
        if self._index is None:
            raise DieselError("no metadata snapshot loaded (call DL_load_meta)")
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        resp = yield from self._server().call(
            self.node, "load_meta_delta", self.dataset, self._index.update_ts
        )
        if resp["mode"] == "delta":
            blobs = resp["entries"]
            try:
                applied = self._index.apply_delta(blobs)
            except (DeltaConflictError, JournalFormatError):
                # Journal and index disagree (e.g. a competing refresh
                # already applied part of the range) or an entry arrived
                # damaged: reload in full.
                pass
            else:
                self.stats.delta_reloads += 1
                self.stats.delta_ops_applied += applied
                self.stats.delta_bytes += sum(len(b) for b in blobs)
                # In-place apply costs one index update per op.
                yield self.env.timeout(
                    applied * self.cal.diesel.client_meta_lookup_s
                )
                if rec is not None:
                    rec.record("refresh_meta", "delta", self.env.now - t0,
                               actor=self.name, ops=applied)
                return self._index
        # Horizon passed (or conflict): full snapshot round trip.
        self.stats.full_reloads += 1
        blob = yield from self.save_meta()
        index = yield from self.load_meta(blob)
        if rec is not None:
            rec.record("refresh_meta", "full", self.env.now - t0,
                       actor=self.name, ops=index.file_count)
        return index

    # -------------------------------------------------------------- shuffle
    def enable_shuffle(self, group_size: Optional[int] = None) -> None:
        """DL_shuffle: turn on chunk-wise shuffle mode (§4.3)."""
        self._check_open()
        if self._index is None:
            raise DieselError("chunk-wise shuffle requires a loaded snapshot")
        if group_size is not None:
            if group_size < 1:
                raise DieselError("group_size must be >= 1")
            self._window.group_size = group_size
        self._shuffle_enabled = True

    @property
    def prefetcher(self) -> Optional[ChunkPrefetcher]:
        """The active chunk prefetch pipeline, if any."""
        return self._window.prefetcher

    def start_prefetch(
        self, plan: EpochPlan, depth: Optional[int] = None
    ) -> ChunkPrefetcher:
        """Start (or restart) the pipelined chunk prefetcher for ``plan``.

        Cancels any previous pipeline first.  ``depth`` defaults to
        ``DieselConfig.prefetch_depth``.
        """
        self._check_open()
        if not self._shuffle_enabled:
            raise DieselError("prefetch requires shuffle mode (DL_shuffle)")
        return self._window.start(
            plan,
            depth if depth is not None else self.config.prefetch_depth,
            self.recorder,
        )

    def cancel_prefetch(self) -> None:
        """Stop the prefetch pipeline and interrupt in-flight fetches."""
        self._window.cancel()

    def _epoch_seed(self, seed: Optional[int]) -> int:
        """Per-epoch RNG seed.  A caller-fixed seed is *mixed with* the
        epoch counter: the epoch sequence is reproducible, yet successive
        epochs still get different orders (§2.1's anti-overfitting
        contract — a bare fixed seed used to repeat the same order).
        Without a seed the dataset name stands in, through a process-
        independent hash (``hash(str)`` is salted per ``PYTHONHASHSEED``)."""
        if seed is None:
            seed = stable_hash(self.dataset)
        return hash((seed, self._epoch))

    def epoch_file_list(self, seed: Optional[int] = None) -> EpochPlan:
        """Generate the next epoch's chunk-wise-shuffled file order.

        Each call advances the epoch counter so successive epochs get
        different orders (required to avoid overfitting, §2.1) — even
        when ``seed`` is fixed, which makes the whole epoch *sequence*
        (not each epoch) reproducible.  When
        ``DieselConfig.prefetch_depth > 0`` the plan also (re)starts the
        pipelined chunk prefetcher over its chunk schedule.
        """
        self._check_open()
        if not self._shuffle_enabled:
            raise DieselError("call enable_shuffle() first")
        rng = random.Random(self._epoch_seed(seed))
        self._epoch += 1
        plan = chunkwise_shuffle(
            self.index.files_by_chunk(), self._window.group_size, rng
        )
        if self.config.prefetch_depth > 0:
            self.start_prefetch(plan)
        return plan

    # ---------------------------------------------------------- housekeeping
    def delete(self, path: str) -> Generator[Event, Any, None]:
        """DL_delete: tombstone one file."""
        self._check_open()
        yield from self._server().call(self.node, "delete_file", self.dataset, path)

    def purge(self) -> Generator[Event, Any, int]:
        """DL_purge: rewrite chunks with deletion holes."""
        self._check_open()
        result = yield from self._server().call(self.node, "purge", self.dataset)
        return result

    def delete_dataset(self) -> Generator[Event, Any, int]:
        """DL_delete_dataset: remove the entire dataset."""
        self._check_open()
        result = yield from self._server().call(
            self.node, "delete_dataset", self.dataset
        )
        self._index = None
        return result

    def close(self) -> None:
        """DL_close: releases the context; further calls raise ClosedError."""
        self.cancel_prefetch()
        if self._ingest is not None:
            self._ingest.cancel()
            self._ingest = None
        self._closed = True
        self._window.chunks.clear()


class SyncDieselClient:
    """A blocking facade over :class:`DieselClient` for scripts/examples.

    Every call spawns the underlying generator as a process and runs the
    environment until it completes.  Only suitable when this client is
    the sole foreground actor (background processes still advance).
    """

    def __init__(self, client: DieselClient) -> None:
        self.client = client
        self.env = client.env

    def _run(self, gen) -> Any:
        proc = self.env.process(gen)
        return self.env.run(until=proc)

    def put(self, path: str, data: bytes) -> None:
        self._run(self.client.put(path, data))

    def flush(self) -> None:
        self._run(self.client.flush())

    def put_many(self, items: Sequence[tuple[str, bytes]]) -> int:
        return self._run(self.client.put_many(items))

    def get(self, path: str) -> bytes:
        return self._run(self.client.get(path))

    def get_many(self, paths: Sequence[str]) -> Dict[str, bytes]:
        return self._run(self.client.get_many(paths))

    def stat(self, path: str) -> dict:
        return self._run(self.client.stat(path))

    def ls(self, path: str = "/") -> list[str]:
        return self._run(self.client.ls(path))

    def save_meta(self) -> bytes:
        return self._run(self.client.save_meta())

    def load_meta(self, blob: bytes) -> SnapshotIndex:
        return self._run(self.client.load_meta(blob))

    def refresh_meta(self) -> SnapshotIndex:
        return self._run(self.client.refresh_meta())

    def delete(self, path: str) -> None:
        self._run(self.client.delete(path))

    def purge(self) -> int:
        return self._run(self.client.purge())

    def delete_dataset(self) -> int:
        return self._run(self.client.delete_dataset())

    def enable_shuffle(self, group_size: Optional[int] = None) -> None:
        self.client.enable_shuffle(group_size)

    def epoch_file_list(self, seed: Optional[int] = None) -> EpochPlan:
        return self.client.epoch_file_list(seed)

    def close(self) -> None:
        self.client.close()
