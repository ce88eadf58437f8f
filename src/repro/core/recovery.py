"""Metadata recovery from self-contained chunks (paper §4.1.2).

Two scenarios for the in-memory KV metadata database:

* **Scenario (a)** — one KV server node failed and its recently-written
  pairs are lost: rescan chunks *from a known timestamp onward* and
  re-ingest their metadata.
* **Scenario (b)** — all in-memory pairs are lost (data-center power
  failure): rescan **all** chunks in the order they were written.

Both work because (1) every chunk header carries enough to rebuild all of
its KV pairs, and (2) the order-preserving chunk-ID encoding makes a
sorted object-store listing equal written order, so "from timestamp T"
is a simple seek within the listing.

Only chunk *headers* are read during recovery — a few KB per multi-MB
chunk — which is why DIESEL recovers orders of magnitude faster than a
per-file cache reload (Fig 11b).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.chunk import Chunk
from repro.core.server import DieselServer, parse_object_key
from repro.errors import ReproError
from repro.sim.engine import Event

#: Conservative bound on header bytes fetched per chunk during a scan.
HEADER_READ_BYTES = 64 * 1024


def _scan_keys(server: DieselServer, dataset: str, from_ts: Optional[int]) -> list[str]:
    """Chunk object keys for ``dataset`` in written order, from ``from_ts``."""
    prefix = f"{dataset}/"
    keys = [k for k in server.store.list_keys() if k.startswith(prefix)]
    if from_ts is not None:
        keys = [
            k for k in keys if parse_object_key(k)[1].timestamp >= from_ts
        ]
    return keys


def _read_header(
    server: DieselServer, key: str
) -> Generator[Event, Any, tuple[Any, int, int]]:
    """Fetch one chunk header; returns (shell, data_offset, blob_len)."""
    blob = server.store.peek(key)
    header_bytes = min(HEADER_READ_BYTES, len(blob))
    # Charge a header-sized read, not the whole chunk.
    yield from server.store.get_range(key, 0, header_bytes)
    shell, data_offset = Chunk.decode_header(blob)
    return shell, data_offset, len(blob)


def rebuild_dataset(
    server: DieselServer,
    dataset: str,
    from_timestamp: Optional[int] = None,
) -> Generator[Event, Any, int]:
    """Rebuild KV metadata for one dataset by scanning its chunks.

    ``from_timestamp=None`` is scenario (b) — full rebuild;
    a value is scenario (a) — incremental rescan of chunks whose ID
    timestamp is ≥ the given (simulated-clock) second.

    Chunks are replayed serially in written order: the dataset record's
    chunk list must come out exactly as ingest appended it, or shuffle
    plans built from a rebuilt index would diverge.

    Returns the number of chunks scanned.  The rebuilt dataset record's
    version restarts from the scan (monotonicity within the rebuild is
    preserved because chunks are replayed in written order).

    The dataset's mutation journal is reset up front: the failed shard
    may have held journal entries, and a journal with holes cannot serve
    deltas.  The replay then re-journals each re-ingest, so delta
    clients converge through the rebuilt entries or fall back to a full
    snapshot reload.
    """
    server.journal.reset(dataset)
    keys = _scan_keys(server, dataset, from_timestamp)
    scanned = 0
    for key in keys:
        shell, data_offset, blob_len = yield from _read_header(server, key)
        n_pairs = server.ingest_metadata(
            dataset, shell, data_size=blob_len - data_offset
        )
        yield server.env.timeout(server._kv_pipeline_cost(n_pairs))
        scanned += 1
    return scanned


def rebuild_all(
    server: DieselServer, from_timestamp: Optional[int] = None
) -> Generator[Event, Any, dict[str, int]]:
    """Rebuild every dataset found in the object store.

    Returns ``{dataset: chunks_scanned}``.  Dataset names come from the
    object-key prefix (chunks themselves are dataset-agnostic).
    """
    datasets: dict[str, int] = {}
    for key in server.store.list_keys():
        ds, _ = parse_object_key(key)
        datasets.setdefault(ds, 0)
    for ds in sorted(datasets):
        n = yield from rebuild_dataset(server, ds, from_timestamp)
        datasets[ds] = n
    return datasets


def verify_rebuild(
    server: DieselServer, dataset: str, expected_files: dict[str, int]
) -> list[str]:
    """Cross-check rebuilt metadata against expectations.

    ``expected_files`` maps path → length.  Returns a list of
    human-readable discrepancies (empty = clean).
    """
    problems: list[str] = []
    for path, length in expected_files.items():
        try:
            rec = server._file_record(dataset, path)
        except (ReproError, KeyError):
            # Narrow on purpose: only "the record is not there" counts
            # as a discrepancy; a programming error must propagate.
            problems.append(f"missing file record: {path}")
            continue
        if rec.length != length:
            problems.append(
                f"length mismatch for {path}: kv={rec.length} expected={length}"
            )
    try:
        dsrec = server.dataset_info(dataset)
    except (ReproError, KeyError):
        problems.append(f"missing dataset record: {dataset}")
        return problems
    listed = {parse_object_key(k)[1] for k in _scan_keys(server, dataset, None)}
    recorded = set(dsrec.chunk_ids)
    for cid in listed - recorded:
        problems.append(f"chunk {cid.encode()} on storage but not in record")
    for cid in recorded - listed:
        problems.append(f"chunk {cid.encode()} in record but not on storage")
    return problems
