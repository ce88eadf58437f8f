"""The metric dictionary: every number perfbench reports, declared once.

``BENCHMARK.json`` (repo root) is ``manifest()`` written out; the smoke
test keeps the two in sync.  ``clock`` says which clock a figure is on:
``sim`` figures repeat exactly for a fixed seed, ``host`` figures carry
machine noise and are normalised by a co-measured reference loop
(``perfbench.calibrate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Seconds one driver run measures (``--seconds``); BENCHMARK.json's
#: ``run_seconds`` and the default of ``python -m perfbench run``.
RUN_SECONDS = 8


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "sim" | "host"
    better: str  # "lower" | "higher"
    #: Layer (module name) that owns the figure; "" for end-to-end.
    layer: str = ""
    #: End-to-end only: share of the reference value it may worsen by.
    bound: Optional[float] = None
    #: Per-layer only: the end-to-end metric → workload it should move.
    moves: str = ""
    #: Only a traced run can measure it (sampler, span proxies, recorder).
    traced_only: bool = False
    #: Per-layer only: one line on how it is computed.
    what: str = ""


WORKLOADS: Dict[str, str] = {
    "cached_epoch": (
        "dataset fits one task-private RAM cache: steady state is 1/4 "
        "local and 3/4 one-hop peer reads, so dist_cache, rpc, fabric "
        "and the sim kernel do the work"
    ),
    "stream_epoch": (
        "no task cache, chunk-wise shuffle with prefetch over the "
        "HDD->SSD store: client, server, objectstore and devices carry "
        "it; the control for any cache change"
    ),
    "tiered_sweep": (
        "two tasks share one tiered, compressed node cache 4x smaller "
        "than the dataset: the only workload with shared_cache and "
        "chunk_store RAM<->disk moves on the read path"
    ),
    "ingest_meta": (
        "pipelined puts beside refresh_meta, ls, stat and delete: "
        "client put path, server ingest, kvstore and the metadata "
        "plane dominate; the inverse of cached_epoch"
    ),
}

# The acceptance check draws a fresh seed per run, so every bound has to
# hold the spread *across seeds* three times over (README, "Bounds"):
# for the sim figures that is the spread of the generated datasets and
# shuffles, not noise.  Runs of one seed compare exactly.  The mean, not
# the median, is the gated latency figure: on stream_epoch more than half
# the ops are group-cache hits of one modelled cost, so the median reads
# the same to the last digit on every seed (it is printed with the run).
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "host", "lower", bound=0.25),
    Metric("sim_time_s", "s", "sim", "lower", bound=0.15),
    Metric("sim_op_mean_ms", "ms", "sim", "lower", bound=0.12),
    Metric("sim_op_p99_ms", "ms", "sim", "lower", bound=0.12),
    Metric("backend_bytes_ratio", "ratio", "sim", "lower", bound=0.05),
    Metric("host_us_per_op", "us", "host", "lower", bound=0.25),
    Metric("host_peak_rss_mb", "MiB", "host", "lower", bound=0.05),
]

#: Reported with every run but not a BENCHMARK.json metric: it is 0 on
#: every workload by construction (the contract wants metrics that are
#: never 0, and carries failures in ``attempted``/``failed`` instead).
FAILED_OP_FRAC = Metric("failed_op_frac", "ratio", "sim", "lower", bound=0.0)


def _layer(layer: str, moves: str, *rows) -> List[Metric]:
    out = []
    for suffix, unit, clock, better, what, *flags in rows:
        out.append(Metric(
            f"{layer}.{suffix}", unit, clock, better, layer=layer,
            moves=moves, what=what, traced_only=bool(flags),
        ))
    return out


T = True  # traced-only flag, for the tables below
_SHARE = ("host_share", "ratio", "host", "lower",
          "share of CPU samples whose innermost program frame is in this "
          "layer (reference blocks)", T)

PER_LAYER: List[Metric] = [
    *_layer(
        "sim",
        "host_us_per_op -> cached_epoch, tiered_sweep; none on ingest_meta; "
        "must leave every sim metric identical",
        ("events_per_op", "count", "sim", "lower",
         "kernel events processed / ops"),
        ("events_per_host_s", "1/s", "host", "higher",
         "kernel events / normalised CPU seconds of blocks 0..B-1"),
        ("peak_occupancy", "count", "sim", "lower",
         "most events ever queued in the scheduler"),
        _SHARE,
    ),
    *_layer(
        "cluster",
        "sim_time_s, sim_op_p99_ms -> stream_epoch (hdd/ssd busy), "
        "tiered_sweep (cache disk busy), cached_epoch (fabric)",
        ("fabric_bytes_per_user_byte", "ratio", "sim", "lower",
         "bytes moved over the fabric / user bytes"),
        ("fabric_transfers_per_op", "count", "sim", "lower",
         "fabric transfers / ops"),
        ("fabric_intra_node_frac", "ratio", "sim", "higher",
         "transfers that stayed on one node / transfers"),
        ("ssd_busy_frac", "ratio", "sim", "lower",
         "backend SSD pool busy time / (sim time x queue depth)"),
        ("hdd_busy_frac", "ratio", "sim", "lower",
         "backend HDD busy time / (sim time x queue depth); 0 without one"),
        ("cache_disk_busy_frac", "ratio", "sim", "lower",
         "busiest cache-tier NVMe busy time / (sim time x channels)"),
        ("device_read_ops_per_op", "count", "sim", "lower",
         "reads issued to any device / ops"),
        _SHARE,
    ),
    *_layer(
        "rpc",
        "sim_op_mean_ms, sim_time_s, host_us_per_op -> cached_epoch; "
        "queue p99 -> sim_op_p99_ms on stream_epoch",
        ("calls_per_op", "count", "sim", "lower",
         "calls to server, cache-master and KV endpoints / ops"),
        ("batches", "count", "sim", "higher", "call_batch invocations"),
        ("errors", "count", "sim", "lower", "handler errors"),
        ("queue_p50_ms", "ms", "sim", "lower",
         "median wait for an endpoint worker (recorder)", T),
        ("queue_p99_ms", "ms", "sim", "lower", "p99 of the same", T),
        ("service_p50_ms", "ms", "sim", "lower",
         "median time holding an endpoint worker (recorder)", T),
        ("busy_frac_max", "ratio", "sim", "lower",
         "busiest non-KV endpoint: service seconds / sim second"),
        _SHARE,
    ),
    *_layer(
        "kvstore",
        "host_us_per_op, sim_time_s -> ingest_meta; setup_s -> all; "
        "none on the epoch workloads' timed phase",
        ("calls_per_op", "count", "sim", "lower",
         "ShardedKV local_* calls / ops (counting proxy)", T),
        ("keys", "count", "sim", "lower", "keys held at the end"),
        ("busy_frac_max", "ratio", "sim", "lower",
         "busiest KV endpoint: service seconds / sim second"),
        _SHARE,
    ),
    *_layer(
        "objectstore",
        "backend_bytes_ratio, sim_op_p99_ms, sim_time_s -> stream_epoch; "
        "backend_bytes_ratio (write amplification) -> ingest_meta",
        ("chunk_reads", "count", "sim", "lower",
         "object reads served (whole chunks and ranges)"),
        ("bytes_read", "B", "sim", "lower", "bytes its devices read"),
        ("bytes_written", "B", "sim", "lower", "bytes its devices wrote"),
        ("ssd_hit_frac", "ratio", "sim", "higher",
         "tiered store: reads served by the SSD tier / reads"),
        ("chunk_read_p50_ms", "ms", "sim", "lower",
         "median chunk read at the store (recorder)", T),
        _SHARE,
    ),
    *_layer(
        "core.server",
        "sim_time_s -> stream_epoch, ingest_meta; backend_bytes_ratio "
        "(duplicates) -> tiered_sweep warm-up",
        ("chunk_reads", "count", "sim", "lower", "get_chunk ops served"),
        ("batch_reads", "count", "sim", "lower", "batched read ops served"),
        ("ingests", "count", "sim", "lower", "chunks ingested"),
        ("duplicate_chunk_reads", "count", "sim", "lower",
         "chunks pulled from a server more than once within one block "
         "(proxy)", T),
        ("data_busy_frac", "ratio", "sim", "lower",
         "data endpoints: service seconds / sim second, summed"),
        ("meta_busy_frac", "ratio", "sim", "lower",
         "metadata endpoints: service seconds / sim second, summed"),
        _SHARE,
    ),
    *_layer(
        "core.client",
        "sim_op_p99_ms, sim_time_s, backend_bytes_ratio, host_us_per_op "
        "-> stream_epoch; put/refresh figures -> ingest_meta",
        ("group_hit_frac", "ratio", "sim", "higher",
         "gets served by the client's chunk-group cache / gets"),
        ("server_reads", "count", "sim", "lower",
         "reads the clients sent to a server"),
        ("prefetch_hit_frac", "ratio", "sim", "higher",
         "prefetch hits / (hits + misses)"),
        ("prefetch_wasted", "count", "sim", "lower",
         "prefetched chunks dropped unread"),
        ("fetch_inflight_hwm", "count", "sim", "higher",
         "most chunk fetches one client had in flight"),
        ("ingest_inflight_hwm", "count", "sim", "higher",
         "most chunk ingests one client had in flight"),
        ("chunks_sent", "count", "sim", "lower", "chunks the clients sent"),
        ("delta_reloads", "count", "sim", "higher",
         "refresh_meta calls answered by a journal delta"),
        ("full_reloads", "count", "sim", "lower",
         "refresh_meta calls that fell back to a full snapshot"),
        ("delta_bytes_per_refresh", "B", "sim", "lower",
         "delta bytes / delta reloads"),
        ("get_server_p99_ms", "ms", "sim", "lower",
         "p99 of gets resolved by a server (recorder)", T),
        _SHARE,
    ),
    *_layer(
        "core.dist_cache",
        "sim_op_mean_ms, sim_time_s, host_us_per_op -> cached_epoch, "
        "tiered_sweep; must not move stream_epoch",
        ("local_hit_frac", "ratio", "sim", "higher",
         "task-cache reads served on the reader's node / reads"),
        ("remote_hit_frac", "ratio", "sim", "lower",
         "reads served by a peer master over RPC / reads"),
        ("disk_hit_frac", "ratio", "sim", "lower",
         "reads served from a cache disk tier / reads"),
        ("degraded_reads", "count", "sim", "lower",
         "reads that fell through to the backend"),
        ("coalesced_pulls", "count", "sim", "higher",
         "warm-up pulls that joined one in flight"),
        ("warmup_sim_s", "s", "sim", "lower",
         "sim seconds of register + warm-up (block 0)"),
        ("pull_inflight_hwm", "count", "sim", "higher",
         "most pulls one master had in flight"),
        ("connections", "count", "sim", "lower",
         "client-master connections held"),
        _SHARE,
    ),
    *_layer(
        "core.shared_cache",
        "backend_bytes_ratio, sim_time_s, host_peak_rss_mb -> "
        "tiered_sweep only",
        ("warm_admit_frac", "ratio", "sim", "higher",
         "admissions that found the chunk resident / admissions"),
        ("cross_task_reads", "count", "sim", "higher",
         "reads of a chunk another task admitted"),
        ("evictions", "count", "sim", "lower", "chunks evicted"),
        ("quota_rejections", "count", "sim", "lower",
         "admissions refused by a tenant quota"),
        ("bytes_resident", "B", "sim", "lower", "bytes resident at the end"),
        _SHARE,
    ),
    *_layer(
        "core.chunk_store",
        "sim_op_mean_ms, sim_op_p99_ms, sim_time_s -> tiered_sweep; "
        "host_us_per_op -> tiered_sweep, slightly cached_epoch",
        ("ram_hit_frac", "ratio", "sim", "higher",
         "store hits in RAM / store hits"),
        ("disk_hits", "count", "sim", "lower", "store hits on the disk tier"),
        ("promotions", "count", "sim", "lower", "disk -> RAM moves"),
        ("demotions", "count", "sim", "lower", "RAM -> disk moves"),
        ("disk_admits", "count", "sim", "lower",
         "chunks admitted straight to disk"),
        ("compress_ops", "count", "sim", "lower", "chunk compressions"),
        ("stored_bytes_per_logical_byte", "ratio", "sim", "lower",
         "bytes on the disk tier / bytes they hold uncompressed"),
        _SHARE,
    ),
    *_layer(
        "core.meta",
        "host_us_per_op, sim_time_s -> ingest_meta; setup_s -> all",
        ("snapshot_bytes", "B", "sim", "lower",
         "serialized snapshot of the dataset at the end"),
        ("delta_ops_applied", "count", "sim", "lower",
         "journal entries clients applied in place"),
        ("kv_keys_per_file", "count", "sim", "lower",
         "KV keys / live files"),
        _SHARE,
    ),
    *_layer(
        "dlt",
        "sim_time_s -> cached_epoch, tiered_sweep (stall x iterations is "
        "the I/O part of time-to-epoch)",
        ("data_stall_frac", "ratio", "sim", "lower",
         "time compute waited for a batch / training wall time"),
        ("data_time_p50_ms", "ms", "sim", "lower",
         "median per-iteration wait for the next batch"),
        ("data_time_p99_ms", "ms", "sim", "lower", "p99 of the same"),
        ("iterations", "count", "sim", "higher", "training iterations run"),
        _SHARE,
    ),
    *_layer("util", "host_us_per_op -> ingest_meta; setup_s", _SHARE),
    *_layer("ft", "none: must read ~0 on all four workloads", _SHARE),
    *_layer("obs", "none: must read ~0 (the recorder is detached)", _SHARE),
    *_layer("other", "none: the benchmark's own op proxy and verification",
            _SHARE),
    *_layer(
        "host",
        "none: they say how far to trust the host figures",
        ("raw_us_per_op", "us", "host", "lower",
         "host_us_per_op before normalisation: median block CPU / ops"),
        ("machine_slowdown", "ratio", "host", "lower",
         "median block's reference-loop CPU time / its quiet-machine cost"),
        ("block_max_over_min", "ratio", "host", "lower",
         "dearest / cheapest timed block (normalised CPU per op)"),
        ("warmup_block_s", "s", "host", "lower",
         "normalised CPU seconds of block 0 (task start)"),
        ("wall_over_cpu", "ratio", "host", "lower",
         "wall / CPU seconds of the timed blocks"),
    ),
    *_layer(
        "trace",
        "none: tracing cost, not gated",
        ("samples", "count", "host", "higher",
         "CPU samples taken over the reference blocks", T),
        ("overhead_frac", "ratio", "host", "lower",
         "traced / reference host_us_per_op - 1", T),
    ),
]

#: Layers that receive profiler samples; their shares sum to 1.
SHARE_LAYERS = [m.layer for m in PER_LAYER if m.name.endswith(".host_share")]

BY_NAME: Dict[str, Metric] = {
    m.name: m for m in [*END_TO_END, FAILED_OP_FRAC, *PER_LAYER]
}


def manifest() -> dict:
    """The contents of ``/BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
