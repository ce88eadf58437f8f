"""DLCMD — the dataset management command-line tool (paper §5).

"A separate command-line tool (DLCMD, similar to s3cmd in Amazon S3) is
provided to write and manage the datasets in DIESEL."

Operates on a workspace file (``--workspace``, default
``./diesel.workspace``), which persists datasets as self-contained
chunks; metadata is rebuilt from chunk headers on every open.

Subcommands::

    dlcmd put <local-file-or-dir> <diesel-path>   upload file(s)
    dlcmd get <diesel-path> <local-file>          download one file
    dlcmd ls [<diesel-dir>]                       list a directory
    dlcmd stat <diesel-path>                      file/dir metadata
    dlcmd rm <diesel-path>                        tombstone one file
    dlcmd purge                                   rewrite holey chunks
    dlcmd save-meta <local-file>                  export the snapshot
    dlcmd datasets                                list datasets
    dlcmd info                                    workspace summary
    dlcmd stats                                   per-layer read latency
    dlcmd trace <local-file>                      chrome://tracing dump
    dlcmd verify                                  metadata vs chunks check
    dlcmd locality                                placement probe summary
    dlcmd scale                                   engine throughput probe
    dlcmd tenants                                 shared-tier tenant usage
    dlcmd tiers                                   RAM/NVMe tier residency probe
    dlcmd meta                                    metadata-plane probe

Every data-mutating command rewrites the workspace file.

The global ``--jobs`` flag sets the parallel I/O depth: chunk sends
kept in flight during ``put`` (ingest pipeline), concurrent header
reads on workspace open, and the batched-read fan-out used by
``stats``/``trace``.  The two observability commands attach a
:class:`repro.obs.SpanRecorder` to the client, server and KV shards,
replay a sample of reads, and report where the time went — ``stats``
as an aligned per-(op, layer) percentile table, ``trace`` as a Chrome
trace-event file viewable in ``chrome://tracing`` (see
docs/OBSERVABILITY.md).

Run:  python -m repro.tools.dlcmd --help
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.core.config import DieselConfig
from repro.errors import ReproError
from repro.obs.counters import stats_row
from repro.tools.workspace import DieselWorkspace
from repro.util.units import format_bytes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcmd",
        description="DIESEL dataset management tool (paper §5)",
    )
    parser.add_argument(
        "--workspace", "-w", default="diesel.workspace",
        help="workspace file holding the datasets (default: %(default)s)",
    )
    parser.add_argument(
        "--dataset", "-d", default="default",
        help="dataset name to operate on (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="parallel I/O depth: chunk sends kept in flight during put "
             "and concurrent header reads during workspace open "
             "(default: %(default)s = serial)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("put", help="upload a file or directory")
    p.add_argument("source", help="local file or directory")
    p.add_argument("dest", help="destination path inside the dataset")

    p = sub.add_parser("get", help="download one file")
    p.add_argument("path", help="path inside the dataset")
    p.add_argument("dest", help="local destination file")

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("path", nargs="?", default="/", help="directory to list")
    p.add_argument("-l", "--long", action="store_true",
                   help="include sizes (stat each entry)")

    p = sub.add_parser("stat", help="show one entry's metadata")
    p.add_argument("path")

    p = sub.add_parser("rm", help="delete (tombstone) one file")
    p.add_argument("path")

    sub.add_parser("purge", help="rewrite chunks with deletion holes")

    p = sub.add_parser("save-meta", help="export the metadata snapshot")
    p.add_argument("dest", help="local file for the snapshot blob")

    sub.add_parser("datasets", help="list datasets in the workspace")
    sub.add_parser("info", help="workspace summary")

    p = sub.add_parser(
        "stats", help="per-(op, layer) latency percentiles for sample reads"
    )
    p.add_argument(
        "-n", "--sample", type=int, default=32,
        help="max files to read for the measurement (default: %(default)s)",
    )

    p = sub.add_parser(
        "trace", help="write a chrome://tracing JSON of sample reads"
    )
    p.add_argument("dest", help="local output file (open in chrome://tracing)")
    p.add_argument(
        "-n", "--sample", type=int, default=32,
        help="max files to read for the trace (default: %(default)s)",
    )

    sub.add_parser(
        "verify",
        help="cross-check KV metadata against the dataset's chunks "
             "(the post-rebuild consistency check of docs/FAULTS.md)",
    )

    p = sub.add_parser(
        "locality",
        help="hash-vs-locality placement probe: local-hit fraction and "
             "epoch read time over simulated task nodes",
    )
    p.add_argument(
        "-N", "--nodes", type=int, default=2,
        help="simulated task nodes (one cache master each) for the "
             "probe (default: %(default)s)",
    )

    p = sub.add_parser(
        "scale",
        help="engine throughput probe: per-request vs batched "
             "admission on the same synthetic epoch "
             "(smoke-sized by default; no workspace data touched)",
    )
    p.add_argument(
        "-N", "--nodes", type=int, default=50,
        help="client nodes in the synthetic epoch (default: %(default)s)",
    )
    p.add_argument(
        "-n", "--requests", type=int, default=10_000,
        help="requests in the epoch (default: %(default)s; the full "
             "BENCH artifact uses 1000 nodes x 10^6 requests)",
    )
    p.add_argument(
        "-b", "--batch", type=int, default=64,
        help="admission batch size for the batched variant "
             "(default: %(default)s)",
    )

    p = sub.add_parser(
        "tenants",
        help="shared-tier probe: per-tenant quota usage, hit/miss and "
             "QoS admission counters over simulated concurrent tasks",
    )
    p.add_argument(
        "-N", "--tasks", type=int, default=2,
        help="concurrent simulated tasks sharing the node tier, one "
             "tenant each; task 0 registers as 'interactive', the rest "
             "as 'batch' (default: %(default)s)",
    )
    p.add_argument(
        "-q", "--quota", type=int, default=0,
        help="per-tenant per-node byte quota for the probe "
             "(default: %(default)s = unlimited)",
    )

    p = sub.add_parser(
        "tiers",
        help="tiered-store probe: cache the dataset on nodes with a "
             "small RAM budget + a simulated NVMe tier, read one "
             "epoch, report per-node tier residency and hit counters",
    )
    p.add_argument(
        "-m", "--ram", type=int, default=4 * 2**20,
        help="RAM budget per probe node in bytes (default: "
             "%(default)s = 4 MiB; size it below the dataset to see "
             "the disk tier absorb the overflow)",
    )
    p.add_argument(
        "--disk", type=int, default=0,
        help="disk-tier capacity per node in stored bytes "
             "(default: %(default)s = unbounded)",
    )
    p.add_argument(
        "-z", "--compress", action="store_true",
        help="compress chunks written to the disk tier (deterministic "
             "per-chunk ratios, see docs/CACHE_TIERS.md)",
    )

    sub.add_parser(
        "meta",
        help="metadata-plane probe: per-dataset snapshot version and "
             "journal depth/span, plus registry shard occupancy "
             "(see docs/METADATA.md)",
    )

    p = sub.add_parser(
        "chaos",
        help="hostile-world probe: read the dataset through an elastic "
             "task cache while one NIC degrades — prints live "
             "membership, per-peer EWMA latency, hedge counters and "
             "the active chaos schedule",
    )
    p.add_argument(
        "-N", "--nodes", type=int, default=3,
        help="simulated task nodes (one cache master each) before the "
             "mid-probe scale-up (default: %(default)s)",
    )
    p.add_argument(
        "--straggler-ms", type=float, default=1.0,
        help="extra per-transfer latency injected on one node's NIC "
             "(default: %(default)s ms)",
    )
    return parser


def _iter_local_files(source: Path) -> Iterable[tuple[Path, str]]:
    """(local path, relative name) pairs for a file or directory tree."""
    if source.is_file():
        yield source, source.name
        return
    for p in sorted(source.rglob("*")):
        if p.is_file():
            yield p, p.relative_to(source).as_posix()


def cmd_put(ws: DieselWorkspace, dataset: str, args) -> str:
    source = Path(args.source)
    if not source.exists():
        raise ReproError(f"no such local file or directory: {source}")
    client = ws.client(dataset)
    if source.is_file():
        items = [(args.dest, source.read_bytes())]
    else:
        items = [
            (f"{args.dest.rstrip('/')}/{rel}", local.read_bytes())
            for local, rel in _iter_local_files(source)
        ]
    # One batched upload: with --jobs > 1 chunk sends overlap the
    # packing of later files (the §4.1.1 ingest pipeline).
    client.put_many(items)
    total = sum(len(data) for _, data in items)
    return f"uploaded {len(items)} file(s), {format_bytes(total)}"


def cmd_get(ws: DieselWorkspace, dataset: str, args) -> str:
    data = ws.client(dataset).get(args.path)
    Path(args.dest).write_bytes(data)
    return f"{args.path} -> {args.dest} ({format_bytes(len(data))})"


def cmd_ls(ws: DieselWorkspace, dataset: str, args) -> str:
    client = ws.client(dataset)
    entries = client.ls(args.path)
    if not args.long:
        return "\n".join(entries) if entries else "(empty)"
    lines = []
    base = args.path.rstrip("/")
    for name in entries:
        full = name if name.startswith("/") else f"{base}/{name}"
        info = client.stat(full)
        kind = "d" if info["is_dir"] else "-"
        lines.append(f"{kind} {info['size']:>12}  {name}")
    return "\n".join(lines) if lines else "(empty)"


def cmd_stat(ws: DieselWorkspace, dataset: str, args) -> str:
    info = ws.client(dataset).stat(args.path)
    kind = "directory" if info["is_dir"] else "file"
    lines = [f"path:  {info['path']}", f"type:  {kind}",
             f"size:  {info['size']}"]
    if info.get("chunk_id"):
        lines.append(f"chunk: {info['chunk_id']}")
    return "\n".join(lines)


def cmd_rm(ws: DieselWorkspace, dataset: str, args) -> str:
    ws.client(dataset).delete(args.path)
    return f"deleted {args.path} (tombstoned; run purge to reclaim space)"


def cmd_purge(ws: DieselWorkspace, dataset: str, args) -> str:
    rewritten = ws.client(dataset).purge()
    return f"purge rewrote {rewritten} chunk(s)"


def cmd_save_meta(ws: DieselWorkspace, dataset: str, args) -> str:
    blob = ws.client(dataset).save_meta()
    Path(args.dest).write_bytes(blob)
    return f"snapshot saved to {args.dest} ({format_bytes(len(blob))})"


def cmd_datasets(ws: DieselWorkspace, dataset: str, args) -> str:
    names = ws.datasets()
    return "\n".join(names) if names else "(no datasets)"


def cmd_info(ws: DieselWorkspace, dataset: str, args) -> str:
    store = ws.tb.store
    lines = [
        f"datasets:     {len(ws.datasets())} ({', '.join(ws.datasets()) or '-'})",
        f"chunks:       {len(store)}",
        f"chunk bytes:  {format_bytes(store.size_bytes())}",
        f"kv pairs:     {ws.tb.kv.total_keys()}",
    ]
    return "\n".join(lines)


def _traced_sample_reads(ws: DieselWorkspace, dataset: str, limit: int):
    """Attach a recorder, replay a strided sample of reads, return it.

    The shared measurement behind ``stats`` and ``trace``: every file in
    the sample goes through the per-file ``DL_get`` path, then one
    batched ``get_many`` exercises the scatter-gather path (``--jobs``
    sets its fan-out).
    """
    from repro.obs import SpanRecorder

    if limit < 1:
        raise ReproError("--sample must be >= 1")
    sync = ws.client(dataset)
    recorder = SpanRecorder.attach(
        sync.client, ws.server, *ws.tb.kv.instances
    )
    index = sync.load_meta(sync.save_meta())
    paths = index.all_paths()
    if not paths:
        raise ReproError(f"dataset {dataset!r} has no files to sample")
    stride = max(1, len(paths) // limit)
    sample = paths[::stride][:limit]
    for path in sample:
        sync.get(path)
    if len(sample) > 1:
        sync.get_many(sample)
    return recorder


def _probe_caches(
    ws: DieselWorkspace, dataset: str, tag: str, nodes: int,
    tasks: Sequence[dict] = ({},), **node_kwargs,
):
    """The preamble every probe command shares: ``nodes`` probe nodes
    ``<tag>-n<i>`` on the workspace fabric (``node_kwargs``: e.g.
    ``memory_bytes``), one warmed task per entry of ``tasks`` — its
    :func:`~repro.bench.setups.make_task` keywords — spanning all of
    them, registrations racing.  Returns the tasks; an empty dataset
    is an error, and nothing about the workspace is mutated.
    """
    from repro.bench.setups import make_task, warm
    from repro.cluster.node import Node

    probe_nodes = [
        ws.tb.fabric.add_node(Node(ws.tb.env, f"{tag}-n{i}", **node_kwargs))
        for i in range(nodes)
    ]
    built = [
        make_task(
            ws.tb, dataset, probe_nodes,
            f"{tag}-c" if len(tasks) == 1 else f"{tag}-t{t}c", **kwargs,
        )
        for t, kwargs in enumerate(tasks)
    ]
    if not built[0].index.all_paths():
        raise ReproError(f"dataset {dataset!r} has no files to probe")
    warm(ws.tb, built)
    return built


def _locality_probe(
    ws: DieselWorkspace, dataset: str, n_nodes: int, placement: str, tag: str
):
    """Run one affinity-scheduled epoch over an ephemeral task cache.

    Spins up ``n_nodes`` simulated task nodes on the workspace fabric,
    elects one cache master per node (``placement`` policy), warms the
    cache, and has each node's worker read its shard of an
    owner-aligned epoch plan.  Returns ``(cache, elapsed_s, files)``;
    nothing about the workspace is mutated.
    """
    if n_nodes < 1:
        raise ReproError("--nodes must be >= 1")
    (task,) = _probe_caches(
        ws, dataset, f"{tag}-{placement}", n_nodes, [dict(placement=placement)]
    )
    # ~4 groups per worker so hash placement still gets a balanced deal.
    task.group_size = max(1, -(-len(task.index.chunk_ids()) // (4 * n_nodes)))
    scheduler = task.scheduler()
    elapsed = ws.tb.timed(
        task.read(w, scheduler.shard(0, w).files) for w in range(n_nodes)
    )
    return task.cache, elapsed, task.index.file_count


def _locality_counters(cache) -> str:
    keys = ["local_hits", "remote_hits", "coalesced_pulls", "replicated_chunks"]
    return "  ".join(f"{k} {v}" for k, v in stats_row(cache.stats, keys).items())


def cmd_stats(ws: DieselWorkspace, dataset: str, args) -> str:
    recorder = _traced_sample_reads(ws, dataset, args.sample)
    cache, _, _ = _locality_probe(ws, dataset, 2, "locality", "stats")
    return (
        recorder.summary()
        + "\n\ntask cache locality (2-node probe, placement=locality):\n  "
        + _locality_counters(cache)
    )


def cmd_locality(ws: DieselWorkspace, dataset: str, args) -> str:
    """Compare hash vs locality placement on an ephemeral task cache."""
    lines = [f"placement probe: {args.nodes} task node(s), dataset {dataset!r}"]
    for placement in ("hash", "locality"):
        cache, elapsed, files = _locality_probe(
            ws, dataset, args.nodes, placement, "loc"
        )
        s = cache.stats
        served = s.local_hits + s.remote_hits
        frac = s.local_hits / served if served else 0.0
        masters = ", ".join(
            f"{name}:{len(m.assigned)}" for name, m in sorted(cache.masters.items())
        )
        lines.append(
            f"{placement:>9}: local {frac:.0%} ({s.local_hits}/{served}), "
            f"epoch read {elapsed * 1e3:.3f}ms over {files} file(s)"
        )
        lines.append(f"           {_locality_counters(cache)}")
        lines.append(f"           chunks per master: {masters}")
    return "\n".join(lines)


def cmd_trace(ws: DieselWorkspace, dataset: str, args) -> str:
    from repro.obs import write_chrome_trace

    recorder = _traced_sample_reads(ws, dataset, args.sample)
    n = write_chrome_trace(recorder, args.dest)
    return (
        f"wrote {n} trace events to {args.dest} "
        "(load via chrome://tracing or https://ui.perfetto.dev)"
    )


def cmd_scale(ws: DieselWorkspace, dataset: str, args) -> str:
    """Run the engine scale experiment and print its table.

    A pure simulation-substrate probe (synthetic epoch, nothing from the
    workspace is read or written): both admission variants deliver the
    identical epoch and the table reports events/sec, peak event-heap
    occupancy and the speedup row — the operator-facing view
    of ``BENCH_scale.json``.
    """
    from repro.bench.experiments import scale_engine
    from repro.bench.reporting import format_result

    if args.nodes < 1 or args.requests < 1 or args.batch < 1:
        raise ReproError("--nodes, --requests and --batch must be >= 1")
    result = scale_engine(
        n_nodes=args.nodes, n_requests=args.requests, batch=args.batch
    )
    return format_result(result)


def _sharing_probe(
    ws: DieselWorkspace, dataset: str, n_tasks: int, quota_bytes: int,
    tag: str = "tenants",
):
    """Run ``n_tasks`` concurrent shared-tier tasks over the dataset.

    Spins up two simulated task nodes; every task spans both, so all
    tasks route admissions through the same node-level
    :class:`~repro.core.shared_cache.SharedChunkCache` instances.  Task
    0 registers as the 'interactive' tenant, the rest as 'batch'.  All
    registrations race (cross-task single-flight), then each task reads
    the full dataset once.  Returns ``(registry, caches)``; nothing
    about the workspace is mutated.
    """
    from repro.core.shared_cache import SharedCacheRegistry

    if n_tasks < 1:
        raise ReproError("--tasks must be >= 1")
    if quota_bytes < 0:
        raise ReproError("--quota must be >= 0")
    env = ws.tb.env
    registry = SharedCacheRegistry(env)
    if quota_bytes:
        for t in range(n_tasks):
            registry.set_quota(f"tenant{t}", quota_bytes)
    tasks = _probe_caches(
        ws, dataset, tag, 2,
        [
            dict(shared=registry, tenant=f"tenant{t}",
                 qos_class="interactive" if t == 0 else "batch")
            for t in range(n_tasks)
        ],
    )

    ws.tb.run_all(task.read(0, task.index.all_paths()) for task in tasks)
    return registry, [task.cache for task in tasks]


def cmd_tenants(ws: DieselWorkspace, dataset: str, args) -> str:
    """Per-tenant shared-tier usage over an ephemeral multi-task probe."""
    registry, caches = _sharing_probe(
        ws, dataset, args.tasks, args.quota
    )
    lines = [
        f"shared-tier probe: {args.tasks} concurrent task(s), "
        f"dataset {dataset!r}"
    ]
    lines.append("tenant       qos          quota         peak node use  ok")
    for cache, row in zip(caches, registry.tenant_rows()):
        quota = format_bytes(row["quota_bytes"]) if row["quota_bytes"] else "-"
        lines.append(
            f"{row['tenant']:<12} {cache.qos_class:<12} {quota:>12}  "
            f"{format_bytes(row['max_node_usage_bytes']):>12}  "
            f"{'yes' if row['within_quota'] else 'NO'}"
        )
    s = registry.stats
    admitted = s.cold_admissions + s.warm_admissions
    warm_frac = s.warm_admissions / admitted if admitted else 0.0
    lines.append(
        f"admissions: {admitted} ({s.warm_admissions} warm / "
        f"{s.cold_admissions} cold, {warm_frac:.0%} served from "
        f"resident chunks), {s.coalesced_pulls} coalesced in flight"
    )
    counters = stats_row(registry.stats, prefix="shared_")
    lines.append("  ".join(f"{k[7:]} {v}" for k, v in counters.items()))
    return "\n".join(lines)


def cmd_tiers(ws: DieselWorkspace, dataset: str, args) -> str:
    """Per-node RAM/NVMe residency over an ephemeral tiered-cache probe.

    Spins up two probe nodes whose RAM budget is ``--ram`` bytes each,
    caches the dataset through a tiered-store shared registry, reads
    every file once, and reports where the chunks ended up and which
    tier served the reads.  Nothing about the workspace is mutated.
    """
    from repro.core.shared_cache import SharedCacheRegistry

    if args.ram < 1:
        raise ReproError("--ram must be >= 1")
    if args.disk < 0:
        raise ReproError("--disk must be >= 0")
    env = ws.tb.env
    registry = SharedCacheRegistry(
        env, store="tiered", disk_tier_bytes=args.disk,
        chunk_compression=args.compress,
    )
    (task,) = _probe_caches(
        ws, dataset, "tiers", 2, [dict(shared=registry)], memory_bytes=args.ram
    )
    ws.tb.run(task.read(0, task.index.all_paths()))

    lines = [
        f"tiered-store probe: dataset {dataset!r}, 2 node(s), "
        f"{format_bytes(args.ram)} RAM each, disk "
        f"{format_bytes(args.disk) if args.disk else 'unbounded'}, "
        f"compression {'on' if args.compress else 'off'}"
    ]
    lines.append(
        "node      chunks ram/disk      ram bytes     disk bytes   "
        "stored       hits ram/disk"
    )
    for row in registry.tier_rows():
        lines.append(
            f"{row['node']:<9} {row['chunks_ram']:>6} /{row['chunks_disk']:>5}"
            f"   {format_bytes(row['ram_bytes']):>12} "
            f"{format_bytes(row['disk_bytes']):>14}   "
            f"{format_bytes(row['disk_stored_bytes']):>10} "
            f"{row['ram_hits']:>8} /{row['disk_hits']:>5}"
        )
    s = registry.store_stats
    lines.append(
        f"tier traffic: {s.disk_admits} disk admits, {s.promotions} "
        f"promotions, {s.demotions} demotions, {s.disk_evictions} "
        f"capacity evictions, {s.compress_ops} chunks compressed"
    )
    if s.disk_stored_bytes and args.compress:
        lines.append(
            f"compression: {format_bytes(s.disk_bytes)} logical stored "
            f"as {format_bytes(s.disk_stored_bytes)} "
            f"(x{s.disk_bytes / s.disk_stored_bytes:.2f})"
        )
    return "\n".join(lines)


def cmd_chaos(ws: DieselWorkspace, dataset: str, args) -> str:
    """Hostile-world probe over an ephemeral elastic task cache.

    Spins up ``--nodes`` task nodes, warms the cache, enables hedged
    reads (delay calibrated at 2x the healthy p99), arms a
    :class:`~repro.cluster.failure.ChaosSchedule` that degrades one
    node's NIC, reads the dataset through the storm, scales one extra
    node in live, and reads again.  Prints the operator view: live
    membership, per-peer EWMA latency rows, hedge counters, and the
    chaos schedule with its applied/active windows.  Nothing about the
    workspace is mutated.
    """
    from repro.cluster.failure import ChaosSchedule
    from repro.cluster.node import Node
    from repro.core.dist_cache import CacheClient

    if args.nodes < 1:
        raise ReproError("--nodes must be >= 1")
    if args.straggler_ms < 0:
        raise ReproError("--straggler-ms must be >= 0")
    (task,) = _probe_caches(ws, dataset, "chaos", args.nodes)
    cache, index = task.cache, task.index
    paths = index.all_paths()
    env, fabric, run = ws.tb.env, ws.tb.fabric, ws.tb.run

    # Degrade the most-loaded master's node and read from another node,
    # so the probe's reads actually cross the hostile NIC.
    straggler_name = max(
        cache.masters, key=lambda n: (len(cache.masters[n].assigned), n)
    )
    straggler = fabric.node(straggler_name)
    cc = next(
        (c for c in cache.clients if c.node.name != straggler_name),
        cache.clients[0],
    )
    lat = []

    def read_pass():
        for path in paths:
            t0 = env.now
            yield from cache.read_file(cc, index.lookup(path))
            lat.append(env.now - t0)

    # Hedging on but unreachable during the healthy pass: primaries all
    # win, which populates the per-peer EWMA tracker without firing.
    cache.configure_hedging(delay_s=60.0)
    run(read_pass())  # healthy pass: calibrates the hedge delay
    lat.sort()
    healthy_p99 = lat[max(0, int(len(lat) * 0.99) - 1)]
    cache.configure_hedging(delay_s=2 * healthy_p99)
    chaos = ChaosSchedule(env)
    chaos.degrade_nic(
        straggler, factor=4.0, extra_latency_s=args.straggler_ms * 1e-3,
        at=env.now, duration_s=60.0,
    )
    chaos.start()
    run(read_pass())  # storm pass: hedges fire against the straggler
    joiner = fabric.add_node(Node(env, f"chaos-n{args.nodes}"))
    run(cache.scale_up(
        [CacheClient(f"chaos-j{args.nodes}", joiner, args.nodes)]
    ))
    run(read_pass())  # post-scale pass over the grown membership

    lines = [
        f"chaos probe: {args.nodes} task node(s) + 1 live joiner, "
        f"dataset {dataset!r}",
        f"membership (version {cache.membership_version}): "
        f"{len(cache.masters)} master(s)",
    ]
    for name, master in sorted(cache.masters.items()):
        degraded = " [NIC degraded]" if master.node.degraded else ""
        lines.append(
            f"  {name}: {len(master.assigned)} chunk(s) "
            f"via {master.client.name}{degraded}"
        )
    for t, event, names in cache.scale_events:
        lines.append(
            f"  scale event t={t:.4f}s: {event} {', '.join(names)}"
        )
    lines.append("peer latency (EWMA, slowest first):")
    for row in cache.peer_latency.rows():
        delay = row["hedge_delay_s"]
        peer, method = row["peer"]
        lines.append(
            f"  {peer} {method}: {row['samples']} sample(s), "
            f"ewma {row['ewma_s'] * 1e3:.3f}ms, "
            f"dev {row['dev_s'] * 1e3:.3f}ms, hedge delay "
            + (f"{delay * 1e3:.3f}ms" if delay is not None else "n/a")
        )
    hs = cache.hedge_stats
    lines.append(
        f"hedge counters: {hs.reads} hedged-path reads, "
        f"{hs.hedges_fired} hedges fired, {hs.backup_wins} backup wins, "
        f"{hs.cancelled_losers} losers cancelled, "
        f"{hs.duplicate_transfers} duplicate transfers, "
        f"{hs.failovers} failovers"
    )
    lines.append("chaos schedule:")
    for sc in chaos.describe():
        lines.append(f"  declared t={sc['at']:.4f}s: {sc['label']}")
    active = chaos.active()
    lines.append(
        "  active now: " + (", ".join(active) if active else "(none)")
    )
    for t, action, target in chaos.log:
        lines.append(f"  log t={t:.4f}s: {action} {target}")
    return "\n".join(lines)


def cmd_verify(ws: DieselWorkspace, dataset: str, args) -> str:
    """Check every indexed file resolves through the KV metadata.

    The expectations come from the chunk headers themselves (the
    workspace re-reads them on open), so this catches KV drift — the
    check `recovery.verify_rebuild` runs after a shard rebuild, exposed
    as a standalone command for operators.
    """
    from repro.core.recovery import verify_rebuild

    sync = ws.client(dataset)
    index = sync.load_meta(sync.save_meta())
    expected = {
        path: index.lookup(path).length for path in index.all_paths()
    }
    if not expected:
        raise ReproError(f"dataset {dataset!r} has no files to verify")
    problems = verify_rebuild(ws.server, dataset, expected)
    if problems:
        raise ReproError(
            f"metadata inconsistent ({len(problems)} problems):\n  "
            + "\n  ".join(problems)
        )
    return f"metadata consistent: {len(expected)} files verified, 0 problems"


def cmd_meta(ws: DieselWorkspace, dataset: str, args) -> str:
    """Metadata-plane probe: journal, snapshot versions, registry.

    Reads the same counters the ``metaplane`` experiment asserts on —
    per-dataset snapshot version (``update_ts``), retained journal
    depth and version span (what a delta ``refresh_meta`` can span
    before falling back to a full reload), and how the dataset
    registry's names spread across its hash shards.
    """
    server = ws.server
    reg = server.registry
    occ = reg.occupancy()
    occupied = sum(1 for n in occ if n)
    lines = [
        f"registry:         {reg.count()} dataset(s) on "
        f"{occupied}/{reg.n_shards} shards "
        f"(max {max(occ, default=0)} per shard)",
        f"journal horizon:  {server.journal.horizon} "
        f"version(s) retained per dataset",
    ]
    names = server.datasets()
    if not names:
        lines.append("(no datasets)")
        return "\n".join(lines)
    lines.append(f"{'dataset':<16} {'version':>8} {'depth':>6}  span")
    for name in names:
        version = server.dataset_info(name).update_ts
        depth = server.journal.depth(name)
        span = server.journal.span(name)
        span_s = f"v{span[0]}..v{span[1]}" if span else "-"
        lines.append(f"{name:<16} {version:>8} {depth:>6}  {span_s}")
    return "\n".join(lines)


_COMMANDS = {
    "put": (cmd_put, True),
    "get": (cmd_get, False),
    "ls": (cmd_ls, False),
    "stat": (cmd_stat, False),
    "rm": (cmd_rm, True),
    "purge": (cmd_purge, True),
    "save-meta": (cmd_save_meta, False),
    "datasets": (cmd_datasets, False),
    "info": (cmd_info, False),
    "stats": (cmd_stats, False),
    "trace": (cmd_trace, False),
    "verify": (cmd_verify, False),
    "locality": (cmd_locality, False),
    "scale": (cmd_scale, False),
    "tenants": (cmd_tenants, False),
    "tiers": (cmd_tiers, False),
    "meta": (cmd_meta, False),
    "chaos": (cmd_chaos, False),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, mutates = _COMMANDS[args.command]
    if args.jobs < 1:
        print("dlcmd: error: --jobs must be >= 1", file=sys.stderr)
        return 2
    config = DieselConfig(
        ingest_pipeline_depth=args.jobs, read_fanout=args.jobs
    )
    try:
        ws = DieselWorkspace.open(args.workspace, config)
        message = handler(ws, args.dataset, args)
        if mutates:
            ws.save(args.workspace)
    except ReproError as exc:
        print(f"dlcmd: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"dlcmd: error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
