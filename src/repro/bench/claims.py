"""What each experiment must show, checked on the rows it produced.

``CLAIMS[id](result)`` lists experiment ``id``'s claims: the paper's
shape (orderings, magnitudes inside a stated band) or the scenario's
own invariants.  A claim reads only ``result.rows``, so it judges a
committed ``BENCH_<id>.json`` as well as a live run.  The runner prints
every claim after its experiment and fails the run on a false one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

import numpy as np

from repro.bench.experiments import PAPER
from repro.bench.harness import ExperimentResult as Result
from repro.bench.reporting import format_value
from repro.calibration import KB, MB


class Claim(NamedTuple):
    """One judged statement about an experiment's rows."""

    text: str
    #: The value(s) the claim was judged on, formatted.
    measured: str
    ok: bool


Claims = List[Claim]


def _show(value: Any) -> str:
    """A tuple is several measured values, a list one value per row."""
    if isinstance(value, tuple):
        return ", ".join(map(_show, value))
    if isinstance(value, list):
        return "[" + ", ".join(map(_show, value)) + "]"
    return format_value(value)


def _claims(*triples: tuple) -> Claims:
    """``(text, ok, measured)`` triples as claims."""
    return [Claim(text, _show(value), bool(ok)) for text, ok, value in triples]


def _near(value: float, ref: float, rel: float) -> bool:
    """``value`` within ``rel`` of ``ref``, relative to ``ref``."""
    return abs(value - ref) <= rel * abs(ref)


def _col(rows: List[Dict[str, Any]], key: str) -> list:
    return [row[key] for row in rows]


def _mean(values: list) -> float:
    return float(np.mean(values))


def _table2(r: Result) -> Claims:
    fps, mbps = _col(r.rows, "files_per_s"), _col(r.rows, "mbps")
    iops = r.one(file_size=4 * MB)["iops_4k"] / r.one(file_size=4 * KB)["iops_4k"]
    return _claims(
        ("every file size within 20% of the paper's files/s", all(
            _near(x["files_per_s"], x["paper_files_per_s"], 0.20)
            for x in r.rows), fps),
        ("4 MB reads: 20-30x the 4K-IOPS of 4 KB reads", 20 <= iops <= 30, iops),
        ("bandwidth grows with request size", mbps == sorted(mbps), mbps),
    )


def _fig6(r: Result) -> Claims:
    speed, hits = _col(r.rows, "read_speed_files_per_s"), _col(r.rows, "hit_ratio")
    base, one, two = _mean(speed[5:25]), _mean(speed[45:65]), _mean(speed[85:])
    hit0, hit1, hit2 = min(hits[:30]), _mean(hits[40:65]), _mean(hits[85:])
    return _claims(
        ("hit ratio > 0.999 before the first kill", hit0 > 0.999, hit0),
        ("one node down: hit ratio 0.90-0.99", 0.90 < hit1 < 0.99, hit1),
        ("two nodes down: hit ratio lower still", hit2 < hit1, (hit2, hit1)),
        ("one node down (a few % misses) costs > 40% of the read speed "
         "(paper: ~90% at ~5% misses)", one < 0.6 * base, (one, base)),
        ("two nodes down cost > 60% of the read speed", two < 0.4 * base,
         (two, base)),
        ("the second kill slows reads further", two < one, (two, one)),
    )


def _fig9(r: Result) -> Claims:
    a, b = r.one(file_size=4 * KB), r.one(file_size=128 * KB)
    diesel, mc, lustre = ([x[f"{s}_files_per_s"] for x in (a, b)]
                          for s in ("diesel", "memcached", "lustre"))
    gap = (a["speedup_vs_memcached"], b["speedup_vs_memcached"])
    return _claims(
        ("4 KB and 128 KB: DIESEL writes faster than Memcached",
         all(d > m for d, m in zip(diesel, mc)), diesel),
        ("4 KB and 128 KB: Memcached writes faster than Lustre",
         all(m > lu for m, lu in zip(mc, lustre)), mc),
        ("DIESEL > 1M 4 KB files/s (paper: > 2M)", diesel[0] > 1_000_000,
         diesel[0]),
        ("4 KB: > 100x Lustre (paper: 366.7x)", a["speedup_vs_lustre"] > 100,
         a["speedup_vs_lustre"]),
        ("128 KB: > 30x Lustre (paper: 127.3x)", b["speedup_vs_lustre"] > 30,
         b["speedup_vs_lustre"]),
        ("the Memcached gap more than doubles from 4 KB to 128 KB (paper: "
         "1.79x -> 17.3x)", gap[1] > 2 * gap[0], gap),
    )


def _fig10a(r: Result) -> Claims:
    def qps(servers: int, nodes: int) -> float:
        return r.one(servers=servers, client_nodes=nodes)["qps"]

    q12, q110, q37, q310, q510 = (qps(1, 2), qps(1, 10), qps(3, 7), qps(3, 10),
                                  qps(5, 10))
    return _claims(
        ("1 server saturates by ~2 client nodes: 10 add < 15%",
         q110 < 1.15 * q12, (q12, q110)),
        ("3 servers keep scaling past where 1 flattened",
         q37 > 2.5 * q110 * 0.9, (q110, q37)),
        ("3 servers flatten by ~7 client nodes", q310 < 1.15 * q37, (q37, q310)),
        ("5 servers > 0.85M QPS (Redis cap ~0.97M)", q510 > 0.85e6, q510),
        ("5 servers < 1.25M QPS", q510 < 1.25e6, q510),
    )


def _fig10b(r: Result) -> Claims:
    first, last = r.rows[0]["qps"], r.rows[-1]["qps"]
    per_node = [x["qps"] / x["client_nodes"] for x in r.rows]
    paper = PAPER["fig10b"]
    return _claims(
        ("1 node within 10% of the paper's 8.83M QPS",
         _near(first, paper["qps_1node"], 0.10), first),
        ("10 nodes within 10% of the paper's 88.77M QPS",
         _near(last, paper["qps_10nodes"], 0.10), last),
        ("linear: QPS per node constant to 1%",
         max(per_node) / min(per_node) < 1.01, per_node),
        ("> 1000x a Lustre MDS bound of 68k QPS", last / 68_000 > 1000,
         last / 68_000),
    )


def _fig10c(r: Result) -> Claims:
    lustre, fuse = r.one(system="lustre"), r.one(system="diesel-fuse")
    lr, llr = lustre["ls_R_seconds"], lustre["ls_lR_seconds"]
    fr, flr = fuse["ls_R_seconds"], fuse["ls_lR_seconds"]
    xlr = r.one(system="xfs")["ls_lR_seconds"]
    return _claims(
        ("Lustre ls -R is client-bound: 25-50 s (paper: 30-40 s)", 25 < lr < 50, lr),
        ("DIESEL-FUSE ls -R is client-bound: 25-50 s", 25 < fr < 50, fr),
        ("Lustre ls -lR > 3x its ls -R (sizes live on the OSS)", llr > 3 * lr,
         (llr, lr)),
        ("Lustre ls -lR > 120 s (paper: ~170 s)", llr > 120, llr),
        ("DIESEL-FUSE ls -lR < 1.6x its ls -R (O(1) snapshot lookups)",
         flr < 1.6 * fr, (flr, fr)),
        ("DIESEL-FUSE ls -lR beats local XFS", flr < xlr, (flr, xlr)),
    )


def _fig11a(r: Result) -> Claims:
    first, last = r.rows[0], r.rows[-1]
    api, fuse = last["diesel_api_qps"], last["diesel_fuse_qps"]
    mc, lustre = last["memcached_qps"], last["lustre_qps"]
    api0, lustre0 = first["diesel_api_qps"], first["lustre_qps"]
    return _claims(
        ("most nodes: DIESEL API > FUSE", api > fuse, (api, fuse)),
        ("most nodes: FUSE > Memcached", fuse > mc, (fuse, mc)),
        ("most nodes: Memcached > Lustre", mc > lustre, (mc, lustre)),
        ("API within 35% of the paper's 1.2M QPS",
         _near(api, PAPER["fig11a"]["diesel_api"], 0.35), api),
        ("FUSE > 50% of API", last["fuse_to_api"] > 0.5, last["fuse_to_api"]),
        ("Lustre < 100k QPS", lustre < 100_000, lustre),
        ("DIESEL API scales > 5x over the node sweep", api > 5 * api0, (api0, api)),
        ("Lustre does not scale: < 1.5x over the node sweep",
         lustre < 1.5 * lustre0, (lustre0, lustre)),
    )


def _fig11b(r: Result) -> Claims:
    d, m = r.where(system="diesel"), r.where(system="memcached")
    done = (d[-1]["at_s"], m[-1]["at_s"])
    dr, mr = ((x[0]["batch_read_s"], x[-1]["batch_read_s"]) for x in (d, m))
    return _claims(
        ("DIESEL loads 100% in < 1/10 of Memcached's refill",
         done[0] < done[1] / 10, done),
        ("DIESEL batch reads are faster once warm", dr[1] < dr[0], dr),
        ("Memcached batch reads improve as the cache refills", mr[1] < mr[0], mr),
    )


def _fig12(r: Result) -> Claims:
    a, b = r.one(file_size=4 * KB), r.one(file_size=128 * KB)
    paper = PAPER["fig12"]
    f4, f128 = ((x["diesel_fuse_mbps"], x["diesel_api_mbps"]) for x in (a, b))
    return _claims(
        ("4 KB Lustre within 25% of the paper's 60.2 MB/s",
         _near(a["lustre_mbps"], paper[("lustre", 4 * KB)], 0.25), a["lustre_mbps"]),
        ("4 KB: API > 15x Lustre (paper: 71.7x)", a["api_speedup"] > 15,
         a["api_speedup"]),
        ("4 KB: FUSE > 12x Lustre (paper: 57.8x)", a["fuse_speedup"] > 12,
         a["fuse_speedup"]),
        ("128 KB: API 3-12x Lustre (paper: 5.0x)", 3 < b["api_speedup"] < 12,
         b["api_speedup"]),
        ("128 KB: FUSE 3-12x Lustre (paper: 4.4x)", 3 < b["fuse_speedup"] < 12,
         b["fuse_speedup"]),
        ("128 KB API within 50% of the paper's 10,095.3 MB/s", _near(
            b["diesel_api_mbps"], paper[("diesel-api", 128 * KB)], 0.5),
         b["diesel_api_mbps"]),
        ("4 KB: FUSE never beats the API", f4[0] <= f4[1], f4),
        ("128 KB: FUSE never beats the API", f128[0] <= f128[1], f128),
    )


def _fig13(r: Result) -> Claims:
    full = "shuffle dataset"
    strategies = sorted({x["strategy"] for x in r.rows})
    others = [s for s in strategies if s != full]

    def final(s: str, key: str) -> float:
        return _mean(_col(r.where(strategy=s)[-5:], key))

    top1, top5 = final(full, "top1"), final(full, "top5")
    d1, d5 = ([final(s, k) - base for s in others]
              for k, base in (("top1", top1), ("top5", top5)))
    mid = [r.where(strategy=s)[15]["top1"] - r.where(strategy=full)[15]["top1"]
           for s in others]
    return _claims(
        ("full dataset shuffle is among the strategies", full in strategies,
         strategies),
        ("the model learned: final top-1 > 0.45 (chance 0.1)", top1 > 0.45, top1),
        ("the model learned: final top-5 > 0.85 (chance 0.5)", top5 > 0.85, top5),
        ("final top-1 within 1.5 points of full shuffle (paper: curves overlap)",
         all(abs(d) < 0.015 for d in d1), d1),
        ("final top-5 within 1.5 points of full shuffle",
         all(abs(d) < 0.015 for d in d5), d5),
        ("same convergence speed: mid-training top-1 within 5 points",
         all(abs(d) < 0.05 for d in mid), mid),
    )


def _fig14(r: Result) -> Claims:
    pairs = [(x, r.one(model=x["model"], system="diesel-fuse"))
             for x in r.where(system="lustre")]
    lustre, fuse = [p[0] for p in pairs], [p[1] for p in pairs]
    return _claims(
        ("every model: DIESEL-FUSE fetch < 0.6x Lustre's (paper: ~half)",
         all(d["mean_fetch_s"] < 0.6 * lu["mean_fetch_s"] for lu, d in pairs),
         _col(fuse, "mean_fetch_s")),
        ("every model: Lustre epoch-start spike > 3x its mean stall",
         all(x["epoch_start_spike_s"] > 3 * x["mean_stall_s"] for x in lustre),
         _col(lustre, "epoch_start_spike_s")),
        ("every model: DIESEL-FUSE epoch-start spike > its mean stall",
         all(x["epoch_start_spike_s"] > x["mean_stall_s"] for x in fuse),
         _col(fuse, "epoch_start_spike_s")),
        ("every model: DIESEL-FUSE stalls less than Lustre",
         all(d["mean_stall_s"] < lu["mean_stall_s"] for lu, d in pairs),
         _col(fuse, "mean_stall_s")),
    )


def _fig15(r: Result) -> Claims:
    total, io = _col(r.rows, "total_reduction"), _col(r.rows, "io_reduction")
    norm, hours = _col(r.rows, "normalized_total"), _col(r.rows, "lustre_total_h")
    alex, resnet = (r.one(model=m)["total_reduction"] for m in ("alexnet", "resnet50"))
    return _claims(
        ("every model: total time cut 5-50% (paper: 15-27%)",
         all(0.05 < t < 0.50 for t in total), total),
        ("every model: IO time cut > 50% (paper: 51-58%)", all(x > 0.5 for x in io),
         io),
        ("every model: normalized total < 1", all(x < 1.0 for x in norm), norm),
        ("AlexNet (IO-bound) saves a larger share than ResNet-50", alex > resnet,
         (alex, resnet)),
        ("every model: Lustre job 10-80 h", all(10 < h < 80 for h in hours), hours),
        ("every model: DIESEL job shorter than Lustre's",
         all(x["diesel_total_h"] < x["lustre_total_h"] for x in r.rows),
         _col(r.rows, "diesel_total_h")),
    )


def _prefetch(r: Result) -> Claims:
    waits, dups = _col(r.rows, "mean_wait_s"), _col(r.rows, "duplicate_reads")
    base = r.one(prefetch_depth=0)["mean_wait_s"]
    deep = [r.one(prefetch_depth=d)["mean_wait_s"] for d in (2, 4)]
    hits, misses = (r.one(prefetch_depth=4)[k]
                    for k in ("prefetch_hits", "prefetch_misses"))
    return _claims(
        ("single-flight: no chunk moves twice at any depth",
         all(x == 0 for x in dups), dups),
        ("depths 2 and 4 cut the mean stall below 0.9x on-demand",
         all(w < 0.9 * base for w in deep), (deep, base)),
        ("a deeper pipeline never stalls longer",
         waits == sorted(waits, reverse=True), waits),
        ("depth 4 covers every chunk access: 0 misses", misses == 0, misses),
        ("depth 4 serves prefetch hits", hits > 0, hits),
    )


def _ingest(r: Result) -> Claims:
    four, ships = r.one(depth=4), _col(r.rows, "ship_s")
    hwm1, hwm4 = r.one(depth=1)["ship_hwm"], four["ship_hwm"]
    ship, put = four["ship_speedup"], four["put_speedup"]
    return _claims(
        ("exactly once at every depth: server ingests == chunks shipped",
         all(x["server_ingests"] == x["chunks_shipped"] for x in r.rows),
         (_col(r.rows, "server_ingests"), _col(r.rows, "chunks_shipped"))),
        ("depth 1 ships one chunk at a time", hwm1 == 1, hwm1),
        ("depth 4 ships >= 2x faster across the servers", ship >= 2.0, ship),
        ("depth 4 overlaps: ship high-water mark > 1", hwm4 > 1, hwm4),
        ("depth 4 put is packing-bound but > 1.3x faster", put > 1.3, put),
        ("a deeper pipeline never ships slower",
         ships == sorted(ships, reverse=True), ships),
    )


def _fanout(r: Result) -> Claims:
    one, four = r.one(fanout=1), r.one(fanout=4)
    dups = _col(r.rows, "duplicate_reads")
    hwm1, hwm4 = ((x["pull_hwm"], x["fetch_hwm"]) for x in (one, four))
    warm, recover, read = (four[f"{k}_speedup"] for k in ("warm", "recover", "read"))
    reloaded = (one["chunks_reloaded"], four["chunks_reloaded"])
    return _claims(
        ("single-flight: one transfer per distinct chunk at every fan-out",
         all(x == 0 for x in dups), dups),
        ("fan-out 4 warms >= 2x faster", warm >= 2.0, warm),
        ("fan-out 4 recovers >= 2x faster", recover >= 2.0, recover),
        ("fan-out 4 batch-reads >= 2x faster", read >= 2.0, read),
        ("fan-out 4 overlaps pulls and fetches (hwm > 1)",
         hwm4[0] > 1 and hwm4[1] > 1, hwm4),
        ("fan-out 1 stays serial (hwm == 1)", hwm1[0] == 1 and hwm1[1] == 1, hwm1),
        ("the same chunks reload at fan-out 1 and 4", reloaded[1] == reloaded[0],
         reloaded),
    )


def _latency(r: Result) -> Claims:
    (row,) = r.rows
    gets = (row["get_group_cache_n"] + row["get_server_n"], row["files"])
    reads = (row["read_group_cache_count"], row["read_server_count"])
    return _claims(
        ("every epoch get is attributed to the group cache or a server",
         gets[0] == gets[1], gets),
        ("group-cache reads exceed server reads", reads[0] > reads[1], reads),
    )


def _faults(r: Result) -> Claims:
    c, kv = r.one(event="cache_master_killed"), r.one(event="kv_shards_killed")
    reloaded = c["chunks_reloaded"]
    recovery, degraded, post = c["recovery_s"], c["degraded_reads"], c["post_over_pre"]
    problems, scanned, failed = (kv[k] for k in (
        "verify_problems", "chunks_scanned", "failed_reads"))
    return _claims(
        ("healing re-streams the orphaned chunks", reloaded > 0, reloaded),
        ("recovery takes simulated time", recovery > 0, recovery),
        ("the server serves degraded reads meanwhile", degraded > 0, degraded),
        ("throughput returns to within 10% of pre-kill", post >= 0.9, post),
        ("the timestamp-scoped rebuild leaves the metadata as expected",
         problems == 0, problems),
        ("the rebuild scans chunks", scanned > 0, scanned),
        ("zero failed client reads across both faults", failed == 0, failed),
    )


def _locality(r: Result) -> Claims:
    hsh, storm = r.rows[0], r.one(event="pull_storm")
    local = (hsh["span_local"], hsh["cache_local_hits"])
    remote = (hsh["span_remote"], hsh["cache_remote_hits"])
    coalesced, dup = storm["coalesced_pulls"], storm["duplicate_backend_fetches"]
    return _claims(
        ("hash placement: node-local hits ~1/nodes",
         hsh["local_frac"] <= 1.5 / hsh["nodes"], hsh["local_frac"]),
        ("spans attribute every local hit (hash)", local[0] == local[1], local),
        ("spans attribute every remote hit (hash)", remote[0] == remote[1], remote),
        ("pull storm: pulls coalesce in flight", coalesced > 0, coalesced),
        ("pull storm: one backend fetch per chunk", dup == 0, dup),
    )


def _scale(r: Result) -> Claims:
    base, fast = r.one(variant="per-request"), r.one(variant="batched")
    keys = ("reads", "hits", "stat_calls")
    counters = ([base[k] for k in keys], [fast[k] for k in keys])
    reads = (base["reads"], base["n_requests"])
    peak, rate = base["peak_occupancy"], base["kernel_events_per_sec"]
    speedup = r.one(variant="speedup")["events_per_sec"]
    return _claims(
        ("both admissions: same reads, hits and stat calls",
         counters[0] == counters[1], counters),
        ("every request is read", reads[0] == reads[1], reads),
        ("per-request admission pre-schedules the whole epoch",
         peak == base["reads"], peak),
        ("batching collapses peak occupancy > 10x",
         fast["peak_occupancy"] < peak / 10, fast["peak_occupancy"]),
        ("per-request kernel > 50k events/s", rate > 50_000, rate),
        ("batching >= 3x the epoch-normalized event rate", speedup >= 3.0, speedup),
    )


def _sharing(r: Result) -> Claims:
    warm, sweep = r.one(event="warm_register"), r.where(event="sweep")
    ratio, admitted = warm["warm_ratio"], (warm["shared_warm_admissions"],
                                           warm["chunks"])
    fetches = tuple(r.one(event="sweep", tasks=n)["backend_chunk_fetches"]
                    for n in (16, 1))
    return _claims(
        ("a warm register takes < 25% of the cold warmup", ratio < 0.25, ratio),
        ("every warm admission is a refcount bump, no backend I/O",
         admitted[0] == admitted[1], admitted),
        ("16 tasks fetch <= 1.2x one task's chunks",
         fetches[0] <= 1.2 * fetches[1], fetches),
        ("refcounts track every task: tasks x chunks refs",
         all(x["shared_refs"] == x["tasks"] * x["chunks"] for x in sweep),
         _col(sweep, "shared_refs")),
    )


def _capacity(r: Result) -> Claims:
    runs = r.where(event="run")
    ten = r.one(event="run", ratio=10.0, compression=False)
    tiers = (ten["tier_disk_hits"], ten["tier_ram_hits"])
    two = r.one(event="run", ratio=2.0, compression=False)["read_throughput_bps"]
    gains = [r.one(event="compression_gain", ratio=x)["throughput_gain"]
             for x in (4.0, 10.0)]
    lost, failed, ram_ok, ram, fetched = (_col(runs, k) for k in (
        "lost_chunks", "failed_reads", "ram_bound_ok", "max_ram_bytes",
        "epoch_backend_fetches"))
    return _claims(
        ("10 runs: 5 ratios x compression off/on", len(runs) == 10, len(runs)),
        ("no chunk is lost to the overflow", all(x == 0 for x in lost), lost),
        ("every read returns correct bytes", all(x == 0 for x in failed), failed),
        ("the RAM gauge holds the per-node budget", all(ram_ok), ram_ok),
        ("resident RAM <= aggregate RAM",
         all(x["max_ram_bytes"] <= x["aggregate_ram_bytes"] for x in runs), ram),
        ("warmup absorbs the dataset: no epoch read reaches the backend",
         all(x == 0 for x in fetched), fetched),
        ("at 10x RAM the disk tier serves most reads", tiers[0] > tiers[1], tiers),
        ("at 2x RAM the disk tier sustains >= 100 MB/s", two >= 100e6, two),
        ("at >= 4x RAM compression is at least as fast",
         all(g >= 1.0 for g in gains), gains),
    )


def _metaplane(r: Result) -> Claims:
    delta, page = r.one(event="delta_reload"), r.one(event="pagination")
    grown = r.one(event="registry_scale", datasets=1_000_000)
    ratio, ops = delta["delta_bytes_ratio"], delta["delta_ops"]
    refresh = (delta["delta_refresh_s"], delta["full_load_s"])
    identical, pages = page["bit_identical"], page["n_pages"]
    stat, load, names = (grown[k] for k in (
        "stat_ratio", "load_meta_ratio", "page_names"))
    return _claims(
        ("a 1% append moves <= 5% of the snapshot's bytes", ratio <= 0.05, ratio),
        ("a delta refresh is cheaper than a full load", refresh[0] < refresh[1],
         refresh),
        ("the delta carries ops", ops > 0, ops),
        ("paginated pscan is bit-identical to the full scan", identical is True,
         identical),
        ("the scan spans pages", pages > 1, pages),
        ("1M datasets: stat <= 1.2x the 1k baseline", stat <= 1.2, stat),
        ("1M datasets: load_meta <= 1.2x the 1k baseline", load <= 1.2, load),
        ("1M datasets: a listing page returns names", names > 0, names),
    )


#: Claims per ``ALL_EXPERIMENTS`` id.
CLAIMS: Dict[str, Callable[[Result], Claims]] = {
    "table2": _table2, "fig6": _fig6, "fig9": _fig9, "fig10a": _fig10a,
    "fig10b": _fig10b, "fig10c": _fig10c, "fig11a": _fig11a, "fig11b": _fig11b,
    "fig12": _fig12, "fig13": _fig13, "fig14": _fig14, "fig15": _fig15,
    "prefetch": _prefetch, "ingest": _ingest, "fanout": _fanout,
    "latency": _latency, "faults": _faults, "locality": _locality,
    "scale": _scale, "sharing": _sharing, "capacity": _capacity,
    "metaplane": _metaplane,
}
