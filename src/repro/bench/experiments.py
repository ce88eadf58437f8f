"""One reproduction function per table/figure of the paper's §6.

Workloads are scaled down (file counts, thread counts) for tractable
run times; all reported quantities are rates, latencies and ratios,
which are scale-free once the measured phase reaches steady state.
Every function returns an :class:`~repro.bench.harness.ExperimentResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines.localfs import LocalXfs
from repro.bench.harness import ExperimentResult, timer
from repro.bench.reporting import add_relative, ratio
from repro.bench.setups import (
    add_lustre,
    add_memcached,
    bulk_load_lustre,
    bulk_load_memcached,
    deploy,
    diesel_client,
    diesel_client_with_snapshot,
    make_task,
    make_testbed,
    warm,
    warmed_task,
)
from repro.calibration import DEFAULT, KB, MB, MODEL_ZOO, ModelProfile
from repro.core import meta
from repro.core.config import DieselConfig
from repro.core.fuse import FuseMount
from repro.core.server import ServerStats
from repro.core.shared_cache import SharedCacheRegistry
from repro.core.shuffle import full_shuffle
from repro.cluster.devices import Device
from repro.cluster.node import Node
from repro.dlt.readers import FuseReader, LustreReader
from repro.dlt.sgd import SoftmaxClassifier, train_with_orders
from repro.dlt.synthetic import SyntheticDataset
from repro.dlt.trainer import run_training
from repro.errors import ReproError
from repro.obs import SpanRecorder
from repro.obs.counters import Counters, stats_row
from repro.sim import Environment

# Paper-reported reference values used for shape annotations.
PAPER = {
    "table2": {  # file size (bytes) -> (MB/s, files/s, 4K-IOPS)
        1 * KB: (33.54, 34353.45, 8588.36),
        4 * KB: (128.28, 32841.47, 32841.47),
        16 * KB: (464.44, 29724.48, 118897.92),
        64 * KB: (1317.04, 21072.64, 337162.24),
        256 * KB: (2725.93, 10903.72, 697838.08),
        1 * MB: (3104.26, 3104.26, 794690.56),
        4 * MB: (3197.68, 799.42, 818606.08),
    },
    "fig9": {
        # files/s: paper gives DIESEL >2M at 4KB, ratios vs others.
        ("diesel", 4 * KB): 2_000_000.0,
        ("ratio_vs_memcached", 4 * KB): 1.79,
        ("ratio_vs_lustre", 4 * KB): 366.7,
        ("ratio_vs_memcached", 128 * KB): 17.3,
        ("ratio_vs_lustre", 128 * KB): 127.3,
    },
    "fig10b": {"qps_1node": 8.83e6, "qps_10nodes": 88.77e6},
    "fig10c": {"lustre_ls": 35.0, "lustre_lsl": 170.0},
    "fig11a": {"diesel_api": 1.2e6, "diesel_fuse": 0.8e6,
               "memcached": 0.56e6, "lustre": 0.04e6},
    "fig12": {
        ("lustre", 4 * KB): 60.2, ("diesel-api", 4 * KB): 4317.0,
        ("diesel-fuse", 4 * KB): 3483.7,
        ("lustre", 128 * KB): 2001.8, ("diesel-api", 128 * KB): 10095.3,
        ("diesel-fuse", 128 * KB): 8712.5,
    },
    "fig15": {"io_reduction": (0.51, 0.58), "total_reduction": (0.15, 0.27)},
}


# =========================================================== Table 2
def table2_read_bandwidth(
    sizes: Sequence[int] = tuple(PAPER["table2"]),
    reads_per_size: int = 200,
) -> ExperimentResult:
    """Table 2: read bandwidth and IOPS vs file size on the SSD cluster.

    One reader stream against the calibrated NVMe pool, exactly the
    paper's measurement; rows report MB/s, files/s and equivalent
    4K-IOPS alongside the paper's numbers.
    """
    result = ExperimentResult("read bandwidth vs file size", "Table 2")
    with timer(result):
        for size in sizes:
            env = Environment()
            device = Device.nvme(env)

            def reader(env=env, device=device, size=size):
                for _ in range(reads_per_size):
                    yield from device.read(size)
                return env.now

            proc = env.process(reader())
            elapsed = env.run(until=proc)
            files_per_s = reads_per_size / elapsed
            mb_per_s = files_per_s * size / MB
            iops_4k = files_per_s * (size / (4 * KB))
            paper_mb, paper_fps, paper_iops = PAPER["table2"][size]
            result.add(
                file_size=size,
                mbps=mb_per_s,
                files_per_s=files_per_s,
                iops_4k=iops_4k,
                paper_mbps=paper_mb,
                paper_files_per_s=paper_fps,
                paper_iops_4k=paper_iops,
            )
        first, last = result.rows[0], result.rows[-1]
        result.note(
            f"4MB equivalent 4K-IOPS is "
            f"{last['iops_4k'] / result.one(file_size=4 * KB)['iops_4k']:.1f}x "
            f"the 4KB value (paper: ~25x)"
        )
        result.note(
            f"bandwidth grows {last['mbps'] / first['mbps']:.0f}x from 1KB to 4MB"
        )
    return result


# =========================================================== Fig 9
def fig9_write_throughput(
    files_per_proc: int = 120,
    n_client_nodes: int = 4,
    procs_per_node: int = 16,
    sizes: Sequence[int] = (4 * KB, 128 * KB),
) -> ExperimentResult:
    """Fig 9: concurrent small-file write throughput, three systems.

    4 nodes × 16 writer processes (the paper's 64 MPI procs).  DIESEL
    clients aggregate into 4 MB chunks; Memcached SETs one RPC per file;
    Lustre pays MDS + journaled OSS per create.
    """
    result = ExperimentResult("write throughput", "Fig 9")
    with timer(result):
        for size in sizes:
            rates: Dict[str, float] = {}
            total_files = n_client_nodes * procs_per_node * files_per_proc

            def paths_for(proc_id: int) -> list[str]:
                return [
                    f"/w/p{proc_id:03d}/f{i:05d}.bin"
                    for i in range(files_per_proc)
                ]

            payload = b"\xab" * size

            # --- DIESEL ---
            tb = deploy(n_client_nodes)
            clients = [
                diesel_client(
                    tb, "writeset", tb.compute_nodes[p % n_client_nodes],
                    f"w{p}", rank=p,
                )
                for p in range(n_client_nodes * procs_per_node)
            ]

            def diesel_writer(client, proc_id):
                for path in paths_for(proc_id):
                    yield from client.put(path, payload)
                yield from client.flush()

            rates["diesel"] = total_files / tb.timed(
                diesel_writer(c, p) for p, c in enumerate(clients)
            )

            # --- Memcached ---
            tb = make_testbed(n_compute=n_client_nodes + 10)
            mc = add_memcached(tb, n_servers=10)
            writer_nodes = tb.compute_nodes[10:]

            def mc_writer(node, proc_id):
                for path in paths_for(proc_id):
                    yield from mc.set(node, path, payload)

            rates["memcached"] = total_files / tb.timed(
                mc_writer(writer_nodes[p % n_client_nodes], p)
                for p in range(n_client_nodes * procs_per_node)
            )

            # --- Lustre ---
            tb = make_testbed(n_compute=n_client_nodes)
            fs = add_lustre(tb)

            def lustre_writer(node, proc_id):
                for path in paths_for(proc_id):
                    yield from fs.write_file(node, path, payload)

            rates["lustre"] = total_files / tb.timed(
                lustre_writer(tb.compute_nodes[p % n_client_nodes], p)
                for p in range(n_client_nodes * procs_per_node)
            )

            result.add(
                file_size=size,
                diesel_files_per_s=rates["diesel"],
                memcached_files_per_s=rates["memcached"],
                lustre_files_per_s=rates["lustre"],
                speedup_vs_memcached=rates["diesel"] / rates["memcached"],
                speedup_vs_lustre=rates["diesel"] / rates["lustre"],
                paper_speedup_vs_memcached=PAPER["fig9"][
                    ("ratio_vs_memcached", size)
                ],
                paper_speedup_vs_lustre=PAPER["fig9"][("ratio_vs_lustre", size)],
            )
        result.note("paper: DIESEL writes >2M 4KB files/s with 64 procs")
    return result


# =========================================================== Fig 10a/10b
def fig10a_metadata_scaling(
    server_counts: Sequence[int] = (1, 3, 5),
    node_counts: Sequence[int] = (1, 2, 3, 5, 7, 10),
    threads_per_node: int = 16,
    queries_per_thread: int = 60,
) -> ExperimentResult:
    """Fig 10a: metadata QPS vs #client nodes for 1/3/5 DIESEL servers.

    Clients issue stat() RPCs (get-file-size, the paper's workload)
    against the server pool; per-call client think time is the
    calibrated POSIX/framework overhead.  Curves flatten when the server
    pool saturates — earlier with fewer servers.
    """
    result = ExperimentResult("metadata scaling (server path)", "Fig 10a")
    think = DEFAULT.diesel.metadata_think_s
    with timer(result):
        for n_servers in server_counts:
            for n_nodes in node_counts:
                files = {f"/m/f{i:04d}": b"x" * 64 for i in range(256)}
                tb = deploy(
                    n_nodes, "meta", files, chunk_size=64 * KB, n_servers=n_servers
                )
                paths = list(files)
                servers = tb.diesel_servers

                def client(node, tid):
                    rng = random.Random(tid)
                    for q in range(queries_per_thread):
                        server = servers[(tid + q) % len(servers)]
                        yield from server.call(
                            node, "stat", "meta", rng.choice(paths)
                        )
                        yield tb.env.timeout(think)

                total = n_nodes * threads_per_node * queries_per_thread
                elapsed = tb.timed(
                    client(tb.compute_nodes[t % n_nodes], t)
                    for t in range(n_nodes * threads_per_node)
                )
                result.add(
                    servers=n_servers, client_nodes=n_nodes, qps=total / elapsed,
                )
        result.note("paper: 1 server flattens ~2 nodes, 3 ~7 nodes, "
                    "5 approach the 0.97M QPS Redis cap")
    return result


def fig10b_snapshot_scaling(
    node_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    threads_per_node: int = 16,
    lookups_per_thread: int = 50_000,
) -> ExperimentResult:
    """Fig 10b: metadata QPS with snapshots — linear in client count.

    With a loaded snapshot every lookup is a local hashmap hit
    (calibrated 1.81 µs), so aggregate QPS is exactly linear; no shared
    resource appears anywhere on the path.
    """
    result = ExperimentResult("metadata scaling (snapshot path)", "Fig 10b")
    per_lookup = DEFAULT.diesel.client_meta_lookup_s
    with timer(result):
        for n_nodes in node_counts:
            threads = n_nodes * threads_per_node
            # Local-only path: closed-form per-thread rate; simulate one
            # thread to keep the event loop honest.
            env = Environment()

            def one_thread(env=env):
                for _ in range(1000):
                    yield env.timeout(per_lookup)
                return env.now

            proc = env.process(one_thread())
            elapsed = env.run(until=proc)
            per_thread_qps = 1000 / elapsed
            result.add(
                client_nodes=n_nodes,
                qps=per_thread_qps * threads,
                paper_qps=PAPER["fig10b"]["qps_1node"] * n_nodes,
            )
        result.note("paper: 8.83M QPS at 1 node -> 88.77M at 10 (linear)")
    return result


def fig10c_ls_elapsed(
    n_files: int = 4_000,
    n_dirs: int = 100,
    full_scale_files: int = 1_281_167,
) -> ExperimentResult:
    """Fig 10c: `ls -R` / `ls -lR` on ImageNet-1K: Lustre vs XFS vs
    DIESEL-FUSE.

    Runs a scaled directory tree and extrapolates per-entry costs to the
    full 1.28M-file dataset (metadata walks are embarrassingly linear in
    entry count).  All systems additionally pay the single-threaded `ls`
    process's own per-entry work (dirent decoding, sorting, output) —
    the paper shows this dominating `ls -R` for Lustre *and* DIESEL-FUSE
    alike (~30-40 s for 1.28 M files ⇒ ~25 µs/entry).
    """
    result = ExperimentResult("ls -R / ls -lR elapsed", "Fig 10c")
    scale = full_scale_files / n_files
    payload = b"z" * 512
    LS_CLIENT_PER_ENTRY_S = 25e-6
    ls_client_cost = full_scale_files * LS_CLIENT_PER_ENTRY_S

    def tree_files():
        return {
            f"/imagenet/class{i % n_dirs:04d}/img{i:06d}.jpg": payload
            for i in range(n_files)
        }

    with timer(result):
        # --- Lustre ---
        tb = make_testbed(n_compute=1)
        fs = add_lustre(tb)
        bulk_load_lustre(tb, tree_files())
        node = tb.compute_nodes[0]

        def lustre_ls(with_sizes):
            return fs.ls_recursive(node, "/imagenet", with_sizes=with_sizes)

        lustre_plain = tb.timed([lustre_ls(False)]) * scale
        lustre_sizes = tb.timed([lustre_ls(True)]) * scale

        # --- XFS ---
        env = Environment()
        xfs = LocalXfs(env, Node(env, "local"))
        for path, data in tree_files().items():
            xfs.write_file(path, data)

        def xfs_ls(with_sizes):
            t0 = env.now
            yield from xfs.ls_recursive("/imagenet", with_sizes=with_sizes)
            return env.now - t0

        proc = env.process(xfs_ls(False))
        xfs_plain = env.run(until=proc) * scale
        proc = env.process(xfs_ls(True))
        xfs_sizes = env.run(until=proc) * scale

        # --- DIESEL-FUSE (snapshot loaded) ---
        tb = deploy(1, "imagenet", tree_files())
        client = diesel_client_with_snapshot(
            tb, "imagenet", tb.compute_nodes[0], "lsclient"
        )
        fuse = FuseMount([client], tb.cal)

        def fuse_ls(with_sizes):
            return fuse.ls_recursive("/imagenet", with_sizes=with_sizes)

        fuse_plain = tb.timed([fuse_ls(False)]) * scale
        fuse_sizes = tb.timed([fuse_ls(True)]) * scale

        for system, plain, sizes in (
            ("lustre", lustre_plain, lustre_sizes),
            ("xfs", xfs_plain, xfs_sizes),
            ("diesel-fuse", fuse_plain, fuse_sizes),
        ):
            plain += ls_client_cost
            sizes += ls_client_cost
            result.add(
                system=system,
                ls_R_seconds=plain,
                ls_lR_seconds=sizes,
                stat_penalty=sizes / plain if plain else float("inf"),
            )
        result.note(
            "paper: Lustre ls -R ~30-40s, ls -lR ~170s; DIESEL-FUSE flat "
            "(sizes served from the in-memory snapshot at O(1))"
        )
    return result


# =========================================================== Fig 6
def fig6_cache_degradation(
    n_servers: int = 20,
    n_clients: int = 80,
    files_per_iteration: int = 32,
    iterations: int = 100,
    kill_at: Sequence[int] = (30, 70),
    n_files: int = 4_000,
    file_size: int = 110 * KB,
) -> ExperimentResult:
    """Fig 6: Memcached read speed vs cache-hit ratio under node failures.

    Clients iterate over random file batches from a Memcached cluster;
    one instance is disabled at iteration 30 and a second at 70.  Misses
    fall back to Lustre, whose op-limited small-file path cannot absorb
    even a few percent of the traffic — aggregate speed collapses far
    more than the miss fraction alone suggests.
    """
    result = ExperimentResult("cache hit ratio vs read speed", "Fig 6")
    with timer(result):
        tb = make_testbed(n_compute=n_servers + n_clients)
        mc = add_memcached(tb, n_servers=n_servers)
        fs = add_lustre(tb)
        payload = b"\xcd" * file_size
        files = {f"/ds/f{i:05d}.jpg": payload for i in range(n_files)}
        bulk_load_memcached(tb, files)
        bulk_load_lustre(tb, files)
        paths = list(files)
        client_nodes = tb.compute_nodes[n_servers:]

        iteration_done = [0] * n_clients
        iteration_times: List[List[float]] = [[] for _ in range(iterations)]
        iteration_hits: List[List[int]] = [[] for _ in range(iterations)]

        def client(cid: int):
            node = client_nodes[cid % len(client_nodes)]
            rng = random.Random(cid)
            for it in range(iterations):
                t0 = tb.env.now  # one client's iteration, inside its loop
                hits = 0
                for _ in range(files_per_iteration):
                    path = rng.choice(paths)
                    value = yield from mc.get(node, path)
                    if value is None:
                        # Miss: fall back to the shared filesystem.
                        yield from fs.read_file(node, path)
                    else:
                        hits += 1
                iteration_times[it].append(tb.env.now - t0)
                iteration_hits[it].append(hits)
                iteration_done[cid] = it + 1

        # Kill one instance when the slowest client reaches each trigger.
        def killer(threshold: int, which: int):
            while min(iteration_done) < threshold:
                yield tb.env.timeout(1e-3)
            victim = sorted(mc.servers)[which]
            mc.kill_server(victim)

        procs = [tb.env.process(client(c)) for c in range(n_clients)]
        for k, threshold in enumerate(kill_at):
            tb.env.process(killer(threshold, k))
        tb.env.run(until=tb.env.all_of(procs))

        for it in range(iterations):
            times = iteration_times[it]
            hits = sum(iteration_hits[it])
            total = files_per_iteration * len(times)
            mean_t = sum(times) / len(times)
            result.add(
                iteration=it,
                read_speed_files_per_s=total / sum(times) * len(times),
                mean_iteration_s=mean_t,
                hit_ratio=hits / total,
            )
        def window_mean(lo: int, hi: int) -> float:
            values = [
                r["read_speed_files_per_s"] for r in result.rows[lo:hi]
            ]
            return float(np.mean(values)) if values else float("nan")

        healthy = window_mean(5, min(25, kill_at[0]))
        one_dead = window_mean(kill_at[0] + 15, kill_at[-1] - 5)
        two_dead = window_mean(kill_at[-1] + 15, iterations)
        result.note(
            f"speed: healthy {healthy:,.0f} -> one node dead {one_dead:,.0f} "
            f"({1 - one_dead / healthy:.0%} drop) -> two dead {two_dead:,.0f} "
            f"({1 - two_dead / healthy:.0%} drop)"
        )
        result.note("paper: ~5% misses reduce reading speed by ~90%")
    return result


# =========================================================== Fig 11a
def fig11a_read_scaling(
    node_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    clients_per_node: int = 16,
    reads_per_client: int = 40,
    n_files: int = 2_000,
    file_size: int = 4 * KB,
) -> ExperimentResult:
    """Fig 11a: random 4KB read QPS vs client count for four systems.

    DIESEL-API reads through the warmed task-grained cache; DIESEL-FUSE
    adds the kernel-crossing overhead; Memcached serves per-file RPCs
    through its consistent-hash cluster; Lustre reads files directly.
    """
    result = ExperimentResult("4KB random read scaling", "Fig 11a")
    payload = b"\xef" * file_size
    files = {f"/r/f{i:05d}": payload for i in range(n_files)}
    paths = list(files)
    with timer(result):
        for n_nodes in node_counts:
            n_clients = n_nodes * clients_per_node
            total_reads = n_clients * reads_per_client
            qps: Dict[str, float] = {}

            # --- DIESEL (API and FUSE share one warmed deployment) ---
            for flavor in ("api", "fuse"):
                tb = deploy(n_nodes, "ds", files)
                clients = warmed_task(
                    tb, "ds",
                    [tb.compute_nodes[c % n_nodes] for c in range(n_clients)],
                ).clients
                mounts = (
                    [FuseMount([c], tb.cal) for c in clients]
                    if flavor == "fuse" else None
                )

                def reader(cid: int):
                    rng = random.Random(cid)
                    for _ in range(reads_per_client):
                        path = rng.choice(paths)
                        if mounts is None:
                            yield from clients[cid].get(path)
                        else:
                            yield from mounts[cid].read_file(path)

                qps[f"diesel-{flavor}"] = total_reads / tb.timed(
                    reader(c) for c in range(n_clients)
                )

            # --- Memcached ---
            tb = make_testbed(n_compute=10 + n_nodes)
            mc = add_memcached(tb, n_servers=10)
            bulk_load_memcached(tb, files)
            reader_nodes = tb.compute_nodes[10:]

            def mc_reader(cid: int):
                node = reader_nodes[cid % n_nodes]
                rng = random.Random(cid)
                for _ in range(reads_per_client):
                    yield from mc.get(node, rng.choice(paths))

            qps["memcached"] = total_reads / tb.timed(
                mc_reader(c) for c in range(n_clients)
            )

            # --- Lustre ---
            tb = make_testbed(n_compute=n_nodes)
            fs = add_lustre(tb)
            bulk_load_lustre(tb, files)

            def lustre_reader(cid: int):
                node = tb.compute_nodes[cid % n_nodes]
                rng = random.Random(cid)
                for _ in range(reads_per_client):
                    yield from fs.read_file(node, rng.choice(paths))

            qps["lustre"] = total_reads / tb.timed(
                lustre_reader(c) for c in range(n_clients)
            )

            result.add(
                client_nodes=n_nodes,
                diesel_api_qps=qps["diesel-api"],
                diesel_fuse_qps=qps["diesel-fuse"],
                memcached_qps=qps["memcached"],
                lustre_qps=qps["lustre"],
                fuse_to_api=qps["diesel-fuse"] / qps["diesel-api"],
            )
        last = result.rows[-1]
        result.note(
            "paper @10 nodes: API ~1.2M, FUSE ~0.8M (>60% of API), "
            "Memcached ~0.56M, Lustre ~0.04M"
        )
        result.note(
            f"measured @{last['client_nodes']} nodes: API "
            f"{last['diesel_api_qps']:,.0f}, FUSE {last['diesel_fuse_qps']:,.0f}, "
            f"Memcached {last['memcached_qps']:,.0f}, Lustre "
            f"{last['lustre_qps']:,.0f}"
        )
    return result


# =========================================================== Fig 11b
def fig11b_cache_recovery(
    n_files: int = 3_000,
    file_size: int = 110 * KB,
    n_nodes: int = 10,
    batch_size: int = 64,
    memcached_start_hit: float = 0.8,
) -> ExperimentResult:
    """Fig 11b: cache load/recovery time, DIESEL vs Memcached.

    DIESEL warms from 0% by streaming whole chunks (oneshot prefetch)
    while a foreground reader measures per-batch read times; Memcached
    starts at 80% hit ratio (as in the paper — a 0% start would take
    excessively long) and refills per file from Lustre on each miss.
    """
    result = ExperimentResult("cache loading / recovery time", "Fig 11b")
    payload_files = {
        f"/ds/f{i:05d}.jpg": b"\x42" * file_size for i in range(n_files)
    }
    paths = list(payload_files)
    with timer(result):
        # --- DIESEL: 0% -> 100% via background chunk prefetch ---
        tb = deploy(n_nodes, "ds", payload_files)
        task = make_task(tb, "ds", tb.compute_nodes)
        cache = task.cache
        warm(tb, [task], wait_warm=False)  # prefetch begins in the background
        warm_done: Dict[str, float] = {}

        def warm_waiter():
            yield from cache.wait_warm()
            warm_done["at"] = tb.env.now

        tb.env.process(warm_waiter())

        def timed_batch(tb, rng, read_one):
            # Per-batch latency inside one long-running reader: the loop
            # being timed is a slice of a process, not a run to completion.
            t0 = tb.env.now
            for _ in range(batch_size):
                yield from read_one(rng.choice(paths))
            return tb.env.now, tb.env.now - t0

        def diesel_reader():
            rng = random.Random(0)
            records = []

            def read_one(path):
                return task.read(0, [path])

            while cache.cached_chunks() < len(task.index.chunk_ids()):
                records.append((yield from timed_batch(tb, rng, read_one)))
            # A few steady-state batches after full warm-up.
            for _ in range(5):
                records.append((yield from timed_batch(tb, rng, read_one)))
            return records

        records = tb.run(diesel_reader())
        tb.env.run()  # drain the warm waiter
        diesel_done_at = warm_done.get("at", tb.env.now)
        for ts, dur in records:
            result.add(system="diesel", at_s=ts, batch_read_s=dur)

        # --- Memcached: 80% -> 100%, per-file refill from Lustre ---
        tb = make_testbed(n_compute=10 + 1)
        mc = add_memcached(tb, n_servers=10)
        fs = add_lustre(tb)
        bulk_load_lustre(tb, payload_files)
        resident = dict(
            list(payload_files.items())[: int(n_files * memcached_start_hit)]
        )
        bulk_load_memcached(tb, resident)
        node = tb.compute_nodes[10]

        def mc_reader():
            rng = random.Random(0)
            records = []
            missing = set(paths) - set(resident)

            def read_one(path):
                value = yield from mc.get(node, path)
                if value is None:
                    data = yield from fs.read_file(node, path)
                    yield from mc.set(node, path, data)
                    missing.discard(path)

            while missing:
                records.append((yield from timed_batch(tb, rng, read_one)))
            return records

        mc_records = tb.run(mc_reader())
        mc_done_at = tb.env.now
        for ts, dur in mc_records:
            result.add(system="memcached", at_s=ts, batch_read_s=dur)

        scale = 1_281_167 / n_files  # extrapolate to full ImageNet-1K
        result.note(
            f"DIESEL loaded 100% of the dataset in {diesel_done_at:.2f}s; "
            f"Memcached needed {mc_done_at:.2f}s to refill just the last "
            f"{1 - memcached_start_hit:.0%} "
            f"(x{mc_done_at / diesel_done_at:.0f} slower for 1/5 the data)"
        )
        result.note(
            f"extrapolated to full ImageNet-1K: DIESEL "
            f"{diesel_done_at * scale:.0f}s for 100%, Memcached "
            f"{mc_done_at * scale:.0f}s for the last 20% "
            f"(paper: ~10s vs >100s)"
        )
    return result


# =========================================================== Fig 12
def fig12_shuffle_bandwidth(
    n_nodes: int = 10,
    threads_per_node: int = 16,
    sizes: Sequence[int] = (4 * KB, 128 * KB),
    files_per_thread: int = 30,
    group_size: int = 2,
) -> ExperimentResult:
    """Fig 12: read bandwidth with chunk-wise shuffle, memory-constrained.

    One shared chunk-wise epoch plan per task (as the training framework
    generates); each node runs one DIESEL client (the FUSE mount's shared
    cache, \u00a75) serving its 16 I/O threads, which walk the node's
    contiguous slice of the plan together \u2014 so each data chunk is fetched
    from storage approximately once.  Lustre reads the same files in a
    fully shuffled order.  At 4 KB the win is per-op cost elimination
    (paper: ~70\u00d7); at 128 KB both systems move real bytes and DIESEL is
    bound by aggregate storage bandwidth (paper: ~5\u00d7).
    """
    result = ExperimentResult("read bandwidth, chunk-wise shuffle", "Fig 12")
    with timer(result):
        for size in sizes:
            n_threads = n_nodes * threads_per_node
            n_files = n_threads * files_per_thread
            payload = b"\x5a" * size
            files = {f"/sh/f{i:06d}": payload for i in range(n_files)}
            total_bytes = n_files * size
            rates: Dict[str, float] = {}

            for flavor in ("api", "fuse"):
                tb = deploy(n_nodes, "ds", files)
                node_clients = [
                    diesel_client_with_snapshot(
                        tb, "ds", tb.compute_nodes[n], f"mount{n}", rank=n
                    )
                    for n in range(n_nodes)
                ]
                for c in node_clients:
                    c.enable_shuffle(group_size=group_size)
                # One shared epoch order for the whole task.
                plan = node_clients[0].epoch_file_list(seed=1).files
                block = len(plan) // n_nodes
                mounts = (
                    [FuseMount([c], tb.cal) for c in node_clients]
                    if flavor == "fuse" else None
                )

                def reader(node_idx: int, thread_idx: int):
                    my = plan[node_idx * block : (node_idx + 1) * block]
                    for path in my[thread_idx::threads_per_node]:
                        if mounts is None:
                            yield from node_clients[node_idx].get(path)
                        else:
                            yield from mounts[node_idx].read_file(path)

                rates[f"diesel-{flavor}"] = total_bytes / tb.timed(
                    reader(n, t)
                    for n in range(n_nodes)
                    for t in range(threads_per_node)
                )

            # --- Lustre, fully shuffled order ---
            tb = make_testbed(n_compute=n_nodes)
            fs = add_lustre(tb)
            bulk_load_lustre(tb, files)
            order = full_shuffle(list(files), random.Random(0))

            def lustre_reader(tid: int):
                node = tb.compute_nodes[tid % n_nodes]
                lo = tid * files_per_thread
                for path in order[lo : lo + files_per_thread]:
                    yield from fs.read_file(node, path)

            rates["lustre"] = total_bytes / tb.timed(
                lustre_reader(t) for t in range(n_threads)
            )

            result.add(
                file_size=size,
                lustre_mbps=rates["lustre"] / MB,
                diesel_api_mbps=rates["diesel-api"] / MB,
                diesel_fuse_mbps=rates["diesel-fuse"] / MB,
                api_speedup=rates["diesel-api"] / rates["lustre"],
                fuse_speedup=rates["diesel-fuse"] / rates["lustre"],
                paper_lustre_mbps=PAPER["fig12"][("lustre", size)],
                paper_api_mbps=PAPER["fig12"][("diesel-api", size)],
                paper_fuse_mbps=PAPER["fig12"][("diesel-fuse", size)],
            )
        result.note("paper 4KB: API 71.7x and FUSE 57.8x over Lustre; "
                    "128KB: 5.0x and 4.4x")
    return result


# =========================================================== Fig 13
def fig13_shuffle_accuracy(
    n_samples: int = 4000,
    n_features: int = 32,
    n_classes: int = 10,
    samples_per_chunk: int = 25,
    group_sizes: Sequence[int] = (4, 16),
    epochs: int = 40,
    batch_size: int = 32,
    seed: int = 7,
) -> ExperimentResult:
    """Fig 13: model accuracy under chunk-wise vs full dataset shuffle.

    Real SGD on synthetic 10-class data (see DESIGN.md §2 for the
    substitution).  Samples are written to chunks in class-sorted order —
    the adversarial layout ImageNet-style ingestion produces — so a
    too-small group size genuinely hurts, and paper-like group sizes
    must (and do) recover full-shuffle accuracy.
    """
    result = ExperimentResult("top-1/top-5 accuracy vs shuffle strategy",
                              "Fig 13")
    with timer(result):
        data = SyntheticDataset.make(
            n_samples=n_samples, n_features=n_features, n_classes=n_classes,
            class_sep=2.2, noise=1.2, seed=seed,
        )
        train, test = data.split(test_fraction=0.25, seed=seed)
        # Class-sorted chunk layout (ingestion order: directory by class).
        sorted_idx = np.argsort(train.y, kind="stable")
        chunks: Dict[int, list[int]] = {}
        for pos, sample_idx in enumerate(sorted_idx):
            chunks.setdefault(pos // samples_per_chunk, []).append(
                int(sample_idx)
            )

        def chunkwise_orders(group_size: int) -> list[np.ndarray]:
            orders = []
            for epoch in range(epochs):
                rng = random.Random(seed * 1000 + epoch)
                cids = list(chunks)
                rng.shuffle(cids)
                order: list[int] = []
                for lo in range(0, len(cids), group_size):
                    pooled: list[int] = []
                    for cid in cids[lo : lo + group_size]:
                        pooled.extend(chunks[cid])
                    rng.shuffle(pooled)
                    order.extend(pooled)
                orders.append(np.asarray(order))
            return orders

        def full_orders() -> list[np.ndarray]:
            rng = np.random.default_rng(seed)
            return [rng.permutation(len(train)) for _ in range(epochs)]

        def factory():
            # lr=0.1: hot enough to converge in ~40 epochs, cool enough
            # that end-of-epoch recency bias does not confound the
            # shuffle-order comparison.
            return SoftmaxClassifier(
                n_features, n_classes, lr=0.1, seed=seed
            )

        strategies = {"shuffle dataset": full_orders()}
        for g in group_sizes:
            strategies[f"chunk-wise g={g}"] = chunkwise_orders(g)

        for name, orders in strategies.items():
            history = train_with_orders(
                factory, train.X, train.y, test.X, test.y, orders,
                batch_size=batch_size,
            )
            for h in history:
                result.add(strategy=name, epoch=h["epoch"],
                           top1=h["top1"], top5=h["top5"])

        def final(name: str) -> float:
            rows = result.where(strategy=name)
            return float(np.mean([r["top1"] for r in rows[-5:]]))

        base = final("shuffle dataset")
        for g in group_sizes:
            delta = final(f"chunk-wise g={g}") - base
            result.note(
                f"final top-1 delta (chunk-wise g={g} vs full shuffle): "
                f"{delta:+.3f}"
            )
        result.note("paper: chunk-wise shuffle matches full-shuffle "
                    "accuracy and convergence for adequate group sizes")
    return result


# =========================================================== Fig 14 / 15
def _training_comparison(
    models: Sequence[str],
    epochs: int,
    n_files: int,
    file_size: int,
    batch_size: int,
    n_nodes: int = 4,
    io_workers: int = 8,
    group_size: int = 4,
    lustre_contention: float = 8.0,
):
    """Shared Fig 14/15 machinery: run each model on Lustre and
    DIESEL-FUSE, returning {model: {system: TrainingResult}}.

    ``lustre_contention`` multiplies the Lustre OSS per-op cost to model
    the shared production cluster the paper measures on (\u00a72.1: "many
    training tasks are running concurrently"); the dedicated-per-task
    DIESEL cache is immune to it by design, which is the point of Fig 14.

    Per-iteration compute is scaled by ``batch_size / 256`` so the
    per-*file* compute budget — and hence the I/O demand rate the storage
    must sustain — matches the paper's batch-256 jobs.
    """
    from dataclasses import replace as dc_replace

    payload = b"\x11" * file_size
    files = {f"/im/f{i:06d}.jpg": payload for i in range(n_files)}
    out: Dict[str, Dict[str, object]] = {}
    for model_name in models:
        profile = dc_replace(
            MODEL_ZOO[model_name],
            compute_s=MODEL_ZOO[model_name].compute_s * batch_size / 256,
        )
        out[model_name] = {}

        # --- Lustre under background tenant contention ---
        tb = make_testbed(n_compute=n_nodes)
        fs = add_lustre(tb)
        fs.oss.per_op_s *= lustre_contention
        bulk_load_lustre(tb, files)
        reader = LustreReader(fs, tb.compute_nodes[0], list(files))
        out[model_name]["lustre"] = tb.run(
            run_training(tb.env, reader, profile, epochs=epochs,
                         batch_size=batch_size, io_workers=io_workers,
                         model_name=model_name)
        )

        # --- DIESEL-FUSE, chunk-wise shuffle ---
        tb = deploy(n_nodes, "im", files)
        client = diesel_client_with_snapshot(
            tb, "im", tb.compute_nodes[0], "trainer",
            config=DieselConfig(shuffle_group_size=group_size),
        )
        client.enable_shuffle(group_size=group_size)
        mount = FuseMount([client], tb.cal)
        reader = FuseReader(mount)
        out[model_name]["diesel-fuse"] = tb.run(
            run_training(tb.env, reader, profile, epochs=epochs,
                         batch_size=batch_size, io_workers=io_workers,
                         model_name=model_name)
        )
    return out


def fig14_data_access_time(
    models: Sequence[str] = ("alexnet", "vgg11", "resnet18", "resnet50"),
    epochs: int = 3,
    n_files: int = 1_500,
    file_size: int = 110 * KB,
    batch_size: int = 32,
) -> ExperimentResult:
    """Fig 14: per-iteration data access time, Lustre vs DIESEL-FUSE.

    "Data access time" is what the dataloader's own instrumentation
    reports: the wall time to fetch one mini-batch (shuffle time shows up
    as the epoch-start spike).  The paper's headline: DIESEL-FUSE's
    access time is about half of Lustre's on every model.
    """
    result = ExperimentResult("per-iteration data access time", "Fig 14")
    with timer(result):
        runs = _training_comparison(models, epochs, n_files, file_size,
                                    batch_size)
        for model_name, by_system in runs.items():
            for system, tr in by_system.items():
                first_iters = [e[0] for e in tr.epoch_data_times()]
                result.add(
                    model=model_name,
                    system=system,
                    mean_fetch_s=tr.mean_fetch_time(),
                    mean_stall_s=tr.mean_data_time(),
                    epoch_start_spike_s=float(np.mean(first_iters)),
                )
        for model_name in models:
            lus = result.one(model=model_name, system="lustre")
            dfu = result.one(model=model_name, system="diesel-fuse")
            result.note(
                f"{model_name}: DIESEL-FUSE batch fetch = "
                f"{dfu['mean_fetch_s'] / lus['mean_fetch_s']:.2f}x Lustre "
                f"(paper: ~0.5x)"
            )
    return result


def fig15_training_time(
    models: Sequence[str] = ("alexnet", "vgg11", "resnet18", "resnet50"),
    epochs: int = 3,
    n_files: int = 1_500,
    file_size: int = 110 * KB,
    batch_size: int = 32,
) -> ExperimentResult:
    """Fig 15: normalized total training time, DIESEL-FUSE vs Lustre.

    Projects a full 90-epoch ImageNet-1K job from the measured
    steady-state per-iteration costs: per-iteration IO time is the
    unhidden stall plus the amortized epoch-start spike, total time is
    compute + IO (\u00a76.6 arithmetic).
    """
    result = ExperimentResult("normalized total training time", "Fig 15")
    with timer(result):
        runs = _training_comparison(models, epochs, n_files, file_size,
                                    batch_size, lustre_contention=12.0)
        # The §6.6 job: ImageNet-1K for 90 epochs.
        job_files, job_epochs = 1_281_167, 90
        for model_name, by_system in runs.items():
            # Project the 90-epoch job from measured epoch wall times:
            # per-file wall × full dataset size × 90 epochs.
            totals, ios = {}, {}
            for system, tr in by_system.items():
                per_file_wall = float(np.mean(tr.epoch_walls)) / n_files
                totals[system] = per_file_wall * job_files * job_epochs
                per_file_compute = tr.total_compute_time() / (
                    len(tr.timings) * batch_size
                )
                ios[system] = (
                    (per_file_wall - per_file_compute) * job_files * job_epochs
                )
            result.add(
                model=model_name,
                lustre_total_h=totals["lustre"] / 3600,
                diesel_total_h=totals["diesel-fuse"] / 3600,
                normalized_total=totals["diesel-fuse"] / totals["lustre"],
                io_reduction=(
                    1 - ios["diesel-fuse"] / ios["lustre"]
                    if ios["lustre"] > 0 else 0.0
                ),
                total_reduction=1 - totals["diesel-fuse"] / totals["lustre"],
            )
        result.note("paper: IO time reduced 51-58%, total time 15-27% "
                    "(total 37-66h on Lustre -> 29-57h)")
    return result


class _FirstEpochReads(FuseReader):
    """A FUSE reader that notes the server's chunk reads as epoch 1 starts."""

    def __init__(self, mount: FuseMount, seed: int, server_stats: ServerStats):
        super().__init__(mount, seed=seed)
        self._server_stats = server_stats
        self.first_epoch_reads = 0

    def begin_epoch(self, epoch: int):
        if epoch == 1:
            self.first_epoch_reads = self._server_stats.chunk_reads
        order = yield from super().begin_epoch(epoch)
        return order


def prefetch_pipeline(
    depths: Sequence[int] = (0, 1, 2, 4),
    epochs: int = 2,
    n_files: int = 1_000,
    file_size: int = 110 * KB,
    batch_size: int = 32,
    group_size: int = 4,
    io_workers: int = 4,
    compute_per_batch_s: float = 2e-3,
    seed: int = 7,
) -> ExperimentResult:
    """Pipelined chunk prefetch: consumer stall vs ``prefetch_depth``.

    A Fig-14-style DIESEL-FUSE run repeated at several prefetch depths
    on the *same* epoch plan (fixed seed; depth 0 is the on-demand
    baseline), driven by :func:`run_training`.  Reports the per-iteration
    consumer stall (``IterationTiming.data_time_s``) and the server's
    chunk-read counter: with the single-flight map, each chunk moves at
    most once per epoch even while the pipeline and demand fetches race,
    so ``duplicate_reads`` should be 0 at every depth.
    """
    result = ExperimentResult("prefetch pipeline stall", "§4.3 / Fig 14")
    payload = b"\x22" * file_size
    files = {f"/im/f{i:06d}.jpg": payload for i in range(n_files)}
    with timer(result):
        for depth in depths:
            tb = deploy(2, "im", files)
            client = diesel_client_with_snapshot(
                tb, "im", tb.compute_nodes[0], "trainer",
                config=DieselConfig(
                    shuffle_group_size=group_size, prefetch_depth=depth
                ),
            )
            client.enable_shuffle(group_size=group_size)
            reader = _FirstEpochReads(
                FuseMount([client], tb.cal), seed, tb.diesel.stats
            )
            trained = tb.run(run_training(
                tb.env, reader, ModelProfile("prefetch", compute_per_batch_s),
                epochs=epochs, batch_size=batch_size, io_workers=io_workers,
            ))
            waits = [t.data_time_s for t in trained.timings]
            result.add(
                prefetch_depth=depth,
                mean_wait_s=float(np.mean(waits)),
                p95_wait_s=float(np.percentile(waits, 95)),
                total_stall_s=float(np.sum(waits)),
                chunk_reads=tb.diesel.stats.chunk_reads,
                # Cold epoch needs exactly one transfer per chunk; any
                # excess is a duplicate the single-flight map should
                # have prevented.
                duplicate_reads=reader.first_epoch_reads - len(tb.chunks),
                prefetch_hits=client.stats.prefetch_hits,
                prefetch_misses=client.stats.prefetch_misses,
                prefetch_wasted=client.stats.prefetch_wasted,
            )
        base = result.one(prefetch_depth=depths[0])
        for depth in depths[1:]:
            row = result.one(prefetch_depth=depth)
            result.note(
                f"depth {depth}: mean stall "
                f"{row['mean_wait_s'] / base['mean_wait_s']:.2f}x on-demand, "
                f"{row['duplicate_reads']} duplicate chunk transfers"
            )
    return result


def ingest_pipeline(
    depths: Sequence[int] = (1, 2, 4),
    n_chunks: int = 24,
    files_per_chunk: int = 8,
    file_size: int = 512 * KB,
    n_servers: int = 4,
) -> ExperimentResult:
    """Pipelined ingest: DL_put wall time vs ``ingest_pipeline_depth``.

    Two phases per depth.  The *ship* phase isolates what the pipeline
    overlaps — pre-sealed chunks pushed through :class:`ChunkPipeline`
    so marshalling, NIC transfer and the servers' journal+store writes
    run ``depth`` deep across the round-robin servers (§4.1.1's
    stateless-server overlap, the Fig 9 discipline).  The *put* phase is
    the end-to-end ``put_many`` ingest, where client-side packing of the
    next chunk overlaps the previous chunks' sends.  ``*_hwm`` columns
    are the client's in-flight high-water mark — 1 at depth 1, ~depth
    otherwise — and ``server_ingests`` proves every chunk still arrives
    exactly once.
    """
    from repro.core.chunk_builder import ChunkBuilder, ChunkPipeline
    from repro.util.ids import sim_id_generator

    result = ExperimentResult("pipelined chunk ingest", "§4.1.1 / Fig 9")
    chunk_size = files_per_chunk * file_size
    n_files = n_chunks * files_per_chunk
    items = [
        (f"/ing/f{i:05d}.bin", b"\x33" * file_size) for i in range(n_files)
    ]

    def fresh_client(depth: int):
        tb = deploy(1, n_servers=n_servers)
        client = diesel_client(
            tb, "ing", tb.compute_nodes[0], "ingester",
            config=DieselConfig(
                chunk_size=chunk_size, ingest_pipeline_depth=depth
            ),
        )
        return tb, client

    with timer(result):
        for depth in depths:
            # --- ship phase: pre-sealed chunks, transfer overlap only ---
            tb, client = fresh_client(depth)
            builder = ChunkBuilder(
                sim_id_generator("ingest", clock=lambda: tb.env.now),
                chunk_size=chunk_size,
            )
            chunks = list(builder.build_stream(items))  # zero simulated cost

            def ship():
                if depth <= 1:
                    for chunk in chunks:
                        yield from client._send_chunk(chunk)
                    return
                pipe = ChunkPipeline(
                    tb.env, client._send_chunk, depth,
                    watermark=client._note_ingest_inflight,
                )
                for chunk in chunks:
                    yield from pipe.submit(chunk)
                yield from pipe.drain()

            ship_s = tb.timed([ship()])
            ship_hwm = max(1, client.stats.ingest_inflight_hwm)
            server_ingests = ServerStats.total(
                s.stats for s in tb.diesel_servers
            ).ingests

            # --- put phase: end-to-end DL_put/DL_flush pipeline ---
            tb, client = fresh_client(depth)
            put = {}

            def put_all():
                put["chunks"] = yield from client.put_many(items)

            result.add(
                depth=depth,
                ship_s=ship_s,
                ship_hwm=ship_hwm,
                put_s=tb.timed([put_all()]),
                put_hwm=max(1, client.stats.ingest_inflight_hwm),
                chunks_shipped=put["chunks"],
                server_ingests=server_ingests,
                **stats_row(client.stats, ["puts", "chunks_sent"]),
            )
        add_relative(
            result, result.one(depth=depths[0]),
            {"ship_speedup": "ship_s", "put_speedup": "put_s"}, speedup=True,
        )
        best = result.rows[-1]
        result.note(
            f"depth {best['depth']}: ship {best['ship_speedup']:.2f}x, "
            f"end-to-end put {best['put_speedup']:.2f}x over serial "
            f"(in-flight hwm {best['ship_hwm']})"
        )
        result.note(
            "every chunk still ingested exactly once at every depth "
            "(server_ingests == chunks_shipped)"
        )
    return result


def fanout_scatter_gather(
    fanouts: Sequence[int] = (1, 2, 4),
    n_files: int = 512,
    file_size: int = 128 * KB,
    n_nodes: int = 2,
    batch: int = 48,
) -> ExperimentResult:
    """Scatter-gather reads: warmup, recovery and batched-get fan-out.

    Three measurements per width.  *Warmup*: oneshot cache masters
    stream their partitions with ``register(fanout=)`` pulls in flight
    each (all masters always concurrent; the product width is the
    node's ingress channel count, this sweep pins it per arm).
    *Recovery*: one master's node is killed and the survivors re-stream
    the orphaned chunks at ``recover(fanout=)`` (Fig 11b — with fan-out,
    recovery time scales with the largest partition, not the orphaned
    total).  *Cold batched read*: ``get_many`` over a batch
    spanning every chunk with ``read_fanout`` concurrent fetches;
    ``duplicate_reads`` must stay 0 (single-flight preserved under
    concurrency).
    """

    result = ExperimentResult(
        "scatter-gather fan-out", "§4.2 / Fig 11b"
    )
    payload_files = {
        f"/sg/f{i:05d}.jpg": b"\x44" * file_size for i in range(n_files)
    }
    stride = max(1, n_files // batch)
    batch_paths = list(payload_files)[::stride][:batch]
    with timer(result):
        for f in fanouts:
            # --- oneshot warmup across masters ---
            tb = deploy(n_nodes, "sg", payload_files)
            cache = make_task(tb, "sg", tb.compute_nodes).cache
            tb.run(cache.register(fanout=f))  # this sweep pins the width
            warm_s = tb.timed([cache.wait_warm()])
            pull_hwm = max(
                max(1, m.stats.pull_inflight_hwm)
                for m in cache.masters.values()
            )

            # --- recovery: kill one master, survivors re-stream ---
            victim = cache.masters[sorted(cache.masters)[0]]
            victim.node.kill()
            reloaded = {}

            def recover():
                reloaded["chunks"] = yield from cache.recover(fanout=f)

            recover_s = tb.timed([recover()])

            # --- cold batched read through get_many ---
            tb = deploy(1, "sg", payload_files, n_servers=2)
            reader = diesel_client_with_snapshot(
                tb, "sg", tb.compute_nodes[0], "reader",
                config=DieselConfig(
                    shuffle_group_size=len(tb.chunks), read_fanout=f
                ),
            )
            reader.enable_shuffle()
            touched = {
                reader.index.lookup(p).chunk_id for p in batch_paths
            }

            def cold_read():
                got = yield from reader.get_many(batch_paths)
                assert len(got) == len(batch_paths)

            read_s = tb.timed([cold_read()])
            chunk_reads = ServerStats.total(
                s.stats for s in tb.diesel_servers
            ).chunk_reads
            result.add(
                fanout=f,
                warm_s=warm_s,
                pull_hwm=pull_hwm,
                recover_s=recover_s,
                chunks_reloaded=reloaded["chunks"],
                read_s=read_s,
                fetch_hwm=max(1, reader.stats.fetch_inflight_hwm),
                duplicate_reads=chunk_reads - len(touched),
                **stats_row(
                    reader.stats, ["local_hits", "server_reads"],
                    prefix="rd_",
                ),
            )
        add_relative(
            result, result.one(fanout=fanouts[0]),
            {"warm_speedup": "warm_s", "recover_speedup": "recover_s",
             "read_speedup": "read_s"},
            speedup=True,
        )
        best = result.rows[-1]
        result.note(
            f"fanout {best['fanout']}: warmup {best['warm_speedup']:.2f}x, "
            f"recovery {best['recover_speedup']:.2f}x, batched read "
            f"{best['read_speedup']:.2f}x over serial"
        )
        result.note(
            "0 duplicate chunk transfers at every fan-out "
            "(single-flight preserved under concurrency)"
        )
    return result


def latency_breakdown(
    n_files: int = 384,
    file_size: int = 128 * KB,
    group_size: int = 4,
    prefetch_depth: int = 4,
    read_fanout: int = 4,
    batch: int = 32,
    compute_per_file_s: float = 5e-5,
) -> ExperimentResult:
    """Per-layer read latency: where DL_get time goes, with percentiles.

    Attaches an :class:`repro.obs.SpanRecorder` to one client and the
    DIESEL servers, then drives the two read paths the observability
    layer was built to explain: a chunk-wise-shuffled epoch of single
    ``get`` calls (prefetch pipeline active, so most files resolve in
    the local group cache) followed by a batched ``get_many`` over a
    strided sample (scatter-gather fan-out).  The row merges the plain
    client counters with the recorder's flattened per-(op, layer)
    histogram — ``read_<layer>_count`` resolution counts and
    ``get_<layer>_p50_ms`` / ``get_<layer>_p99_ms`` percentiles — via
    the same :func:`~repro.obs.counters.stats_row` seam every other
    experiment uses.  docs/OBSERVABILITY.md walks through reading the
    output.
    """

    result = ExperimentResult(
        "per-layer read latency", "§4 / Fig 4 read chain"
    )
    files = {
        f"/lat/f{i:05d}.jpg": b"\x55" * file_size for i in range(n_files)
    }
    with timer(result):
        tb = deploy(1, "lat", files, n_servers=2)
        reader = diesel_client_with_snapshot(
            tb, "lat", tb.compute_nodes[0], "reader",
            config=DieselConfig(
                shuffle_group_size=group_size,
                prefetch_depth=prefetch_depth,
                read_fanout=read_fanout,
            ),
        )
        recorder = SpanRecorder.attach(reader, *tb.diesel_servers)
        reader.enable_shuffle()
        plan = reader.epoch_file_list(seed=11)

        def job():
            # Epoch of single gets: the per-file path (group cache vs
            # demand fetch), paced like a training loop so the prefetch
            # pipeline has compute time to hide transfers behind.
            for path in plan.files:
                yield from reader.get(path)
                yield tb.env.timeout(compute_per_file_s)
            # Batched path: one scatter-gather get_many over a strided
            # sample (mostly resident by now => group-cache resolutions).
            stride = max(1, len(plan.files) // batch)
            sample = plan.files[::stride][:batch]
            got = yield from reader.get_many(sample)
            assert len(got) == batch

        elapsed = tb.timed([job()])
        layer_keys = [
            k for k in recorder.to_dict()
            if k.startswith(("read_", "get_", "prefetch_"))
        ]
        result.add(
            files=len(plan.files),
            elapsed_s=elapsed,
            **stats_row(reader.stats, ["local_hits", "server_reads"],
                        prefix="rd_"),
            **stats_row(recorder, layer_keys),
        )
        row = result.rows[-1]
        total = row["read_group_cache_count"] + row["read_server_count"]
        result.note(
            f"read resolution: {row['read_group_cache_count']}/{total} "
            "group_cache (prefetched or resident), "
            f"{row['read_server_count']}/{total} server (demand chunk "
            "fetch)"
        )
        result.note(
            "get p50/p99 by layer (ms): "
            f"group_cache {row['get_group_cache_p50_ms']:.3f}/"
            f"{row['get_group_cache_p99_ms']:.3f}, "
            f"server {row['get_server_p50_ms']:.3f}/"
            f"{row['get_server_p99_ms']:.3f}"
        )
        result.note(
            "full per-(op, layer) table: recorder.summary(); "
            "timeline: `dlcmd trace` -> chrome://tracing"
        )
    return result


# =========================================================== faults
def fig_faults(
    n_files: int = 160,
    file_size: int = 8 * KB,
    n_nodes: int = 4,
    chunk_size: int = 64 * KB,
    kill_cache_at: float = 0.25,
    kill_kv_at: float = 0.75,
    run_s: float = 1.25,
    window_s: float = 0.2,
    pace_s: float = 2e-4,
) -> ExperimentResult:
    """Scripted recovery under injected failures (§4.1.2 scenario (a), Fig 4).

    A warmed task cache serves a paced reader while a killer process
    injects two failures and runs the recovery an operator would: a
    cache-master node dies mid-run and, 30 ms later,
    ``TaskCache.recover()`` re-partitions and reloads its chunks (reads
    degrade to the server meanwhile); then a KV storage node takes its
    Redis shards down, they restart cold, and
    ``rebuild_dataset(from_timestamp)`` replays the lost metadata.
    Reports recovery time, per-window throughput around each event, and
    the ``verify_rebuild`` discrepancy count.  The headline criteria:
    zero failed client reads across both episodes, and steady-state
    throughput back within 10% of the pre-kill window.
    """
    from repro.core.recovery import rebuild_dataset, verify_rebuild

    # Seconds from each kill to its recovery call.  They keep the
    # timeline this scenario has always had: a 40 ms failure timeout
    # counted from the last 10 ms heartbeat, which fell 10 ms before
    # each kill, then a 50 ms restart and one more heartbeat for the
    # KV shards.
    recover_after_s, rebuild_after_s = 0.03, 0.09

    result = ExperimentResult(
        "scripted fault recovery", "§4.1.2 failure scenarios"
    )
    files = {
        f"/ds/f{i:05d}.jpg": b"\x5a" * file_size for i in range(n_files)
    }
    paths = list(files)
    with timer(result):
        tb = deploy(n_nodes, "ds", files, chunk_size, n_servers=1, n_kv=8)
        task = warmed_task(tb, "ds", tb.compute_nodes)
        cache, clients = task.cache, task.clients

        # The victim master lives on compute0; the reader on compute1.
        cache_victim_node = tb.compute_nodes[0]
        reader_cc = next(
            m.client for n, m in cache.masters.items()
            if n != cache_victim_node.name
        )
        # One storage node that hosts only Redis shards (the DIESEL
        # server sits on storage0 with n_servers=1).
        kv_victim_node = tb.storage_nodes[1]
        kv_victims = [
            i for i in tb.kv.instances if i.node is kv_victim_node
        ]
        assert kv_victims, "expected Redis shards on the victim node"

        completions: List[float] = []
        failed_reads = 0
        index = clients[1].index

        def reader():
            nonlocal failed_reads
            rng = random.Random(1)
            while tb.env.now < run_s:
                rec = index.lookup(rng.choice(paths))
                try:
                    yield from cache.read_file(reader_cc, rec)
                    completions.append(tb.env.now)
                except ReproError:
                    failed_reads += 1
                yield tb.env.timeout(pace_s)

        def killer():
            # The kills fall at offsets from the killer's start, after
            # warm-up; every window is timed from the instants they
            # really fell at.
            start = tb.env.now
            yield tb.env.timeout(kill_cache_at)
            cache_victim_node.kill()
            cache_killed_at = tb.env.now
            yield tb.env.timeout(recover_after_s)
            recovered_at = tb.env.now
            reloaded = yield from cache.recover()
            recovery_s = tb.env.now - recovered_at
            yield tb.env.timeout(start + kill_kv_at - tb.env.now)
            kv_victim_node.kill()
            kv_killed_at = tb.env.now
            yield tb.env.timeout(rebuild_after_s)
            kv_victim_node.restore()
            for inst in kv_victims:
                inst.restart()
            t0 = tb.env.now
            scanned = yield from rebuild_dataset(
                tb.diesel, "ds", from_timestamp=int(kv_killed_at)
            )
            return (cache_killed_at, recovered_at, recovery_s, reloaded,
                    kv_killed_at, tb.env.now - t0, scanned)

        script = tb.env.process(killer(), name="faults:killer")
        tb.run(reader())
        (cache_killed_at, recovered_at, recovery_s, reloaded,
         kv_killed_at, rebuild_s, scanned) = script.value

        def tput(lo: float, hi: float) -> float:
            n = sum(1 for t in completions if lo <= t < hi)
            return n / (hi - lo) if hi > lo else 0.0

        pre = tput(cache_killed_at - window_s, cache_killed_at)
        degraded = tput(cache_killed_at, recovered_at)
        post = tput(recovered_at, recovered_at + window_s)
        result.add(
            event="cache_master_killed", at_s=cache_killed_at,
            recovery_s=recovery_s,
            chunks_reloaded=reloaded,
            degraded_reads=cache.stats.degraded_reads,
            pre_reads_per_s=pre, degraded_reads_per_s=degraded,
            post_reads_per_s=post, post_over_pre=post / pre,
        )
        problems = verify_rebuild(
            tb.diesel, "ds", {p: len(b) for p, b in files.items()}
        )
        result.add(
            event="kv_shards_killed", at_s=kv_killed_at,
            shards_lost=len(kv_victims),
            rebuild_elapsed_s=rebuild_s,
            from_timestamp=int(kv_killed_at),
            chunks_scanned=scanned,
            verify_problems=len(problems),
            failed_reads=failed_reads,
        )
        result.note(
            f"cache master died at t={cache_killed_at:.2f}s: recover() "
            f"{recover_after_s * 1e3:.0f}ms later healed it in "
            f"{recovery_s * 1e3:.1f}ms ({reloaded} chunks re-streamed), "
            f"post-recovery throughput at {post / pre:.0%} of pre-kill"
        )
        result.note(
            f"{len(kv_victims)} Redis shards died at t={kv_killed_at:.2f}s: "
            f"restarted cold {rebuild_after_s * 1e3:.0f}ms later, "
            f"metadata replayed from t={int(kv_killed_at)} "
            f"({scanned} chunks scanned), "
            f"verify_rebuild: {len(problems)} problems"
        )
        result.note(
            f"client reads: {len(completions)} served, {failed_reads} "
            "failed (warm peers + Fig 4 server fall-through cover both "
            "failure windows)"
        )
    return result


# =========================================================== locality
def fig_locality(
    n_files: int = 240,
    file_size: int = 8 * KB,
    n_nodes: int = 4,
    chunk_size: int = 64 * KB,
    group_size: int = 2,
    storm_clients: int = 6,
) -> ExperimentResult:
    """Node-local hits under the hash ring, and a pull storm (§4.2).

    Two phases on a balanced multi-node task:

    1. **Ring reads** — a warmed task cache serves one scheduled epoch
       from p workers (one per node).  The ring deals every node ~1/p
       of the chunks, so ~1/p of hits are node-local memory copies and
       the rest pay the one-hop peer RPC.  Reports the local-hit
       fraction and the epoch read time.
    2. **Pull storm** — n clients fault every chunk of a cold
       on-demand cache concurrently; the per-master single-flight map
       coalesces them so the backend sees exactly one fetch per chunk
       (``duplicate_backend_fetches == 0``).
    """

    result = ExperimentResult(
        "hash-ring cache placement",
        "§4.2 hash-ring placement + pull coalescing",
    )
    files = {
        f"/ds/f{i:05d}.jpg": b"\x3c" * file_size for i in range(n_files)
    }
    with timer(result):
        # ---------------------------------------- phase 1: ring reads
        tb = deploy(n_nodes, "ds", files, chunk_size, n_servers=1)
        task = warmed_task(
            tb, "ds", tb.compute_nodes, "hash-c",
            group_size=group_size, seed=7,
        )
        cache = task.cache
        recorder = SpanRecorder.attach(cache)
        scheduler = task.scheduler()
        elapsed = tb.timed(
            task.read(w, scheduler.shard(0, w).files) for w in range(n_nodes)
        )
        stats = cache.stats
        served = stats.local_hits + stats.remote_hits
        local_frac = stats.local_hits / served if served else 0.0
        spans = recorder.to_dict()
        result.add(
            **{"placement": "hash"},  # the row's label: the ring is the one deal
            nodes=n_nodes, files=len(files),
            epoch_read_s=elapsed, local_frac=local_frac,
            span_local=spans.get("cache_read_local_master_n", 0),
            span_remote=spans.get("cache_read_task_cache_n", 0),
            **stats_row(stats, prefix="cache_"),
        )
        result.note(
            f"hash: {stats.local_hits}/{served} local hits "
            f"({local_frac:.0%}), epoch read {elapsed * 1e3:.2f}ms"
        )

        # --------------------------------------- phase 2: pull storm
        tb = deploy(n_nodes, "ds", files, chunk_size, n_servers=1)
        task = make_task(
            tb, "ds",
            [tb.compute_nodes[c % n_nodes] for c in range(storm_clients)], "s",
            policy="on-demand",
        )
        cache, storm = task.cache, task.clients
        warm(tb, [task], wait_warm=False)
        all_cids = [c.chunk_id.encode() for c in tb.chunks]
        fetches_before = tb.diesel.stats.chunk_reads

        def puller(cc):
            for encoded in all_cids:
                owner = cache.owner_of(encoded)
                yield from owner.endpoint.call(cc.node, "pull_chunk", encoded)

        tb.run_all(puller(c.as_cache_client()) for c in storm)
        fetches = tb.diesel.stats.chunk_reads - fetches_before
        stats = cache.stats
        result.add(
            event="pull_storm", clients=storm_clients,
            chunks=len(all_cids), backend_chunk_fetches=fetches,
            duplicate_backend_fetches=fetches - len(all_cids),
            coalesced_pulls=stats.coalesced_pulls,
        )
        result.note(
            f"pull storm: {storm_clients} clients × {len(all_cids)} chunks "
            f"→ {fetches} backend fetches "
            f"({fetches - len(all_cids)} duplicates), "
            f"{stats.coalesced_pulls} pulls coalesced in flight"
        )
    return result


# ===================================================== engine scale
#: Deterministic hit pattern for the scale workload: request ``i`` is a
#: cache hit iff ``i % _SCALE_CYCLE < _SCALE_RESIDENT`` (a 70% hit rate
#: with no RNG, so both admission variants count the same hits).
_SCALE_CYCLE = 10
_SCALE_RESIDENT = 7


def _scale_hits_below(x: int) -> int:
    """Hits among requests ``[0, x)`` of the deterministic pattern, in
    closed form — lets the vectorized handler account a whole range in
    O(1) while matching the per-request variant exactly."""
    return (x // _SCALE_CYCLE) * _SCALE_RESIDENT + min(
        x % _SCALE_CYCLE, _SCALE_RESIDENT
    )


@dataclass(slots=True)
class _ScaleCounters(Counters):
    """Per-server read/hit/stat counters for the scale workload."""

    reads: int = 0
    hits: int = 0
    stat_calls: int = 0


def _scale_handler(ctr: "_ScaleCounters"):
    """Request-executor handler: per-request and vectorized-range ops.

    ``read_one`` is the per-request admission path (one handler run per
    request); ``read_range`` is the vectorized path — one handler run
    accounts ``hi - lo`` requests via the closed-form hit count, so a
    whole arrival batch costs O(1) handler work on top of the one
    admitted RPC.
    """

    def handle(method, *args):
        if method == "read_one":
            i = args[0]
            ctr.reads += 1
            ctr.stat_calls += 1
            if i % _SCALE_CYCLE < _SCALE_RESIDENT:
                ctr.hits += 1
            return 64
        if method == "read_range":
            lo, hi = args
            ctr.reads += hi - lo
            ctr.stat_calls += hi - lo
            ctr.hits += _scale_hits_below(hi) - _scale_hits_below(lo)
            return 64 * (hi - lo)
        raise ValueError(f"unknown scale method {method!r}")

    return handle


def scale_engine(
    n_nodes: int = 1000,
    n_requests: int = 1_000_000,
    batch: int = 256,
    n_servers: int = 8,
    epoch_s: float = 10.0,
) -> ExperimentResult:
    """Engine scale: a 1000-node, 10⁶-request epoch under two admissions.

    Two variants of the same workload run on the one kernel in one call
    and must produce identical read/hit/stat counters (the first ``scale``
    claim); admission is the only difference between them:

    * ``per-request`` — one admitted RPC per request, every arrival
      pre-scheduled up front (peak occupancy ≈ the full epoch);
    * ``batched`` — arrivals admitted per *batch* through
      ``RpcEndpoint.call_batch`` and the vectorized range handler.

    Reported per variant: actual kernel events (``sim_events``), wall
    seconds, raw kernel event rate (``kernel_events_per_sec``), peak
    event-heap occupancy and requests/sec.  ``events_per_sec`` is the
    *epoch-normalized* rate — the reference variant's event count
    divided by this variant's wall time — so the two rates compare
    delivery of the same epoch (reference-machine normalization; for
    the baseline it equals its raw rate).  The speedup row is the
    events/sec ratio.  Defaults are the full-scale epoch; CI smoke mode
    runs ``scale_engine(n_nodes=50, n_requests=10_000)``.
    """
    from repro.cluster.network import NetworkFabric
    from repro.rpc.endpoint import RpcEndpoint

    result = ExperimentResult("engine scale", "simulation substrate")
    with timer(result):
        for variant, admit in (("per-request", 1), ("batched", batch)):
            env = Environment()
            fabric = NetworkFabric(env, DEFAULT.network)
            servers = [
                fabric.add_node(Node(env, f"srv{i}", nic_channels=8))
                for i in range(n_servers)
            ]
            clients = [
                fabric.add_node(Node(env, f"cl{i}"))
                for i in range(n_nodes)
            ]
            ctrs = [_ScaleCounters() for _ in range(n_servers)]
            endpoints = [
                RpcEndpoint(
                    env, fabric, servers[i], f"exec{i}",
                    handler=_scale_handler(ctrs[i]),
                    service_s=2e-6, workers=64,
                )
                for i in range(n_servers)
            ]
            if admit <= 1:
                # Per-request admission: every arrival is its own
                # pre-scheduled timeout and its own RPC process.
                gap = epoch_s / n_requests

                def arrive_one(evt):
                    i = evt.value
                    env.process(endpoints[i % n_servers].call(
                        clients[i % n_nodes], "read_one", i,
                    ))

                for i in range(n_requests):
                    env.timeout(i * gap, value=i).callbacks.append(
                        arrive_one
                    )
            else:
                # Vectorized admission: one pre-scheduled arrival and
                # one admitted RPC per batch of `admit` requests.
                n_batches = -(-n_requests // admit)
                gap = epoch_s / n_batches

                def arrive_batch(evt):
                    b = evt.value
                    lo = b * admit
                    hi = min(lo + admit, n_requests)
                    env.process(endpoints[b % n_servers].call_batch(
                        clients[lo % n_nodes],
                        [("read_range", lo, hi)],
                    ))

                for b in range(n_batches):
                    env.timeout(b * gap, value=b).callbacks.append(
                        arrive_batch
                    )
            env.run()
            es = env.engine_stats()
            result.add(
                variant=variant,
                n_nodes=n_nodes,
                n_requests=n_requests,
                admission_batch=admit,
                sim_events=es.sim_events,
                wall_s=es.run_wall_s,
                kernel_events_per_sec=es.events_per_sec,
                peak_occupancy=es.peak_occupancy,
                requests_per_sec=(
                    n_requests / es.run_wall_s if es.run_wall_s else 0.0
                ),
                **_ScaleCounters.total(ctrs).to_dict(),
            )
        base = result.one(variant="per-request")
        fast = result.one(variant="batched")
        # Epoch-normalized sim-events/sec: both variants deliver the
        # *same* epoch (identical counters), so rates are comparable
        # only against a common event count — the per-request variant's.
        # events_per_sec = base_events / wall: for per-request admission
        # this is its raw kernel rate; for batched admission it is the
        # rate at which it retires per-request-equivalent event work
        # (reference-machine normalization).
        for row in (base, fast):
            row["events_per_sec"] = (
                base["sim_events"] / row["wall_s"] if row["wall_s"] else 0.0
            )
        speedup = ratio(fast["events_per_sec"], base["events_per_sec"])
        kernel_speedup = ratio(
            fast["kernel_events_per_sec"], base["kernel_events_per_sec"]
        )
        req_speedup = ratio(
            fast["requests_per_sec"], base["requests_per_sec"]
        )
        result.add(
            variant="speedup",
            events_per_sec=speedup,
            kernel_events_per_sec=kernel_speedup,
            requests_per_sec=req_speedup,
        )
        result.note(
            f"batched admission delivers {speedup:.1f}x the sim-events/sec "
            f"of per-request admission on the same kernel and the same "
            f"{n_nodes}-node, {n_requests:,}-request epoch "
            f"(epoch-normalized: it retires per-request admission's "
            f"{base['sim_events']:,}-event epoch in {fast['wall_s']:.3f}s "
            f"vs {base['wall_s']:.1f}s; raw kernel rate "
            f"{kernel_speedup:.2f}x, requests/sec {req_speedup:,.0f}x)"
        )
        result.note(
            f"identical read/hit/stat counters across variants: "
            f"{base['reads']:,} reads, {base['hits']:,} hits, "
            f"{base['stat_calls']:,} stat calls (semantic equivalence)"
        )
    return result


# ===================================================== cross-task sharing
def model_selection(
    n_files: int = 192,
    file_size: int = 8 * KB,
    n_nodes: int = 4,
    chunk_size: int = 64 * KB,
    task_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Cross-task shared chunk tier under a model-selection sweep.

    N trainers × 1 dataset (hyperparameter search / ensembling): every
    task keeps its own :class:`TaskCache`, but all admissions route
    through one node-level
    :class:`~repro.core.shared_cache.SharedCacheRegistry`, so the
    dataset is fetched from the object store once per (node, chunk) no
    matter how many tasks run.  Two phases:

    1. **Warm register** — task A warms the dataset cold, then task B
       registers the same dataset: B's warmup admits from A's resident
       chunks (refcount bump, no backend I/O) and finishes in a small
       fraction of the cold time.
    2. **Sweep scaling** — for each N in ``task_counts``, N concurrent
       tasks register and train one epoch.  Backend chunk fetches stay
       ~constant in N (cross-task admission + cross-task single-flight
       on the racing warmups), and every task holds a reference to
       every chunk.
    """
    from repro.dlt.sweep import run_sweep

    result = ExperimentResult(
        "cross-task shared cache (model selection)",
        "shared chunk tier: N trainers × 1 dataset",
    )
    files = {
        f"/ds/f{i:05d}.jpg": b"\x5a" * file_size for i in range(n_files)
    }
    model = ModelProfile("sweep-toy", compute_s=1e-4)

    def build_sweep(tb, registry, n_tasks):
        return [
            make_task(tb, "ds", tb.compute_nodes, f"t{t}c", shared=registry)
            for t in range(n_tasks)
        ]

    with timer(result):
        # ------------------------------------ phase 1: warm register
        tb = deploy(n_nodes, "ds", files, chunk_size, n_servers=1)
        chunks = tb.chunks
        registry = SharedCacheRegistry(tb.env)
        cold_task, warm_task = build_sweep(tb, registry, 2)
        cold_s = warm(tb, [cold_task])
        warm_s = warm(tb, [warm_task])
        warm_ratio = warm_s / cold_s if cold_s else 0.0
        s = registry.stats
        result.add(
            event="warm_register", chunks=len(chunks),
            cold_warmup_s=cold_s, warm_warmup_s=warm_s,
            warm_ratio=warm_ratio,
            **stats_row(s, prefix="shared_"),
        )
        result.note(
            f"second task warmed {len(chunks)} chunks in "
            f"{warm_s * 1e3:.3f}ms — {warm_ratio:.1%} of the "
            f"{cold_s * 1e3:.3f}ms cold warmup "
            f"({s.warm_admissions} warm admissions, 0 backend fetches)"
        )

        # ------------------------------------ phase 2: sweep scaling
        for n_tasks in task_counts:
            tb = deploy(n_nodes, "ds", files, chunk_size, n_servers=1)
            registry = SharedCacheRegistry(tb.env)
            tasks = build_sweep(tb, registry, n_tasks)
            fetches_before = tb.diesel.stats.chunk_reads
            elapsed = tb.timed([run_sweep(tb.env, tasks, model)])
            result.add(
                event="sweep", tasks=n_tasks, chunks=len(chunks),
                backend_chunk_fetches=tb.diesel.stats.chunk_reads - fetches_before,
                fetch_ratio_vs_single=None,  # relative to the first sweep, below
                sweep_s=elapsed,
                **stats_row(registry.stats, prefix="shared_"),
            )
        sweeps = result.where(event="sweep")
        add_relative(
            result, sweeps[0], {"fetch_ratio_vs_single": "backend_chunk_fetches"}
        )
        for row in sweeps:
            result.note(
                f"{row['tasks']:>2} task(s): {row['backend_chunk_fetches']} "
                f"backend fetches ({row['fetch_ratio_vs_single']:.2f}x "
                f"single-task), {row['shared_warm_admissions']} warm "
                f"admissions, {row['shared_coalesced_pulls']} coalesced"
            )

    return result


def capacity(
    ram_bytes: int = 3 * MB,
    n_nodes: int = 2,
    file_size: int = 16 * KB,
    chunk_size: int = 256 * KB,
    ratios: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 10.0),
    disk_tier_bytes: int = 64 * MB,
) -> ExperimentResult:
    """Datasets larger than memory: the tiered chunk store under load.

    Cache nodes get ``ram_bytes`` of memory each and a simulated
    node-local NVMe tier (a ``store='tiered'`` registry,
    :mod:`repro.core.chunk_store`).  For each dataset:RAM ratio in
    ``ratios`` — 0.5× (fits comfortably) through 10× (RAM covers a
    sliver) — one task warms the dataset and reads every file for one
    epoch, with and without transparent chunk compression:

    * Warmup admissions overflow RAM → disk instead of staying
      server-resident, so the epoch never falls through to the backend.
    * Reads past the RAM tier charge a chunk-granular disk read (plus
      decompress when compression is on); with RAM full they stream
      through *without* promotion, so a scan larger than memory cannot
      thrash the RAM working set.
    * Compression shrinks stored/transferred bytes per chunk by a
      deterministic per-chunk ratio (~1.4–3.6×): reads pay
      ``stored/disk_bw + logical/decompress_bw`` instead of
      ``logical/disk_bw``, which wins once the disk tier serves most
      reads (≥ ~2× dataset:RAM).

    Every row records read throughput, tier counters, the RAM-gauge
    bound (resident RAM bytes never exceed the node's budget) and
    ``lost_chunks`` (chunks resident on no tier at epoch end — always
    0: the disk tier absorbs the overflow).
    """

    result = ExperimentResult(
        "tiered cache store capacity sweep",
        "RAM + NVMe chunk tiers, datasets 0.5x-10x of aggregate RAM",
    )
    aggregate_ram = n_nodes * ram_bytes

    def one_run(ratio, compression):
        n_files = max(1, int(ratio * aggregate_ram / file_size))
        files = {
            f"/ds/f{i:05d}.jpg": bytes([i % 251]) * file_size
            for i in range(n_files)
        }
        tb = deploy(1, "ds", files, chunk_size, n_servers=1)
        chunks = tb.chunks
        dataset_bytes = sum(len(c.encode()) for c in chunks)
        cap_nodes = [
            tb.fabric.add_node(Node(
                tb.env, f"cap{i}", memory_bytes=ram_bytes, nic_channels=8
            ))
            for i in range(n_nodes)
        ]
        registry = SharedCacheRegistry(
            tb.env, store="tiered", disk_tier_bytes=disk_tier_bytes,
            chunk_compression=compression,
        )
        task = make_task(tb, "ds", cap_nodes, "w", shared=registry)
        warmup_s = warm(tb, [task])
        index = task.index
        paths = list(files)
        failed = [0]

        def worker(w):
            cc = task.cache.clients[w]
            for path in paths[w::n_nodes]:
                data = yield from task.cache.read_file(cc, index.lookup(path))
                if data != files[path]:
                    failed[0] += 1

        fetches_before = tb.diesel.stats.chunk_reads
        epoch_s = tb.timed(worker(w) for w in range(n_nodes))
        ram = [c.store.stats.ram_bytes for c in registry.node_caches]
        tier = registry.store_stats
        return {
            "event": "run",
            "ratio": ratio,
            "compression": compression,
            "n_files": n_files,
            "chunks": len(chunks),
            "dataset_bytes": dataset_bytes,
            "aggregate_ram_bytes": aggregate_ram,
            "warmup_s": warmup_s,
            "epoch_s": epoch_s,
            "read_throughput_bps": dataset_bytes / epoch_s,
            "failed_reads": failed[0],
            "lost_chunks": len(chunks) - tier.chunks_ram - tier.chunks_disk,
            "epoch_backend_fetches":
                tb.diesel.stats.chunk_reads - fetches_before,
            "ram_bound_ok": max(ram) <= ram_bytes,
            "max_ram_bytes": max(ram),
            **stats_row(tier, prefix="tier_"),
        }

    with timer(result):
        for ratio in ratios:
            for compression in (False, True):
                row = one_run(ratio, compression)
                result.add(**row)
                result.note(
                    f"{ratio:>4}x RAM {'+comp' if compression else '     '}: "
                    f"{row['read_throughput_bps'] / MB:8.1f} MB/s, "
                    f"{row['tier_ram_hits']} RAM hits / "
                    f"{row['tier_disk_hits']} disk hits, "
                    f"{row['lost_chunks']} lost chunks, "
                    f"{row['epoch_backend_fetches']} backend fetches"
                )
        for ratio in ratios:
            plain = result.one(event="run", ratio=ratio, compression=False)
            comp = result.one(event="run", ratio=ratio, compression=True)
            gain = (comp["read_throughput_bps"]
                    / plain["read_throughput_bps"])
            result.add(
                event="compression_gain", ratio=ratio,
                throughput_gain=gain,
                disk_share=comp["tier_disk_hits"]
                / max(1, comp["tier_disk_hits"] + comp["tier_ram_hits"]),
            )
            result.note(
                f"{ratio:>4}x RAM: compression x{gain:.2f} throughput"
            )
    return result


def fig_metaplane(
    n_files: int = 5000,
    file_size: int = 512,
    chunk_size: int = 64 * KB,
    append_frac: float = 0.01,
    page_limit: int = 1000,
    registry_sizes: Sequence[int] = (1_000, 1_000_000),
    probe_stats: int = 50,
) -> ExperimentResult:
    """The delta metadata plane: journal deltas, pagination, namespace scale.

    Three phases, each on a fresh testbed:

    1. **Delta reload** — a client holding a ``n_files`` snapshot sees
       ``append_frac`` of the dataset appended; ``refresh_meta()``
       fetches only the journal delta.  Measures delta bytes vs the
       full snapshot blob and the simulated refresh time vs a full
       save/load round (the §4.1.3 mutation cliff, removed).
    2. **Pagination** — the same keyspace walked with cursor-paginated
       ``pscan`` at ``page_limit``: the paged union must be
       bit-identical to the unpaginated scan.
    3. **Namespace scale** — the KV's dataset records grow from
       ``registry_sizes[0]`` to ``registry_sizes[-1]`` while one real
       dataset's per-client metadata costs (server stat,
       save+load_meta, one ``list_datasets`` page) are measured at each
       size: namespace growth must not tax per-dataset operations.
    """
    result = ExperimentResult(
        "delta metadata plane",
        "incremental snapshots, paginated pscan "
        "(§4.1.3 / §4.1.1 at namespace scale)",
    )
    files = {
        f"/ds/class{i % 50:02d}/img{i:06d}.jpg": bytes([i % 251]) * file_size
        for i in range(n_files)
    }

    with timer(result):
        # --------------------------------------- phase 1: delta reload
        tb = deploy(2, "ds", files, chunk_size, n_servers=1)
        client = diesel_client(tb, "ds", tb.compute_nodes[0], "mp0")
        blob = tb.run(client.save_meta())
        full_load_s = tb.timed([client.load_meta(blob)])
        n_append = max(1, int(n_files * append_frac))
        late = {
            f"/ds/late/img{i:06d}.jpg": bytes([i % 251]) * file_size
            for i in range(n_append)
        }

        def push():
            for path, data in late.items():
                yield from client.put(path, data)
            yield from client.flush()

        tb.run(push())
        delta_refresh_s = tb.timed([client.refresh_meta()])
        assert client.stats.delta_reloads == 1, "delta path did not engage"
        byte_ratio = client.stats.delta_bytes / len(blob)
        result.add(
            event="delta_reload", n_files=n_files, appended=n_append,
            snapshot_bytes=len(blob),
            delta_bytes=client.stats.delta_bytes,
            delta_bytes_ratio=byte_ratio,
            delta_ops=client.stats.delta_ops_applied,
            full_load_s=full_load_s, delta_refresh_s=delta_refresh_s,
            journal_depth=tb.diesel.journal.depth("ds"),
            index_files=client.index.file_count,
        )
        result.note(
            f"delta reload after {append_frac:.0%} append: "
            f"{client.stats.delta_bytes} B vs {len(blob)} B snapshot "
            f"({byte_ratio:.2%}), {delta_refresh_s * 1e3:.2f}ms vs "
            f"{full_load_s * 1e3:.2f}ms full reload"
        )

        # ----------------------------------------- phase 2: pagination
        prefix = "f:ds:"
        flat = tb.kv.local_pscan(prefix)
        paged: List = []
        n_pages = 0
        for page in tb.kv.local_pscan_iter(prefix, page_limit):
            paged.extend(page)
            n_pages += 1
        result.add(
            event="pagination", prefix=prefix, n_keys=len(flat),
            page_limit=page_limit, n_pages=n_pages,
            bit_identical=paged == flat,
        )
        result.note(
            f"paginated pscan: {len(flat)} keys in {n_pages} pages of "
            f"{page_limit} — union bit-identical: {paged == flat}"
        )

        # ------------------------------------ phase 3: namespace scale
        probe_files = {
            f"/p/img{i:04d}.jpg": bytes([i % 251]) * file_size
            for i in range(200)
        }
        tb = deploy(2, "probe-ds", probe_files, chunk_size, n_servers=1)
        probe_paths = sorted(probe_files)[:probe_stats]
        node = tb.compute_nodes[0]

        def probe_round():
            """Per-client metadata costs at the namespace's current size."""

            def stats():
                for p in probe_paths:
                    yield from tb.diesel.call(node, "stat", "probe-ds", p)

            stat_s = tb.timed([stats()]) / len(probe_paths)
            c = diesel_client(tb, "probe-ds", node, "mp-probe")

            def reload():
                snap = yield from c.save_meta()
                yield from c.load_meta(snap)

            load_s = tb.timed([reload()])
            page = {}

            def one_page():
                page["names"], _ = yield from tb.diesel.call(
                    node, "list_datasets", None, page_limit
                )

            page_s = tb.timed([one_page()])
            return dict(
                stat_s=stat_s, load_meta_s=load_s, page_s=page_s,
                page_names=len(page["names"]),
            )

        grown = 0
        for size in registry_sizes:
            while grown < size - 1:  # probe-ds itself is one dataset
                name = f"reg-ds-{grown:07d}"
                tb.kv.local_put(
                    meta.dataset_key(name), meta.DatasetRecord(name, 1).encode()
                )
                grown += 1
            result.add(event="registry_scale", datasets=size, **probe_round())
        add_relative(
            result, result.where(event="registry_scale")[0],
            {"stat_ratio": "stat_s", "load_meta_ratio": "load_meta_s"},
        )
        row = result.rows[-1]
        result.note(
            f"registry {registry_sizes[0]} → {registry_sizes[-1]} "
            f"datasets: stat {row['stat_ratio']:.2f}x, "
            f"load_meta {row['load_meta_ratio']:.2f}x (flat = 1.0x)"
        )
    return result


#: Registry used by the CLI-style runner and the EXPERIMENTS.md generator.
ALL_EXPERIMENTS = {
    "table2": table2_read_bandwidth,
    "fig6": fig6_cache_degradation,
    "fig9": fig9_write_throughput,
    "fig10a": fig10a_metadata_scaling,
    "fig10b": fig10b_snapshot_scaling,
    "fig10c": fig10c_ls_elapsed,
    "fig11a": fig11a_read_scaling,
    "fig11b": fig11b_cache_recovery,
    "fig12": fig12_shuffle_bandwidth,
    "fig13": fig13_shuffle_accuracy,
    "fig14": fig14_data_access_time,
    "fig15": fig15_training_time,
    "prefetch": prefetch_pipeline,
    "ingest": ingest_pipeline,
    "fanout": fanout_scatter_gather,
    "latency": latency_breakdown,
    "faults": fig_faults,
    "locality": fig_locality,
    "scale": scale_engine,
    "sharing": model_selection,
    "capacity": capacity,
    "metaplane": fig_metaplane,
}
