"""Smoke-size arguments for every experiment, in one table.

The full-scale runs, judged by their claims, live behind
``python -m repro.bench.runner``; these reduced sizes keep
``pytest tests/`` self-contained.  ``test_experiments_smoke.py`` checks
each artifact's basic shape at these sizes, and
``test_scenario_invariants.py`` checks every residency's books at the
end of the deterministic CI scenarios at the same sizes.
"""

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.calibration import KB

SMOKE = {
    "table2": dict(reads_per_size=20),
    "fig6": dict(n_servers=6, n_clients=8, files_per_iteration=8,
                 iterations=20, kill_at=(8,), n_files=200),
    "fig9": dict(files_per_proc=20, procs_per_node=4, sizes=(4 * KB,)),
    "fig10a": dict(server_counts=(1,), node_counts=(1, 4),
                   threads_per_node=8, queries_per_thread=20),
    "fig10b": dict(node_counts=(1, 2)),
    "fig10c": dict(n_files=400, n_dirs=20),
    "fig11a": dict(node_counts=(1,), clients_per_node=4,
                   reads_per_client=10, n_files=200),
    "fig11b": dict(n_files=300, n_nodes=2),
    "fig12": dict(n_nodes=2, threads_per_node=4, sizes=(4 * KB,),
                  files_per_thread=15),
    "fig13": dict(n_samples=800, epochs=6, group_sizes=(4,)),
    "fig14": dict(models=("alexnet",), epochs=2, n_files=300),
    "fig15": dict(models=("alexnet",), epochs=2, n_files=300),
    "prefetch": dict(depths=(0, 2), n_files=200),
    "ingest": dict(depths=(1, 4), n_chunks=8, files_per_chunk=4,
                   file_size=64 * KB),
    # 256 x 128 KB = 8 chunks of 4 MB: enough per-master work for the
    # fan-out to overlap at reduced scale.
    "fanout": dict(fanouts=(1, 4), n_files=256, file_size=128 * KB,
                   batch=24),
    "latency": dict(n_files=128, batch=16),
    "faults": dict(n_files=80, n_nodes=3, kill_cache_at=0.1, kill_kv_at=0.3,
                   run_s=0.5, window_s=0.08),
    "locality": dict(n_files=64, storm_clients=3),
    "scale": dict(n_nodes=50, n_requests=10_000),
    "sharing": dict(n_files=48, task_counts=(1, 3)),
    "capacity": dict(ram_bytes=256 * KB, file_size=8 * KB,
                     chunk_size=64 * KB, ratios=(0.5, 4.0),
                     disk_tier_bytes=4 * 256 * KB),
    "metaplane": dict(n_files=400, registry_sizes=(200, 5000),
                      page_limit=100, probe_stats=10),
}


def run_smoke(name):
    """Experiment ``name`` at its smoke size."""
    return ALL_EXPERIMENTS[name](**SMOKE[name])
