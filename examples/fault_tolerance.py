#!/usr/bin/env python3
"""Failure containment and recovery in the task-grained cache (§4.2) and
metadata recovery from self-contained chunks (§4.1.2).

Three scenes:
  1. two DLT tasks share a cluster; a node running task A's cache dies —
     task B never notices (containment);
  2. task A recovers by re-partitioning and re-streaming whole chunks;
  3. the entire in-memory KV metadata store is wiped (data-center power
     failure) and rebuilt by scanning chunk headers in written order.

Run:  python examples/fault_tolerance.py
"""

from repro.bench.setups import bulk_load_diesel, deploy, warmed_task
from repro.core import recovery


def main() -> None:
    files_a = {f"/a/f{i:03d}": bytes([i % 251]) * 4096 for i in range(120)}
    files_b = {f"/b/f{i:03d}": bytes([(i * 7) % 251]) * 4096 for i in range(120)}
    tb = deploy(6, "task-a", files_a, chunk_size=64 * 1024)
    bulk_load_diesel(tb, "task-b", files_b, chunk_size=64 * 1024)

    # Task A on nodes 0-2, task B on nodes 3-5; 2 clients per node.
    def build_task(dataset, nodes, prefix):
        task = warmed_task(
            tb, dataset,
            [tb.compute_nodes[n] for n in nodes for _ in range(2)], prefix,
        )
        return task.clients, task.cache

    clients_a, cache_a = build_task("task-a", (0, 1, 2), "a")
    clients_b, cache_b = build_task("task-b", (3, 4, 5), "b")
    print(f"task A: {len(cache_a.masters)} masters, "
          f"{cache_a.connection_count()} connections "
          f"(p*(n-1) = {cache_a.expected_connection_count()})")

    # --- Scene 1: kill one of task A's nodes ---------------------------
    victim = tb.compute_nodes[0]
    victim.kill()
    print(f"\nkilled {victim.name} (runs one of task A's cache masters)")

    def read_all(cache, clients, files, index):
        ok = 0
        live = next(c for c in clients if c.node.alive)
        for path, expected in files.items():
            data = yield from cache.read_file(
                live.as_cache_client(), index.lookup(path)
            )
            ok += data == expected
        return ok

    ok_b = tb.run(read_all(cache_b, clients_b, files_b, clients_b[0].index))
    print(f"task B after the failure: {ok_b}/{len(files_b)} reads OK, "
          f"hit ratio {cache_b.hit_ratio():.0%}  (containment)")

    ok_a = tb.run(read_all(cache_a, clients_a, files_a, clients_a[0].index))
    print(f"task A still serves {ok_a}/{len(files_a)} reads "
          f"(dead partition falls back to the server)")

    # --- Scene 2: chunk-granular cache recovery ------------------------
    t0 = tb.env.now
    reloaded = tb.run(cache_a.recover())
    print(f"\ntask A recovery: re-streamed {reloaded} chunks onto "
          f"{len(cache_a.masters)} surviving masters in "
          f"{(tb.env.now - t0) * 1e3:.1f} simulated ms")
    ok_a = tb.run(read_all(cache_a, clients_a, files_a, clients_a[0].index))
    print(f"task A after recovery: {ok_a}/{len(files_a)} reads OK")

    # --- Scene 3: total metadata loss + rebuild from chunks ------------
    print("\nsimulating data-center power failure: wiping the KV cluster")
    tb.kv.lose_all()
    assert tb.kv.total_keys() == 0
    rebuilt = tb.run(recovery.rebuild_all(tb.diesel))
    print(f"rebuilt metadata by scanning chunk headers: {rebuilt}")
    problems = recovery.verify_rebuild(
        tb.diesel, "task-a", {p: len(d) for p, d in files_a.items()}
    )
    print(f"verification: {'clean' if not problems else problems}")


if __name__ == "__main__":
    main()
