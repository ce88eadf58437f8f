"""Tests for multi-task sweep scheduling (N trainers × 1 dataset)."""

import pytest

from repro.bench.setups import deploy, make_task
from repro.calibration import ModelProfile
from repro.core.shared_cache import SharedCacheRegistry
from repro.dlt.sweep import build_sweep_task, run_sweep
from repro.errors import DieselError

FILES = {f"/d/f{i:03d}": bytes([i % 251]) * 2000 for i in range(64)}


def sweep_rig(n_tasks=3, n_nodes=4, shared=True, chunk_size=20_000):
    tb = deploy(n_nodes, "ds", FILES, chunk_size, n_servers=2)
    registry = SharedCacheRegistry(tb.env) if shared else None
    tasks = [
        make_task(
            tb, "ds", tb.compute_nodes, f"t{t}c",
            shared=registry, tenant=f"tenant{t % 2}",
        )
        for t in range(n_tasks)
    ]
    return tb, registry, tasks, tb.chunks


class TestRunSweep:
    def test_all_tasks_train_and_backend_fetches_once(self):
        tb, registry, tasks, chunks = sweep_rig(n_tasks=3)
        model = ModelProfile("toy", compute_s=1e-4)
        results = tb.run(run_sweep(tb.env, tasks, model, epochs=1,
                                   batch_size=4))
        assert sorted(results) == [t.name for t in tasks]
        for t in tasks:
            per_worker = results[t.name]
            assert len(per_worker) == len(t.clients)
            # One iteration per batch of each worker's (uneven) shard.
            expected = sum(
                -(-len(r.last_plan.files) // 4) for r in t.readers
            )
            assert sum(len(r.timings) for r in per_worker) == expected
            assert sum(
                len(r.last_plan.files) for r in t.readers
            ) == len(FILES)
        # The whole sweep cost exactly one backend fetch per chunk.
        assert tb.diesel.stats.chunk_reads == len(chunks)
        assert registry.stats.refs == len(tasks) * len(chunks)

    def test_sweep_without_shared_tier_multiplies_fetches(self):
        tb, _, tasks, chunks = sweep_rig(n_tasks=3, shared=False)
        model = ModelProfile("toy", compute_s=1e-4)
        tb.run(run_sweep(tb.env, tasks, model, epochs=1, batch_size=4))
        # Task-private caches each pay the full fetch bill — the cost
        # the shared tier removes.
        assert tb.diesel.stats.chunk_reads == len(tasks) * len(chunks)

    def test_tenants_accounted_per_task(self):
        tb, registry, tasks, chunks = sweep_rig(n_tasks=2)
        model = ModelProfile("toy", compute_s=1e-4)
        tb.run(run_sweep(tb.env, tasks, model, epochs=1, batch_size=4))
        rows = {r["tenant"]: r for r in registry.tenant_rows()}
        assert set(rows) == {"tenant0", "tenant1"}
        for row in rows.values():
            assert row["total_usage_bytes"] > 0
            assert row["within_quota"]

    def test_validation(self):
        tb, registry, tasks, _ = sweep_rig(n_tasks=1)
        model = ModelProfile("toy", compute_s=1e-4)
        with pytest.raises(DieselError):
            tb.run(run_sweep(tb.env, [], model))
        with pytest.raises(DieselError):
            build_sweep_task(
                "t", tb.env, tb.fabric, tb.diesel, "ds", [],
            )
