"""Fast smoke tests of every experiment function at reduced scale.

The sizes come from :data:`tests.bench.smoke.SMOKE`; at them every
artifact still executes and its most basic shape property still holds.
The scenarios without a shape test here run in
``test_scenario_invariants.py``.
"""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.calibration import KB

from tests.bench.smoke import SMOKE, run_smoke


def test_the_smoke_table_covers_every_experiment():
    assert sorted(SMOKE) == sorted(ALL_EXPERIMENTS)


class TestExperimentSmoke:
    def test_table2(self):
        r = run_smoke("table2")
        assert len(r.rows) == 7

    def test_fig6(self):
        r = run_smoke("fig6")
        assert len(r.rows) == 20
        assert r.rows[-1]["hit_ratio"] < 1.0

    def test_fig9(self):
        r = run_smoke("fig9")
        row = r.one(file_size=4 * KB)
        assert row["diesel_files_per_s"] > row["lustre_files_per_s"]

    def test_fig10a(self):
        r = run_smoke("fig10a")
        assert r.one(servers=1, client_nodes=4)["qps"] >= \
            r.one(servers=1, client_nodes=1)["qps"]

    def test_fig10b(self):
        r = run_smoke("fig10b")
        assert r.rows[1]["qps"] == pytest.approx(2 * r.rows[0]["qps"],
                                                 rel=0.01)

    def test_fig10c(self):
        r = run_smoke("fig10c")
        lustre = r.one(system="lustre")
        assert lustre["ls_lR_seconds"] > lustre["ls_R_seconds"]

    def test_fig11a(self):
        r = run_smoke("fig11a")
        row = r.rows[0]
        assert row["diesel_api_qps"] > row["lustre_qps"]

    def test_fig11b(self):
        r = run_smoke("fig11b")
        assert any(x["system"] == "diesel" for x in r.rows)
        assert any(x["system"] == "memcached" for x in r.rows)

    def test_fig12(self):
        r = run_smoke("fig12")
        row = r.one(file_size=4 * KB)
        assert row["diesel_api_mbps"] > row["lustre_mbps"]

    def test_fig13(self):
        r = run_smoke("fig13")
        assert {x["strategy"] for x in r.rows} == {"shuffle dataset",
                                                   "chunk-wise g=4"}

    def test_fig14(self):
        r = run_smoke("fig14")
        lus = r.one(model="alexnet", system="lustre")
        dfu = r.one(model="alexnet", system="diesel-fuse")
        assert dfu["mean_fetch_s"] < lus["mean_fetch_s"]

    def test_fig15(self):
        r = run_smoke("fig15")
        assert r.one(model="alexnet")["normalized_total"] < 1.0

    def test_ingest(self):
        r = run_smoke("ingest")
        deep = r.one(depth=4)
        assert deep["ship_speedup"] > 1.0
        assert deep["ship_hwm"] > 1
        for row in r.rows:
            assert row["server_ingests"] == row["chunks_shipped"]

    def test_fanout(self):
        r = run_smoke("fanout")
        deep = r.one(fanout=4)
        assert deep["warm_speedup"] > 1.0
        assert deep["read_speedup"] > 1.0
        assert deep["fetch_hwm"] > 1
        for row in r.rows:
            assert row["duplicate_reads"] == 0

    def test_faults(self):
        r = run_smoke("faults")
        cache_row = r.one(event="cache_master_killed")
        kv_row = r.one(event="kv_shards_killed")
        # The scripted recovery took simulated time and re-streamed.
        assert cache_row["recovery_s"] > 0
        assert cache_row["chunks_reloaded"] > 0
        # Steady state back within 10% of the pre-kill window.
        assert 0.9 <= cache_row["post_over_pre"]
        # Shard loss healed by the timestamp-scoped rebuild; the warm
        # cache absorbed the outage with zero failed client reads.
        assert kv_row["verify_problems"] == 0
        assert kv_row["failed_reads"] == 0
        assert kv_row["chunks_scanned"] > 0

    def test_metaplane(self):
        r = run_smoke("metaplane")
        delta = r.one(event="delta_reload")
        assert delta["delta_bytes_ratio"] <= 0.05
        assert delta["delta_refresh_s"] < delta["full_load_s"]
        assert r.one(event="pagination")["bit_identical"] is True
        grown = r.one(event="registry_scale", datasets=5000)
        assert grown["stat_ratio"] <= 1.2
        assert grown["load_meta_ratio"] <= 1.2

    def test_latency(self):
        r = run_smoke("latency")
        row = r.rows[0]
        # Per-layer read-resolution tallies cover every file read.
        assert row["read_group_cache_count"] + row["read_server_count"] \
            == row["files"] + 16
        # Per-(op, layer) percentile columns from the recorder.
        for col in ("get_group_cache_p50_ms", "get_group_cache_p99_ms",
                    "get_server_p50_ms", "get_server_p99_ms"):
            assert col in row and row[col] > 0.0
        # With prefetch_depth=4 most reads resolve locally.
        assert row["read_group_cache_count"] > row["read_server_count"]

    def test_prefetch(self):
        r = run_smoke("prefetch")
        on_demand, ahead = r.one(prefetch_depth=0), r.one(prefetch_depth=2)
        assert ahead["total_stall_s"] < on_demand["total_stall_s"]
        assert ahead["prefetch_hits"] > 0
        for row in r.rows:
            assert row["duplicate_reads"] == 0

    def test_scale(self):
        r = run_smoke("scale")
        per_request = r.one(variant="per-request")
        batched = r.one(variant="batched")
        # Both admission variants deliver the identical epoch.
        for col in ("reads", "hits", "stat_calls"):
            assert batched[col] == per_request[col]
        assert batched["sim_events"] < per_request["sim_events"]
