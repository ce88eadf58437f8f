"""Unit tests for bench.reporting: tables, rows, JSON, verdicts."""

import json

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import (
    format_result,
    format_table,
    ratio,
    result_to_dict,
    write_json,
)
from repro.obs.counters import stats_row


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"
        assert format_table([], title="t") == "t\n(no rows)"

    def test_alignment_and_column_union(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "c": "x"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        header = lines[1].split()
        assert header == ["a", "b", "c"]  # union, first-seen order
        assert len(lines) == 5  # title + header + rule + 2 rows
        # Missing cells render empty, not "None".
        assert "None" not in text

    def test_float_formatting(self):
        text = format_table([{"v": 0.00012345}, {"v": 12345.6}, {"v": 0.0}])
        assert "0.0001234" in text  # 4 significant digits
        assert "12,346" in text    # thousands separator
        lines = text.splitlines()
        assert lines[-1].strip() == "0"


class TestFormatResult:
    def test_includes_notes_and_wall_time(self):
        r = ExperimentResult("demo", "§0")
        r.add(x=1)
        r.note("a note")
        r.wall_seconds = 1.25
        text = format_result(r)
        assert "== demo (§0) ==" in text
        assert "note: a note" in text
        assert "1.25s wall" in text


class TestStatsRow:
    def test_dataclass_stats_all_keys(self):
        from repro.core.client import ClientStats
        from dataclasses import fields

        stats = ClientStats()
        row = stats_row(stats)
        assert set(row) == {f.name for f in fields(ClientStats)}

    def test_key_selection_and_prefix(self):
        from repro.core.client import ClientStats

        stats = ClientStats()
        stats.local_hits = 7
        row = stats_row(stats, ["local_hits"], prefix="rd_")
        assert row == {"rd_local_hits": 7}

    def test_every_stats_class_derives_keys_from_fields(self):
        # One counter vocabulary: every stats class is declared on the
        # Counters base, whose to_dict() follows the fields in order, so
        # a new counter can never silently drop out of experiment rows.
        from dataclasses import fields
        from repro.bench.experiments import _ScaleCounters
        from repro.cluster.devices import DeviceStats
        from repro.cluster.network import FabricStats
        from repro.core.chunk_store import ChunkStoreStats
        from repro.core.client import ClientStats
        from repro.core.dist_cache import CacheMasterStats, TaskCacheStats
        from repro.core.fuse import FuseStats
        from repro.core.prefetch import WindowStats
        from repro.core.server import ServerStats
        from repro.core.shared_cache import SharedCacheStats
        from repro.objectstore.tiered import TieredStats
        from repro.obs.counters import Counters
        from repro.rpc.endpoint import RpcStats
        from repro.sim.engine import EngineStats

        instances = [
            cls() for cls in (
                ServerStats, CacheMasterStats, TaskCacheStats,
                SharedCacheStats, ClientStats, ChunkStoreStats, RpcStats,
                WindowStats, TieredStats, FabricStats, DeviceStats,
                FuseStats, _ScaleCounters,
            )
        ] + [EngineStats(0, 0.0, 0)]
        for inst in instances:
            assert isinstance(inst, Counters)
            assert not hasattr(inst, "__dict__")  # slots: no stray attrs
            assert list(inst.to_dict()) == [f.name for f in fields(inst)]

    def test_accepts_span_recorder(self):
        from repro.obs import SpanRecorder

        rec = SpanRecorder(lambda: 0.0)
        rec.record("get", "server", 0.5)
        rec.count("read", "server", n=2)
        row = stats_row(rec)
        assert row["get_server_n"] == 1
        assert row["read_server_count"] == 2


class TestJson:
    def test_round_trip(self, tmp_path):
        r = ExperimentResult("demo", "§0")
        r.add(x=1, y=2.5)
        r.note("n1")
        path = tmp_path / "out.json"
        write_json(r, path)
        data = json.loads(path.read_text())
        assert data == result_to_dict(r)
        assert data["rows"] == [{"x": 1, "y": 2.5}]
        assert data["notes"] == ["n1"]


class TestVerdicts:
    def test_ratio(self):
        assert ratio(4.0, 2.0) == 2.0
        assert ratio(1.0, 0.0) == float("inf")
