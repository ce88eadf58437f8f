"""Tests for the experiment harness and reporting helpers."""

import pytest

from repro.bench.harness import ExperimentResult, timer
from repro.bench.reporting import format_result, format_table, ratio


class TestExperimentResult:
    def make(self):
        r = ExperimentResult("test exp", "Fig 0")
        r.add(system="a", size=4, qps=100.0)
        r.add(system="b", size=4, qps=50.0)
        r.add(system="a", size=8, qps=80.0)
        return r

    def test_add_and_column(self):
        r = self.make()
        assert r.column("qps") == [100.0, 50.0, 80.0]

    def test_where(self):
        r = self.make()
        assert len(r.where(system="a")) == 2
        assert r.where(system="a", size=8)[0]["qps"] == 80.0
        assert r.where(system="zzz") == []

    def test_one(self):
        r = self.make()
        assert r.one(system="b")["qps"] == 50.0
        with pytest.raises(LookupError):
            r.one(system="a")  # two matches
        with pytest.raises(LookupError):
            r.one(system="none")  # zero matches

    def test_notes(self):
        r = self.make()
        r.note("hello")
        assert r.notes == ["hello"]

    def test_timer(self):
        r = ExperimentResult("t", "x")
        with timer(r):
            sum(range(10000))
        assert r.wall_seconds > 0
        assert r.engine == {}  # no environment ran inside the block

    def test_timer_sums_engine_stats_over_every_run(self):
        """The engine block is a function of the runs inside the block,
        not of the collector: an environment dropped and finalized
        before exit still counts, one that ran before entry does not."""
        import gc

        from repro.sim import Environment

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1)

        def run(n, scheduler="calendar"):
            env = Environment(scheduler=scheduler)
            env.process(ticker(env, n))  # process <-> env cycle: needs the GC
            env.run()
            return env.engine_stats()

        run(50)  # before the block: not counted
        r = ExperimentResult("t", "x")
        with timer(r):
            first = run(10)
            gc.collect()  # first's environment is gone by now
            kept = Environment(scheduler="heap")
            kept.process(ticker(kept, 20))
            kept.run(until=5)
            kept.run()
        second = kept.engine_stats()
        assert r.engine["sim_events"] == first.sim_events + second.sim_events
        assert r.engine["scheduler"] == "calendar+heap"
        assert r.engine["peak_occupancy"] == max(
            first.peak_occupancy, second.peak_occupancy)
        assert r.engine["run_wall_s"] > 0
        run(7)  # after the block: the tally is closed
        assert r.engine["sim_events"] == first.sim_events + second.sim_events


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1234.5678}, {"name": "bb", "value": 2}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_heterogeneous_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        out = format_table(rows)
        assert "a" in out and "b" in out

    def test_format_result_includes_notes(self):
        r = ExperimentResult("n", "Fig 1")
        r.add(x=1)
        r.note("important caveat")
        out = format_result(r)
        assert "Fig 1" in out and "important caveat" in out

    def test_number_formats(self):
        rows = [{"v": 0}, {"v": 12345.6}, {"v": 0.000123}, {"v": 3.14159}]
        out = format_table(rows)
        assert "12,346" in out
        assert "3.14" in out
        assert "0.000123" in out

    def test_ratio(self):
        assert ratio(10, 2) == 5
        assert ratio(1, 0) == float("inf")
