"""SpanRecorder unit tests: attach/detach, recording, flattening."""

import pytest

from repro.obs import Span, SpanRecorder
from repro.sim import Environment


class FakeComponent:
    def __init__(self, env):
        self.env = env
        self.recorder = None


def make_recorder():
    env = Environment()
    comp = FakeComponent(env)
    rec = SpanRecorder.attach(comp)
    return env, comp, rec


class TestAttach:
    def test_attach_sets_recorder_and_clock(self):
        env, comp, rec = make_recorder()
        assert comp.recorder is rec
        assert rec.start("op").start == env.now

    def test_attach_many(self):
        env = Environment()
        comps = [FakeComponent(env) for _ in range(3)]
        rec = SpanRecorder.attach(*comps)
        assert all(c.recorder is rec for c in comps)

    def test_detach(self):
        env, comp, rec = make_recorder()
        SpanRecorder.detach(comp)
        assert comp.recorder is None

    def test_attach_requires_env(self):
        class NoEnv:
            pass

        with pytest.raises(ValueError):
            SpanRecorder.attach(NoEnv())

    def test_attach_requires_components(self):
        with pytest.raises(ValueError):
            SpanRecorder.attach()


class TestRecording:
    def test_start_finish_span(self):
        env, comp, rec = make_recorder()
        span = rec.start("get", actor="c0")

        def job():
            yield env.timeout(1.5)

        proc = env.process(job())
        env.run(until=proc)
        rec.finish(span, layer="server", chunk="abc")
        assert span.duration == pytest.approx(1.5)
        assert span.layer == "server"
        assert span.tags == {"chunk": "abc"}
        assert rec.spans() == [span]

    def test_record_backdates_start(self):
        env, comp, rec = make_recorder()
        rec.record("get", "server", 0.25, actor="c0")
        (span,) = rec.spans()
        assert span.start == pytest.approx(env.now - 0.25)
        assert span.duration == pytest.approx(0.25)

    def test_open_span_duration_is_zero(self):
        env, comp, rec = make_recorder()
        span = rec.start("get")
        assert span.duration == 0.0
        assert "get" in repr(span)

    def test_histogram_per_op_layer(self):
        env, comp, rec = make_recorder()
        rec.record("get", "server", 0.2)
        rec.record("get", "server", 0.4)
        rec.record("get", "group_cache", 0.001)
        assert rec.histogram("get", "server").count == 2
        assert rec.histogram("get", "group_cache").count == 1
        assert rec.histogram("get", "nope").count == 0
        assert set(rec._hist) == {("get", "server"),
                                       ("get", "group_cache")}

    def test_counters_and_layers(self):
        env, comp, rec = make_recorder()
        rec.count("read", "group_cache", n=5)
        rec.count("read", "server")
        rec.record("read", "task_cache", 0.1)
        assert rec.layers("read") == {"group_cache": 5, "server": 1,
                                      "task_cache": 1}

    def test_capacity_ring_drops_oldest(self):
        env = Environment()
        comp = FakeComponent(env)
        rec = SpanRecorder.attach(comp, capacity=4)
        for i in range(6):
            rec.record("op", "layer", 0.001 * i)
        assert len(rec.spans()) == 4
        assert rec.dropped == 2
        # Histograms are cumulative even when spans drop out of the ring.
        assert rec.histogram("op", "layer").count == 6

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SpanRecorder(lambda: 0.0, capacity=0)


class TestFlattening:
    def test_to_dict_keys(self):
        env, comp, rec = make_recorder()
        rec.record("get", "server", 0.2)
        rec.count("read", "server", n=3)
        d = rec.to_dict()
        assert d["get_server_n"] == 1
        assert d["get_server_p50_ms"] == pytest.approx(200.0)
        assert d["get_server_p99_ms"] == pytest.approx(200.0)
        assert d["read_server_count"] == 3

    def test_to_dict_sanitizes_names(self):
        env, comp, rec = make_recorder()
        rec.record("rpc:get file", "queue/fast", 0.1)
        keys = rec.to_dict()
        assert "rpc_get_file_queue_fast_n" in keys

    def test_stats_row_accepts_recorder(self):
        from repro.obs.counters import stats_row

        env, comp, rec = make_recorder()
        rec.record("get", "server", 0.2)
        row = stats_row(rec, prefix="obs_")
        assert row["obs_get_server_n"] == 1

    def test_summary_table(self):
        env, comp, rec = make_recorder()
        rec.record("get", "server", 0.2)
        rec.count("read", "server", n=3)
        text = rec.summary()
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["op", "layer"]
        assert any("get" in ln and "server" in ln for ln in lines[1:])
        assert any("read" in ln and "-" in ln for ln in lines[1:])


def test_span_slots():
    span = Span("get", "c0", 0.0)
    with pytest.raises(AttributeError):
        span.other = 1
