"""Integration tests: spans recorded across the instrumented stack."""

from repro.bench.setups import (
    deploy,
    diesel_client,
    diesel_client_with_snapshot,
    make_task,
    warm,
)
from repro.calibration import KB, MB
from repro.core.config import DieselConfig
from repro.obs import SpanRecorder

FILES = {f"/obs/f{i:04d}.bin": b"\x11" * (64 * KB) for i in range(128)}


def loaded_testbed(n_compute=1, n_servers=2):
    return deploy(n_compute, "obs", FILES, chunk_size=1 * MB, n_servers=n_servers)


class TestReadPath:
    def test_read_layers_cover_every_read(self):
        tb = loaded_testbed()
        client = diesel_client_with_snapshot(
            tb, "obs", tb.compute_nodes[0], "c0",
            config=DieselConfig(shuffle_group_size=2, prefetch_depth=2),
        )
        rec = SpanRecorder.attach(client, *tb.diesel_servers)
        client.enable_shuffle()
        plan = client.epoch_file_list(seed=5)

        def job():
            for path in plan.files:
                yield from client.get(path)

        tb.run(job())
        layers = rec.layers("read")
        assert set(layers) <= {"group_cache", "task_cache", "server"}
        assert sum(layers.values()) == len(plan.files)
        # With the prefetcher on, local resolutions dominate.
        assert layers.get("group_cache", 0) > layers.get("server", 0)
        # Per-layer get percentiles exist and local hits beat fetches.
        assert rec.histogram("get", "group_cache").count > 0
        assert rec.histogram("get", "server").count > 0
        assert rec.histogram("get", "server").p50 > \
            rec.histogram("get", "group_cache").p50
        # Prefetch lead spans were recorded for pipelined chunks.
        assert rec.histogram("prefetch", "lead").count > 0

    def test_get_many_spans_and_counts(self):
        tb = loaded_testbed()
        client = diesel_client_with_snapshot(
            tb, "obs", tb.compute_nodes[0], "c0",
            config=DieselConfig(shuffle_group_size=8, read_fanout=4),
        )
        rec = SpanRecorder.attach(client, *tb.diesel_servers)
        client.enable_shuffle()
        paths = sorted(FILES)[::8][:12]
        got = tb.run(client.get_many(paths))
        assert len(got) == 12
        assert rec.histogram("get_many", "total").count == 1
        assert sum(rec.layers("read").values()) == 12

    def test_rpc_and_objectstore_spans(self):
        tb = loaded_testbed()
        client = diesel_client_with_snapshot(
            tb, "obs", tb.compute_nodes[0], "c0",
        )
        rec = SpanRecorder.attach(client, *tb.diesel_servers)
        tb.run(client.get(sorted(FILES)[0]))
        ops = {op for op, _ in rec._hist}
        assert any(op.startswith("rpc_") for op in ops)
        # Both queue and service sides of at least one RPC were timed.
        rpc_layers = {layer for op, layer in rec._hist
                      if op.startswith("rpc_")}
        assert {"queue", "service"} <= rpc_layers
        # The server attributed its store read to the objectstore layer.
        assert any(layer == "objectstore" for _, layer in rec._hist)


class TestWritePath:
    def test_put_flush_spans(self):
        tb = deploy(1, n_servers=2)
        client = diesel_client(tb, "w", tb.compute_nodes[0], "writer")
        rec = SpanRecorder.attach(client, *tb.diesel_servers)

        def job():
            for i in range(8):
                yield from client.put(f"/w/f{i}.bin", b"\x22" * (512 * KB))
            yield from client.flush()

        tb.run(job())
        # Most puts only pack; the one that seals the 4 MB chunk ships.
        put_layers = rec.layers("put")
        assert sum(put_layers.values()) == 8
        assert put_layers.get("pack", 0) >= 6
        assert put_layers.get("ship", 0) >= 1
        assert rec.histogram("flush", "drain").count == 1
        assert rec.histogram("chunk_send", "server").count >= 1
        assert rec.histogram("ingest", "objectstore").count >= 1


class TestCachePath:
    def test_warmup_and_recover_spans(self):
        tb = loaded_testbed(n_compute=2)
        task = make_task(tb, "obs", tb.compute_nodes)
        # Each surviving master times its own re-stream.
        cache = task.cache
        rec = SpanRecorder.attach(task.clients[0], cache)
        warm(tb, [task])
        assert rec.histogram("warmup", "master").count == len(cache.masters)
        victim = cache.masters[sorted(cache.masters)[0]]
        victim.node.kill()
        tb.run(cache.recover())
        assert rec.histogram("recover", "total").count == 1
        assert rec.histogram("recover", "master").count >= 1

    def test_task_cache_resolution_layers(self):
        tb = loaded_testbed(n_compute=2)
        task = make_task(tb, "obs", tb.compute_nodes)
        cache, reader = task.cache, task.clients[1]
        rec = SpanRecorder.attach(reader, cache)
        warm(tb, [task])

        def job():
            for path in sorted(FILES)[:16]:
                yield from reader.get(path)

        tb.run(job())
        # Warm oneshot cache: every read resolves at the task cache and
        # the cache's own spans say where *it* found the bytes.
        assert rec.layers("read").get("task_cache", 0) == 16
        assert rec.histogram("cache_read", "task_cache").count == 16
