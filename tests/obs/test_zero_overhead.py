"""Regression: attaching a recorder must not change what it measures.

The observability contract is *zero cost when disabled and read-only
when enabled*: every instrumentation site is a single ``if recorder is
None`` guard around pure bookkeeping, so an identical workload must
produce byte-identical stats counters and identical simulated elapsed
time whether or not a recorder is attached.
"""

from repro.bench.setups import deploy, diesel_client, diesel_client_with_snapshot
from repro.calibration import KB, MB
from repro.core.config import DieselConfig
from repro.obs import SpanRecorder
from repro.util import ids as _ids

FILES = {f"/zc/f{i:04d}.bin": b"\x77" * (64 * KB) for i in range(96)}


def _pin_id_counter():
    # Chunk IDs embed a process-global generator-instance counter, so
    # chunk→server placement (stable_hash of the id) differs between
    # *any* two invocations.  Pin the counter so paired runs mint
    # identical ids and per-server stats are comparable exactly.
    with _ids._instance_lock:
        _ids._instance_counter = 1 << 20


def read_workload(attach: bool):
    """A Fig 14-style shuffled read epoch plus a batched get_many."""
    _pin_id_counter()
    tb = deploy(1, "zc", FILES, chunk_size=1 * MB, n_servers=2)
    client = diesel_client_with_snapshot(
        tb, "zc", tb.compute_nodes[0], "reader",
        config=DieselConfig(
            shuffle_group_size=2, prefetch_depth=2, read_fanout=2
        ),
    )
    if attach:
        SpanRecorder.attach(client, *tb.diesel_servers)
    client.enable_shuffle()
    plan = client.epoch_file_list(seed=13)

    def job():
        for path in plan.files:
            yield from client.get(path)
        yield from client.get_many(sorted(FILES)[::7][:10])

    return (
        tb.timed([job()]),
        client.stats.to_dict(),
        [s.stats.to_dict() for s in tb.diesel_servers],
        [s.endpoint.stats.to_dict() for s in tb.diesel_servers],
    )


def write_workload(attach: bool):
    """A Fig 9-style pipelined ingest."""
    _pin_id_counter()
    tb = deploy(1, n_servers=2)
    client = diesel_client(
        tb, "zw", tb.compute_nodes[0], "writer",
        config=DieselConfig(ingest_pipeline_depth=2),
    )
    if attach:
        SpanRecorder.attach(client, *tb.diesel_servers)
    items = [(f"/zw/f{i:04d}.bin", b"\x66" * (256 * KB)) for i in range(24)]
    return (
        tb.timed([client.put_many(items)]),
        client.stats.to_dict(),
        [s.stats.to_dict() for s in tb.diesel_servers],
    )


class TestZeroOverhead:
    def test_read_path_identical_with_and_without_recorder(self):
        plain = read_workload(attach=False)
        observed = read_workload(attach=True)
        assert plain == observed  # elapsed, client, server, rpc stats

    def test_write_path_identical_with_and_without_recorder(self):
        plain = write_workload(attach=False)
        observed = write_workload(attach=True)
        assert plain == observed

    def test_detached_hot_path_records_nothing(self):
        tb = deploy(1, "zc", FILES, chunk_size=1 * MB)
        client = diesel_client_with_snapshot(
            tb, "zc", tb.compute_nodes[0], "reader"
        )
        rec = SpanRecorder.attach(client, tb.diesel)
        SpanRecorder.detach(client, tb.diesel)
        tb.run(client.get(sorted(FILES)[0]))
        assert len(rec) == 0
        assert rec.to_dict() == {}
