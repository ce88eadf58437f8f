"""Per-layer figures read from outside: the components' public stats.

Everything here is on the sim clock and repeats exactly for a fixed
seed.  The figures only a traced run can measure (profiler shares,
recorder histograms, proxy counts) are merged in from the tracer.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.objectstore import ObjectStore

#: ``core.chunk_store.TieredStore`` builds its NVMe ``Device`` with this
#: queue depth; the ssd/hdd depths come from the public calibration.
CACHE_DISK_CHANNELS = 4


def store_devices(tb) -> list:
    store = tb.store
    return [store.device] if isinstance(store, ObjectStore) else [
        store.ssd, store.hdd]


def objectstore_reads(tb) -> int:
    """Object reads the store served so far (whole chunks and ranges)."""
    store = tb.store
    if isinstance(store, ObjectStore):
        return store.device.stats.read_ops
    return store.stats.ssd_hits + store.stats.ssd_misses


def _device_bytes(tb) -> int:
    return sum(d.stats.read_bytes + d.stats.write_bytes
               for d in store_devices(tb))


class Baseline:
    """Counter values when the timed phase starts (set-up is zero-cost
    population, but the baseline does not rely on that)."""

    def __init__(self, wl) -> None:
        self.device_bytes = _device_bytes(wl.tb)
        self.sim_events = wl.tb.env.engine_stats().sim_events

    def backend_bytes(self, tb) -> int:
        return _device_bytes(tb) - self.device_bytes


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def endpoints(wl) -> list:
    """Every RPC endpoint but the KV instances' (servers, cache masters)."""
    eps = []
    for server in wl.tb.diesel_servers:
        eps += [server.endpoint, server.meta_endpoint]
    for cache in wl.caches:
        eps += [m.endpoint for m in cache.masters.values()]
    return eps


def _chunk_store_stats(wl) -> List[Any]:
    if wl.registry is not None:
        return [wl.registry.store_stats]
    return [m.store.stats for c in wl.caches for m in c.masters.values()]


def cache_disks(wl) -> list:
    if wl.registry is not None:
        stores = [c.store for c in wl.registry.node_caches]
    else:
        stores = [m.store for c in wl.caches for m in c.masters.values()]
    return [s.device for s in stores if s.kind == "tiered"]


def read_layers(wl, base: Baseline, log, sim_time: float,
                tracer) -> Dict[str, Any]:
    """name -> value for every per-layer figure this run can measure."""
    tb = wl.tb
    ops = log.attempted
    out: Dict[str, Any] = {"_user_bytes": log.user_bytes}

    engine = tb.env.engine_stats()
    events = engine.sim_events - base.sim_events
    out["_sim_events"] = events
    out["sim.events_per_op"] = events / ops
    out["sim.peak_occupancy"] = engine.peak_occupancy

    fabric = tb.fabric.stats
    devices = store_devices(tb)
    disks = cache_disks(wl)
    cal = tb.cal
    out.update({
        "cluster.fabric_bytes_per_user_byte":
            _frac(fabric.bytes_moved, log.user_bytes),
        "cluster.fabric_transfers_per_op": fabric.transfers / ops,
        "cluster.fabric_intra_node_frac":
            _frac(fabric.intra_node, fabric.transfers),
        "cluster.ssd_busy_frac":
            tb.ssd_pool.stats.busy_time / sim_time / cal.nvme.queue_depth,
        "cluster.hdd_busy_frac": (
            devices[1].stats.busy_time / sim_time / cal.hdd.queue_depth
            if len(devices) > 1 else 0.0),
        "cluster.cache_disk_busy_frac": max(
            (d.stats.busy_time / sim_time / CACHE_DISK_CHANNELS
             for d in disks), default=0.0),
        "cluster.device_read_ops_per_op":
            sum(d.stats.read_ops for d in devices + disks) / ops,
    })

    eps = endpoints(wl)
    kv_eps = [inst.endpoint for inst in tb.kv.instances]
    out.update({
        "rpc.calls_per_op": sum(e.stats.calls for e in eps + kv_eps) / ops,
        "rpc.batches": sum(e.stats.batches for e in eps + kv_eps),
        "rpc.errors": sum(e.stats.errors for e in eps + kv_eps),
        # Service seconds charged per simulated second, busiest endpoint
        # (1.0 = one worker's worth of service the whole time).
        "rpc.busy_frac_max":
            max(e.stats.busy_time for e in eps) / sim_time,
        "kvstore.keys": tb.kv.total_keys(),
        "kvstore.busy_frac_max":
            max(e.stats.busy_time for e in kv_eps) / sim_time,
    })

    store = tb.store
    tiered = not isinstance(store, ObjectStore)
    reads = objectstore_reads(tb)
    out.update({
        "objectstore.chunk_reads": reads,
        "objectstore.bytes_read": sum(d.stats.read_bytes for d in devices),
        "objectstore.bytes_written":
            sum(d.stats.write_bytes for d in devices),
        "objectstore.ssd_hit_frac":
            store.stats.hit_ratio if tiered else float(reads > 0),
    })

    servers = tb.diesel_servers
    out.update({
        "core.server.chunk_reads": sum(s.stats.chunk_reads for s in servers),
        "core.server.batch_reads": sum(s.stats.batch_reads for s in servers),
        "core.server.ingests": sum(s.stats.ingests for s in servers),
        "core.server.data_busy_frac":
            sum(s.endpoint.stats.busy_time for s in servers) / sim_time,
        "core.server.meta_busy_frac":
            sum(s.meta_endpoint.stats.busy_time for s in servers) / sim_time,
    })

    cs = [c.stats for c in wl.clients]

    def total(field: str) -> int:
        return sum(getattr(s, field) for s in cs)

    out.update({
        "core.client.group_hit_frac": _frac(total("local_hits"), total("gets")),
        "core.client.server_reads": total("server_reads"),
        "core.client.prefetch_hit_frac": _frac(
            total("prefetch_hits"),
            total("prefetch_hits") + total("prefetch_misses")),
        "core.client.prefetch_wasted": total("prefetch_wasted"),
        "core.client.fetch_inflight_hwm":
            max(s.fetch_inflight_hwm for s in cs),
        "core.client.ingest_inflight_hwm":
            max(s.ingest_inflight_hwm for s in cs),
        "core.client.chunks_sent": total("chunks_sent"),
        "core.client.delta_reloads": total("delta_reloads"),
        "core.client.full_reloads": total("full_reloads"),
        "core.client.delta_bytes_per_refresh":
            _frac(total("delta_bytes"), total("delta_reloads")),
        "core.meta.delta_ops_applied": total("delta_ops_applied"),
    })

    ts = [c.stats for c in wl.caches]
    masters = [m for c in wl.caches for m in c.masters.values()]
    cache_reads = sum(
        s.local_hits + s.remote_hits + s.shared_hits + s.disk_hits
        + s.degraded_reads for s in ts)
    out.update({
        "core.dist_cache.local_hit_frac": _frac(
            sum(s.local_hits + s.shared_hits for s in ts), cache_reads),
        "core.dist_cache.remote_hit_frac":
            _frac(sum(s.remote_hits for s in ts), cache_reads),
        "core.dist_cache.disk_hit_frac":
            _frac(sum(s.disk_hits for s in ts), cache_reads),
        "core.dist_cache.degraded_reads": sum(s.degraded_reads for s in ts),
        "core.dist_cache.coalesced_pulls":
            sum(s.coalesced_pulls for s in ts),
        "core.dist_cache.warmup_sim_s": wl.warmup_sim_s,
        "core.dist_cache.pull_inflight_hwm":
            max((m.stats.pull_inflight_hwm for m in masters), default=0),
        "core.dist_cache.connections":
            sum(c.connection_count() for c in wl.caches),
    })

    shared = wl.registry.stats if wl.registry is not None else None
    out.update({
        "core.shared_cache.warm_admit_frac": _frac(
            shared.warm_admissions,
            shared.warm_admissions + shared.cold_admissions) if shared else 0.0,
        "core.shared_cache.cross_task_reads":
            shared.cross_task_reads if shared else 0,
        "core.shared_cache.evictions": shared.evictions if shared else 0,
        "core.shared_cache.quota_rejections":
            shared.quota_rejections if shared else 0,
        "core.shared_cache.bytes_resident":
            shared.bytes_resident if shared else 0,
    })

    st = _chunk_store_stats(wl)

    def stotal(field: str) -> int:
        return sum(getattr(s, field) for s in st)

    out.update({
        "core.chunk_store.ram_hit_frac": _frac(
            stotal("ram_hits"), stotal("ram_hits") + stotal("disk_hits")),
        "core.chunk_store.disk_hits": stotal("disk_hits"),
        "core.chunk_store.promotions": stotal("promotions"),
        "core.chunk_store.demotions": stotal("demotions"),
        "core.chunk_store.disk_admits": stotal("disk_admits"),
        "core.chunk_store.compress_ops": stotal("compress_ops"),
        "core.chunk_store.stored_bytes_per_logical_byte":
            _frac(stotal("disk_stored_bytes"), stotal("disk_bytes")),
    })

    snapshot = tb.diesel.build_snapshot(wl.dataset)
    out.update({
        "core.meta.snapshot_bytes": len(snapshot.serialize()),
        "core.meta.kv_keys_per_file":
            _frac(tb.kv.total_keys(), snapshot.file_count),
    })

    data = np.sort(np.array(
        [t.data_time_s for r in wl.training for t in r.timings]))
    walls = sum(r.total_time_s for r in wl.training)
    out.update({
        "dlt.data_stall_frac": _frac(float(data.sum()), walls),
        "dlt.data_time_p50_ms":
            float(data[(len(data) - 1) // 2]) * 1e3 if len(data) else 0.0,
        "dlt.data_time_p99_ms":
            float(data[(len(data) - 1) * 99 // 100]) * 1e3
            if len(data) else 0.0,
        "dlt.iterations": len(data),
    })

    if tracer is not None:
        out.update(tracer.layer_figures(ops))
    return out
