"""The residency books of a whole testbed, checked in one place.

Every cache tier keeps what it holds in a
:class:`~repro.sim.resources.Residency`: the §4.3 chunk window, the node
chunk tier's RAM and disk (its store's two residencies), and the server's
SSD tier.  :func:`check_invariants` checks them all at once, given what
a test holds: the nodes, the task caches (their masters and registries
come with them), the chunk windows and the server stores.

* every book balances: ``bytes == Σ nbytes``;
* at a quiescent point no flight is left in any single-flight map, and
  no fill holds reserved SSD bytes;
* a window holds at most ``capacity()`` chunks;
* the SSD tier: ``ssd_used_bytes() + _reserved ≤ capacity``, its copies
  are current objects, kept in the order of their last reads;
* a node tier: no chunk on both tiers, a bounded disk tier's
  ``disk.bytes + _reserved ≤ capacity_bytes`` (no claim left at a
  quiescent point), memory conserved on a live node
  (``node.memory.level`` + every tier's RAM == capacity), and its
  ``refs`` == Σ ``len(_held)`` over the live masters admitting through
  it;
* ownership: every chunk has exactly one owner, a master whose
  ``assigned`` lists it, a master holds only chunks it owns, and the
  mesh is the paper's p×(n−1); right after a membership change every
  owner is up (``live``).

:func:`check_stations` and :func:`check_journals` look past the caches
at a whole testbed, at a quiescent point:

* no :class:`~repro.sim.engine.Semaphore` holds a slot or a waiter:
  every NIC direction, every device (the server's pools, each node
  tier's disk) and every RPC worker pool (servers, KV instances, cache
  masters);
* every server journal is contiguous — ``depth == newest − oldest + 1``
  and each retained entry's head is its own version — and every
  snapshot a client holds is current, past the journal horizon, or
  brought to ``build_snapshot``'s file set by
  ``apply_delta(entries_since(ts))``.

:func:`check_kv_routing` checks the KV cluster's placement: every key a
shard's table holds is one the scalar read-side router
(``ShardedKV.owner``) sends to that shard — a key the batch write path
routed elsewhere is one no read can find.
"""

import copy

from repro.core.meta_journal import journal_key, journal_meta_key, read_entry
from repro.objectstore import TieredStore


def check_residency(res, quiescent=True):
    """One residency's own books."""
    assert res.bytes == sum(nbytes for _, nbytes in res.entries.values())
    if quiescent:
        assert res.flights == {}


def check_window(window, quiescent=True):
    """A §4.3 chunk window: at most ``capacity()`` chunks of 1 each."""
    chunks = window.chunks
    check_residency(chunks, quiescent)
    assert all(n == 1 for _, n in chunks.entries.values())
    assert chunks.bytes <= window.capacity()


def check_server_tier(store, quiescent=True):
    """A :class:`TieredStore`'s SSD tier."""
    cache = store.cache
    check_residency(cache, quiescent)
    assert 0 <= store._reserved
    assert store.ssd_used_bytes() + store._reserved <= store.ssd_capacity_bytes
    if quiescent:
        assert store._reserved == 0
    for key, (_, size) in cache.entries.items():
        assert key in store and store.object_size(key) == size
    assert list(cache.entries) == [k for k in store._reads if k in cache.entries]


def check_node_tier(tier, masters, quiescent=True):
    """A node chunk tier: its store's two residencies hold one entry per
    chunk, and the reference book agrees with them."""
    store = tier.store
    check_residency(store.ram, quiescent)
    check_residency(store.disk, quiescent)
    assert not store.ram.entries.keys() & store.disk.entries.keys()
    if store.capacity_bytes:
        assert store.disk.bytes + store._reserved <= store.capacity_bytes
    if quiescent:
        assert store._reserved == 0
    on_disk = [item for item, _ in store.disk.entries.values()]
    assert store.stats.disk_bytes == sum(n for _, n in on_disk)
    resident = list(store.ram.entries.values()) + on_disk
    stats = tier.stats
    assert stats.chunks_resident == len(resident)
    assert stats.bytes_resident == sum(n for _, n in resident)
    if tier.node.alive:
        assert stats.refs == sum(len(m._held) for m in masters)
        for m in masters:
            for cid in m._held:
                assert tier.refcount(m.dataset, cid) >= 1


def check_ownership(cache, live=False):
    """One owner per chunk, listed once, holdings within the partition,
    and the p×(n−1) mesh; with ``live``, every owner is up as well —
    true right after a membership change, when the dead have left, but
    not between a crash and its recovery."""
    listed = {cid: m for m in cache.masters.values() for cid in m.assigned}
    assert len(listed) == sum(len(m.assigned) for m in cache.masters.values())
    assert listed == cache._owner_of
    for m in cache.masters.values():
        assert set(m._held) <= set(m.assigned), m.client.name
    if live:
        assert all(m.up for m in set(listed.values())), "a dead master owns chunks"
    assert cache.connection_count() == cache.expected_connection_count()


def check_invariants(nodes=(), caches=(), windows=(), stores=(),
                     quiescent=True):
    """Every residency reachable from ``caches`` (their registries' node
    tiers), ``windows`` and ``stores`` (an object store without an SSD
    tier has no residency and is skipped); memory on ``nodes`` and on
    every node a tier lives on."""
    for cache in caches:
        check_ownership(cache)
    registries = {id(c.shared): c.shared for c in caches}
    on_node = {id(node): (node, []) for node in nodes}
    for registry in registries.values():
        for tier in registry.node_caches:
            on_node.setdefault(id(tier.node), (tier.node, []))[1].append(tier)
            masters = [
                m for c in caches for m in c.masters.values()
                if m.tier is tier and m.up
            ]
            check_node_tier(tier, masters, quiescent)
    for node, tiers in on_node.values():
        if node.alive:
            ram = sum(t.store.ram.bytes for t in tiers)
            assert node.memory.level + ram == node.memory.capacity, node.name
    for window in windows:
        check_window(window, quiescent)
    for store in stores:
        if isinstance(store, TieredStore):
            check_server_tier(store, quiescent)


def _stations(tb, caches):
    """``(name, semaphore)`` of every NIC direction, device and RPC
    worker pool on ``tb`` and behind ``caches``."""
    for node in tb.fabric.nodes:
        yield f"{node.name}.egress", node.egress._station
        yield f"{node.name}.ingress", node.ingress._station
    store = tb.store
    devices = [tb.ssd_pool, getattr(store, "device", None),
               getattr(store, "ssd", None), getattr(store, "hdd", None)]
    for cache in caches:
        devices += [tier.store.device for tier in cache.shared.node_caches]
    for device in {id(d): d for d in devices if d is not None}.values():
        yield device.name, device._station
    endpoints = [ep for s in tb.diesel_servers
                 for ep in (s.endpoint, s.meta_endpoint)]
    endpoints += [i.endpoint for i in tb.kv.instances]
    endpoints += [m.endpoint for c in caches for m in c.masters.values()]
    for ep in endpoints:
        yield ep.name, ep._pool


def check_stations(tb, caches=()):
    """At a quiescent point no slot is held and nobody waits for one."""
    for name, sem in _stations(tb, caches):
        assert (sem.in_flight, sem.queue_length) == (0, 0), name


def check_journals(tb, clients=()):
    """Every journal contiguous; every client snapshot current, past the
    horizon, or one delta away from the server's."""
    server = tb.diesel
    journal = server.journal
    prefix = journal_meta_key("")
    datasets = [key[len(prefix):] for key, _ in tb.kv.local_pscan(prefix)]
    for ds in datasets:
        oldest, newest = journal.span(ds)
        assert journal.depth(ds) == newest - oldest + 1, ds
        for ts in range(oldest, newest + 1):
            blob = tb.kv.local_get_or_none(journal_key(ds, ts))
            assert blob is not None and read_entry(blob)[0] == ts, (ds, ts)
    for client in clients:
        index = client._index
        if index is None:
            continue
        want = server.build_snapshot(client.dataset)
        if index.update_ts != want.update_ts:
            entries = journal.entries_since(client.dataset, index.update_ts)
            if entries is None:
                continue  # past the horizon: the next refresh reloads
            index = copy.deepcopy(index)
            index.apply_delta(entries)
        assert index.update_ts == want.update_ts, client.name
        assert index.chunk_ids() == tuple(sorted(want.chunk_ids)), client.name
        assert sorted(index.all_paths()) == sorted(
            r.path for r in want.files), client.name
        for rec in want.files:
            assert index.lookup(rec.path) == rec, (client.name, rec.path)


def check_kv_routing(kv):
    """Every key lives on the shard ``kv.owner(key)`` names."""
    for inst in kv.instances:
        for key in inst.table.keys():
            assert kv.owner(key) is inst, (inst.name, key)
