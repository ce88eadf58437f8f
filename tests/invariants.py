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
  (``node.memory.level`` + every tier's RAM == capacity), each tenant's
  usage == Σ nbytes of the chunks it references, and its ``refs`` ==
  Σ ``len(_held)`` over the live masters admitting through it;
* ownership: every chunk has exactly one owner, an up master whose
  ``assigned`` lists it, and the mesh is the paper's p×(n−1).
"""

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
    chunk, and the tenant and reference books agree with them."""
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
    tenants = set(tier._tenant_usage).union(
        *(entry.tenants for entry, _ in resident))
    for tenant in tenants:
        assert tier.tenant_usage(tenant) == sum(
            n for entry, n in resident if tenant in entry.tenants
        ), (tier.node.name, tenant)
    if tier.node.alive:
        assert stats.refs == sum(len(m._held) for m in masters)
        for m in masters:
            for cid in m._held:
                assert tier.refcount(m.dataset, cid) >= 1


def check_ownership(cache):
    """One owner per chunk, listed once, and the p×(n−1) mesh."""
    listed = {cid: m for m in cache.masters.values() for cid in m.assigned}
    assert len(listed) == sum(len(m.assigned) for m in cache.masters.values())
    assert listed == cache._owner_of
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
