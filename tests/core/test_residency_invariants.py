"""One residency model, checked as a whole (DESIGN §11).

Every cache master holds references into its node's chunk tier, so the
same conservation laws must hold for a task-private cache (a tier the
task built for itself), a tiered tier used by one task, and a tiered
tier two tasks share — through a whole task life: register → reads →
scale_up → scale_down → master crash + recover → deregister.  After
every step, on every live node:

* memory is conserved: ``node.memory.level`` + the tier store's RAM
  bytes == the node's memory capacity;
* references are conserved: the tier's ``refs`` == Σ ``len(_held)`` over
  the live masters admitting through it;
* each tenant's usage == Σ ``nbytes`` of the entries it references;
* nothing is left in a single-flight map (tier admissions, store moves);

and every read returned the ingested bytes.  The one place the three
configurations differ is the end: an own tier is emptied with its task,
a passed-in tier keeps the chunks resident at refcount 0.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node
from repro.core.dist_cache import CacheClient, TaskCache
from repro.core.shared_cache import SharedCacheRegistry

from tests.core.conftest import build_deployment, small_files, write_dataset

CHUNK = 8 * 1024
N_NODES = 5  # three start in the task, two join via scale_up
#: (passed-in tiered registry?, tasks sharing it)
CONFIGS = {"own-ram": (False, 1), "solo-tiered": (True, 1),
           "shared-tiered": (True, 2)}


def build(config, ram_chunks, seed):
    """Deployment + the task(s) of one configuration, not yet registered.

    ``ram_chunks`` is each worker node's memory in chunks — small values
    squeeze the tiered configurations onto their disk tier and leave the
    RAM one with chunks it must refuse.
    """
    tiered, n_tasks = CONFIGS[config]
    dep = build_deployment(n_client_nodes=1)  # the writer's node
    files = small_files(36, size=2048)
    writer = write_dataset(dep, "ds", files, chunk_size=CHUNK)

    def load():
        blob = yield from writer.save_meta()
        yield from writer.load_meta(blob)

    dep.run(load())
    nodes = [
        dep.fabric.add_node(
            Node(dep.env, f"w{i}", memory_bytes=ram_chunks * (CHUNK + 1024)))
        for i in range(N_NODES)
    ]
    registry = SharedCacheRegistry(
        dep.env, store="tiered", chunk_compression=bool(seed % 2)
    ) if tiered else None
    caches = [
        TaskCache(
            dep.env, dep.fabric, dep.server, "ds",
            [CacheClient(f"t{t}c{i}", node, i)
             for i, node in enumerate(nodes[:3])],
            shared=registry, tenant=f"tenant{t}",
            placement="locality" if seed % 3 == 0 else "hash",
            hot_chunk_threshold=2 if seed % 5 == 0 else 0,
        )
        for t in range(n_tasks)
    ]
    return dep, nodes, caches, files, writer.index


def check_invariants(nodes, caches):
    registries = {id(c.shared): c.shared for c in caches}
    for node in nodes:
        if not node.alive:
            continue
        tiers = [r.for_node(node) for r in registries.values()]
        ram = sum(t.store.stats.ram_bytes for t in tiers)
        assert node.memory.level + ram == node.memory.capacity, node.name
        for tier in tiers:
            masters = [
                m for c in caches for m in c.masters.values()
                if m.tier is tier and m.up
            ]
            assert tier.stats.refs == sum(len(m._held) for m in masters)
            for m in masters:
                for cid in m._held:
                    assert tier.refcount("ds", cid) >= 1
            for tenant, usage in tier._tenant_usage.items():
                assert usage == sum(
                    e.nbytes for e in tier._entries.values()
                    if tenant in e.tenants
                ), (node.name, tenant)
            assert tier._inflight == {}
            assert getattr(tier.store, "_moving", {}) == {}


def reads(cache, files, index, rng, n=12):
    """A mixed burst of file- and chunk-granular reads, all verified."""
    paths = sorted(files)
    for _ in range(n):
        client = rng.choice([c for c in cache.clients if c.node.alive])
        path = rng.choice(paths)
        record = index.lookup(path)
        if rng.random() < 0.5:
            data = yield from cache.read_file(client, record)
        else:
            chunk, tier = yield from cache.read_chunk(
                client, record.chunk_id.encode())
            cache.credit_read(tier)
            data = chunk.payload(path, verify=False)
        assert data == files[path], path


@settings(max_examples=30, deadline=None)
@given(
    config=st.sampled_from(sorted(CONFIGS)),
    ram_chunks=st.sampled_from([1, 2, 4, 64]),
    seed=st.integers(0, 2**16),
)
def test_task_life_conserves_memory_refs_and_bytes(config, ram_chunks, seed):
    dep, nodes, caches, files, index = build(config, ram_chunks, seed)
    rng = random.Random(seed)
    cache, others = caches[0], caches[1:]

    def step(gen=None):
        if gen is not None:
            dep.run(gen)
        dep.env.run()  # drain background pulls / replications
        for c in caches:
            if c._registered:
                dep.run(reads(c, files, index, rng))
        dep.env.run()
        check_invariants(nodes, caches)

    for c in caches:
        dep.run(c.register())
        dep.run(c.wait_warm())
    step()
    joiners = [CacheClient(f"t0j{i}", nodes[3 + i], 10 + i) for i in range(2)]
    step(cache.scale_up(joiners, warm=bool(seed % 4)))
    step(cache.scale_down([rng.choice(sorted(cache.masters))]))
    victim = cache.masters[rng.choice(sorted(cache.masters))]
    victim.node.kill()

    def recover_all():  # the crash took every task's master on the node
        for c in caches:
            yield from c.recover()

    step(recover_all())
    assert all(m.up for c in caches for m in c.masters.values())

    resident_before = {
        n.name: cache.shared.for_node(n).stats.chunks_resident
        for n in nodes if n.alive
    }
    held = cache.deregister()
    dep.env.run()
    check_invariants(nodes, caches)
    for node in nodes:
        if not node.alive:
            continue
        tier = cache.shared.for_node(node)
        if config == "own-ram":
            # A tier of the task's own goes with it.
            assert held == sum(resident_before.values())
            assert node.memory.level == node.memory.capacity
            assert tier.stats.chunks_resident == 0
        else:
            # A passed-in tier keeps the chunks as its warm pool.
            assert tier.stats.chunks_resident == resident_before[node.name]
            assert tier.stats.refs == sum(
                len(m._held) for c in others for m in c.masters.values()
                if m.tier is tier
            )
    for c in others:
        dep.run(reads(c, files, index, rng))
