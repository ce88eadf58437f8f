"""Tests for the hash-ring chunk placement, pull coalescing and the
successor rule."""

import ast
from pathlib import Path

import pytest

from repro.core.dist_cache import CacheClient, TaskCache
from repro.errors import DieselError

from tests.core.conftest import build_deployment
from tests.core.test_dist_cache import setup_cache as setup_dist_cache


def setup_cache(n_nodes=3, **kw):
    return setup_dist_cache(n_nodes, clients_per_node=1, **kw)


def paths_owned_by(cache, index, node_name):
    """All file paths whose chunk is owned by ``node_name``'s master."""
    master = cache.masters[node_name]
    owned = set(master.assigned)
    return [
        p for p in index.all_paths()
        if index.lookup(p).chunk_id.encode() in owned
    ]


class TestLocalityPlacement:
    """Read locality under the ring: a chunk its reader's own master
    holds is a node-local copy, any other pays the one-hop peer RPC."""

    def test_every_chunk_has_one_owner(self):
        dep, cache, *_ = setup_cache()
        summary = dep.run(cache.register())
        for cid in summary["chunk_ids"]:
            assert cache.owner_of(cid) is cache._owner_of[cid]
            assert cache.chunk_owner_node(cid) == cache.owner_of(cid).node.name

    def test_local_read_bypasses_the_network_hop(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        path = paths_owned_by(cache, index, reader.node.name)[0]

        def proc():
            data = yield from cache.read_file(reader, index.lookup(path))
            return data

        assert dep.run(proc()) == files[path]
        assert cache.stats.local_hits == 1
        assert cache.stats.remote_hits == 0

    def test_remote_read_counts_as_remote_hit(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        other = next(n for n in cache.masters if n != reader.node.name)
        path = paths_owned_by(cache, index, other)[0]

        def proc():
            data = yield from cache.read_file(reader, index.lookup(path))
            return data

        assert dep.run(proc()) == files[path]
        assert cache.stats.local_hits == 0
        assert cache.stats.remote_hits == 1

    def test_local_read_is_faster_than_remote(self):
        dep, cache, clients, files, index = setup_cache()
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        reader = clients[0]
        local_path = paths_owned_by(cache, index, reader.node.name)[0]
        other = next(n for n in cache.masters if n != reader.node.name)
        remote_path = paths_owned_by(cache, index, other)[0]

        def timed(path):
            t0 = dep.env.now

            def proc():
                yield from cache.read_file(reader, index.lookup(path))

            dep.run(proc())
            return dep.env.now - t0

        assert timed(local_path) < timed(remote_path)

    def test_validation(self):
        dep = build_deployment()
        c = CacheClient("x", dep.client_nodes[0], 0)
        with pytest.raises(DieselError):
            TaskCache(dep.server, "ds", [c], policy="bogus")


class TestPullCoalescing:
    def test_concurrent_pulls_fetch_backend_once(self):
        dep, cache, clients, files, index = setup_cache(
            n_nodes=1, policy="on-demand")
        summary = dep.run(cache.register())
        master = next(iter(cache.masters.values()))
        cid = summary["chunk_ids"][0]
        before = dep.server.stats.chunk_reads
        n = 5
        procs = [
            dep.env.process(master.pull([cid]), name=f"pull{i}")
            for i in range(n)
        ]

        def wait_all():
            for p in procs:
                assert (yield p) == 1

        dep.run(wait_all())
        assert dep.server.stats.chunk_reads - before == 1
        assert master.stats.coalesced_pulls == n - 1
        assert cache.stats.coalesced_pulls == n - 1
        # The chunk landed once, however many pulls were granted a ref.
        assert master.stats.chunks_loaded == 1
        assert master.stats.bytes_cached == master.nbytes_of(cid)

    def test_sequential_pulls_do_not_coalesce(self):
        dep, cache, clients, files, index = setup_cache(
            n_nodes=1, policy="on-demand")
        summary = dep.run(cache.register())
        master = next(iter(cache.masters.values()))

        def proc():
            for cid in summary["chunk_ids"]:
                yield from master.pull([cid])
                yield from master.pull([cid])  # resident: no refetch

        dep.run(proc())
        assert master.stats.coalesced_pulls == 0


class TestLocalityRecovery:
    def _kill_and_recover(self):
        dep, cache, clients, files, index = setup_cache(n_nodes=3)
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        victim_node = dep.client_nodes[0]
        victim_chunks = list(cache.masters[victim_node.name].assigned)
        survivor_slices = {
            n: list(m.assigned)
            for n, m in cache.masters.items()
            if n != victim_node.name
        }
        victim_node.kill()
        reloaded = dep.run(cache.recover(fanout=2))
        return (dep, cache, clients, files, index,
                victim_chunks, survivor_slices, reloaded)

    def test_survivor_partitions_are_untouched(self):
        (dep, cache, _, _, _, victim_chunks,
         survivor_slices, reloaded) = self._kill_and_recover()
        assert reloaded == len(victim_chunks)
        for node, old_slice in survivor_slices.items():
            assert cache.masters[node].assigned[: len(old_slice)] == old_slice

    def test_orphans_rehomed_and_readable(self):
        (dep, cache, clients, files, index,
         victim_chunks, _, _) = self._kill_and_recover()
        for cid in victim_chunks:
            owner = cache.owner_of(cid)
            assert owner.up and owner.has_chunk(cid)
        reader = next(c for c in clients if c.node.alive)

        def proc():
            ok = 0
            for path in files:
                data = yield from cache.read_file(reader, index.lookup(path))
                ok += data == files[path]
            return ok

        assert dep.run(proc()) == len(files)

    def test_orphans_dealt_round_robin_over_survivors(self):
        dep, cache, clients, files, index = setup_cache(n_nodes=3)
        dep.run(cache.register())
        dep.run(cache.wait_warm())
        victim = sorted(cache.masters)[0]
        survivors = sorted(n for n in cache.masters if n != victim)
        orphans = list(cache.masters[victim].assigned)
        next(n for n in dep.client_nodes if n.name == victim).kill()
        dep.run(cache.recover(fanout=2))
        assert [cache.chunk_owner_node(c) for c in orphans] == [
            survivors[i % 2] for i in range(len(orphans))]


def test_placement_is_the_one_ownership_seam():
    """Outside ``core/dist_cache/placement.py`` nothing in ``src`` writes
    ownership (``_owner_of`` / ``.assigned``) but an ``__init__``
    declaring the field."""
    src = Path(__file__).resolve().parents[2] / "src"
    seam = src / "repro/core/dist_cache/placement.py"

    def owned(node):  # x._owner_of / x.assigned, or an item of one
        node = node.value if isinstance(node, ast.Subscript) else node
        return getattr(node, "attr", None) in ("_owner_of", "assigned")

    offenders = []
    for path in sorted(set(src.rglob("*.py")) - {seam}):
        tree = ast.parse(path.read_text())
        declared = {id(n) for f in ast.walk(tree)
                    if getattr(f, "name", "") == "__init__" for n in f.body}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                              ast.Delete)):
                targets = getattr(n, "targets", None) or [n.target]
                bad = id(n) not in declared and any(map(owned, targets))
            else:
                bad = (isinstance(n, ast.Call)
                       and getattr(n.func, "attr", "") in (
                           "append", "extend", "insert", "pop", "remove", "clear")
                       and owned(n.func.value))
            if bad:
                offenders.append(f"{path.relative_to(src)}:{n.lineno}")
    assert offenders == []
