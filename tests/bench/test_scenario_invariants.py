"""Every residency's books at the end of the ten deterministic CI
scenarios, at their smoke sizes (:data:`tests.bench.smoke.SMOKE`).

Each run builds its testbeds, tasks and clients through the
``bench.setups`` kit; this test records what the kit hands out, lets
each testbed run to quiescence once the scenario returns, and checks the
whole lot with :func:`tests.invariants.check_invariants` — the node
tiers behind every task cache, every reader's and client's chunk window,
every server store — then each testbed's semaphores
(:func:`~tests.invariants.check_stations`) and journal and client
snapshots (:func:`~tests.invariants.check_journals`) and the placement
of every KV key (:func:`~tests.invariants.check_kv_routing`).  Ownership
(:func:`~tests.invariants.check_ownership`) is also checked at every
membership change during the run: one live owner per chunk per
``membership_version``, listed once, and the p×(n−1) mesh.
"""

import pytest

from repro.bench import experiments as E
from repro.bench import setups
from repro.core.dist_cache.membership import Membership
from repro.core.meta_journal import journal_key

from tests.bench.smoke import run_smoke
from tests.invariants import (
    check_invariants,
    check_journals,
    check_kv_routing,
    check_ownership,
    check_stations,
)

#: The scenarios whose committed ``BENCH_*.json`` the rows gate diffs.
SCENARIOS = ("sharing", "capacity", "locality", "faults", "prefetch",
             "ingest", "fanout", "latency", "metaplane")


@pytest.fixture
def kit(monkeypatch):
    """What the kit builds during one scenario: testbeds, tasks, clients."""
    built = {"make_testbed": [], "make_task": [], "diesel_client": []}
    for name, sink in built.items():
        def recorded(*args, _inner=getattr(setups, name), _sink=sink, **kw):
            out = _inner(*args, **kw)
            _sink.append(out)
            return out

        monkeypatch.setattr(setups, name, recorded)
        monkeypatch.setattr(E, name, recorded)
    return built


@pytest.fixture
def changes(monkeypatch):
    """Checks ownership after every membership change; the
    ``membership_version`` of each check, in order."""
    checked = []
    publish = Membership._notify_membership

    def published(cache):
        before = cache.membership_version
        publish(cache)
        assert cache.membership_version == before + 1
        check_ownership(cache, live=True)
        checked.append(cache.membership_version)

    monkeypatch.setattr(Membership, "_notify_membership", published)
    return checked


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_books_balance_at_the_end(kit, changes, scenario):
    run_smoke(scenario)
    if scenario in ("faults", "fanout"):
        assert changes, "no membership change was checked"
    tasks = kit["make_task"]
    assert kit["make_testbed"]
    for tb in kit["make_testbed"]:
        tb.env.run()
    caches = [t.cache for t in tasks]
    clients = kit["diesel_client"]
    check_invariants(
        caches=caches,
        windows=[r.window for t in tasks for r in t.readers]
        + [c._window for c in clients],
        stores=[tb.store for tb in kit["make_testbed"]],
    )
    for tb in kit["make_testbed"]:
        if tb.diesel_servers:
            check_stations(tb, [c for c in caches if c.env is tb.env])
            check_journals(tb, [c for c in clients if c.env is tb.env])
            check_kv_routing(tb.kv)


def test_a_held_slot_a_journal_hole_and_a_stale_snapshot_are_caught():
    files = {f"/ds/f{i}": bytes([i]) * 512 for i in range(8)}
    tb = setups.deploy(1, "ds", files, 1024)
    client = setups.diesel_client_with_snapshot(
        tb, "ds", tb.compute_nodes[0], "c0")
    check_stations(tb)
    check_journals(tb, [client])

    station = tb.compute_nodes[0].egress._station
    slot = station.acquire()
    with pytest.raises(AssertionError, match="compute0.egress"):
        check_stations(tb)
    station.release(slot)

    oldest, newest = tb.diesel.journal.span("ds")
    assert newest > oldest
    head = tb.kv.local_get_or_none(journal_key("ds", oldest))
    tb.kv.local_put(journal_key("ds", newest), head)  # wrong version
    with pytest.raises(AssertionError):
        check_journals(tb)

    tb = setups.deploy(1, "ds", files, 1024)
    client = setups.diesel_client_with_snapshot(
        tb, "ds", tb.compute_nodes[0], "c0")
    client._index._files.pop("/ds/f0")
    with pytest.raises(AssertionError, match="c0"):
        check_journals(tb, [client])


def test_kv_routing_on_an_odd_shard_count_and_a_stranded_key_is_caught():
    # Six shards do not divide the slot count, so a router that skipped
    # the slot reduction would place keys where ``owner`` never looks.
    files = {f"/ds/d{i % 5}/f{i}": bytes([i]) * 64 for i in range(60)}
    tb = setups.deploy(1, "ds", files, 1024, n_kv=6)
    assert tb.kv.total_keys() > 100
    check_kv_routing(tb.kv)

    key, value = next(iter(tb.kv.instances[0].table.pscan("")))
    tb.kv.instances[1].table.put(key, value)  # a second copy, off its slot
    with pytest.raises(AssertionError, match="redis1"):
        check_kv_routing(tb.kv)
