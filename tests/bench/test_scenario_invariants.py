"""Every residency's books at the end of the ten deterministic CI
scenarios, at their smoke sizes (:data:`tests.bench.smoke.SMOKE`).

Each run builds its testbeds, tasks and clients through the
``bench.setups`` kit; this test records what the kit hands out, lets
each testbed run to quiescence once the scenario returns, and checks the
whole lot with :func:`tests.invariants.check_invariants` — the node
tiers behind every task cache, every reader's and client's chunk window,
every server store — then each testbed's semaphores
(:func:`~tests.invariants.check_stations`) and journal and client
snapshots (:func:`~tests.invariants.check_journals`).
"""

import pytest

from repro.bench import experiments as E
from repro.bench import setups
from repro.core.meta_journal import journal_key

from tests.bench.smoke import run_smoke
from tests.invariants import check_invariants, check_journals, check_stations

#: The scenarios whose committed ``BENCH_*.json`` the rows gate diffs.
SCENARIOS = ("sharing", "capacity", "elastic", "locality", "faults",
             "prefetch", "ingest", "fanout", "latency", "metaplane")


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


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_books_balance_at_the_end(kit, scenario):
    run_smoke(scenario)
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
