"""Every residency's books at the end of the ten deterministic CI
scenarios, at their smoke sizes (:data:`tests.bench.smoke.SMOKE`).

Each run builds its testbeds, tasks and clients through the
``bench.setups`` kit; this test records what the kit hands out, lets
each testbed run to quiescence once the scenario returns, and checks the
whole lot with :func:`tests.invariants.check_invariants` — the node
tiers behind every task cache, every reader's and client's chunk window,
every server store.
"""

import pytest

from repro.bench import experiments as E
from repro.bench import setups

from tests.bench.smoke import run_smoke
from tests.invariants import check_invariants

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
    check_invariants(
        caches=[t.cache for t in tasks],
        windows=[r.window for t in tasks for r in t.readers]
        + [c._window for c in kit["diesel_client"]],
        stores=[tb.store for tb in kit["make_testbed"]],
    )
