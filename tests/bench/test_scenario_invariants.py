"""Every residency's books at the end of four scenarios, smoke-sized.

The ``sharing``, ``capacity``, ``elastic`` and ``locality`` runs build
their testbeds, tasks and clients through the ``bench.setups`` kit; this
test records what the kit hands out, lets each testbed run to quiescence
once the scenario returns, and checks the whole lot with
:func:`tests.invariants.check_invariants` — the node tiers behind every
task cache, every reader's and client's chunk window, every server store.
"""

import pytest

from repro.bench import experiments as E
from repro.bench import setups
from repro.calibration import KB

from tests.invariants import check_invariants

SCENARIOS = {
    "sharing": lambda: E.model_selection(n_files=48, task_counts=(1, 3)),
    "capacity": lambda: E.capacity(
        ram_bytes=256 * KB, file_size=8 * KB, chunk_size=64 * KB,
        ratios=(0.5, 4.0), disk_tier_bytes=4 * 256 * KB),
    "elastic": lambda: E.fig_elastic(
        n_files=64, churn_cycles=1, churn_passes=2, crowd_tasks=4),
    "locality": lambda: E.fig_locality(n_files=64, storm_clients=3),
}


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
    SCENARIOS[scenario]()
    tasks = kit["make_task"]
    assert kit["make_testbed"] and tasks
    for tb in kit["make_testbed"]:
        tb.env.run()
    check_invariants(
        caches=[t.cache for t in tasks],
        windows=[r.window for t in tasks for r in t.readers]
        + [c._window for c in kit["diesel_client"]],
        stores=[tb.store for tb in kit["make_testbed"]],
    )
