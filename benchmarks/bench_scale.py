"""Engine scale benchmark: the DES kernel under a large epoch.

Smoke-mode version of the ``scale`` experiment (50 nodes, 10⁴ requests
— CI-sized; the full artifact is the 1000-node, 10⁶-request epoch in
``BENCH_scale.json``).  Guards three properties:

* **semantic equivalence** — the per-request and batched admission
  variants produce identical read/hit/stat counters;
* **vectorized-admission speedup** — epoch-normalized sim-events/sec of
  the batched variant is ≥ 3× the per-request one (the full-scale run
  is far higher; 3× is the regression floor);
* **kernel throughput floor** — the kernel under per-request admission
  sustains a minimum raw event rate, so an event-core regression fails
  the build rather than just slowing it.
"""

import pytest

from repro.bench.experiments import scale_engine

#: Conservative raw-kernel floor (events/sec) for CI machines; local
#: runs sustain several times this.
KERNEL_FLOOR = 50_000
#: Epoch-normalized speedup floor (the acceptance bar; full scale is
#: orders of magnitude above it).
SPEEDUP_FLOOR = 3.0


@pytest.mark.benchmark(group="scale")
def test_engine_scale_smoke(experiment):
    result = experiment(scale_engine, n_nodes=50, n_requests=10_000, batch=64)

    base = result.one(variant="per-request")
    fast = result.one(variant="batched")
    speedup = result.one(variant="speedup")

    # Semantic equivalence: same epoch, same counters, both variants.
    for key in ("reads", "hits", "stat_calls"):
        assert base[key] == fast[key], key
    assert base["reads"] == 10_000

    # Occupancy: the per-request variant pre-schedules the full epoch;
    # batching collapses it by ~the batch factor.
    assert base["peak_occupancy"] == 10_000
    assert fast["peak_occupancy"] < base["peak_occupancy"] / 10

    # Throughput floors.
    assert base["kernel_events_per_sec"] > KERNEL_FLOOR
    assert speedup["events_per_sec"] >= SPEEDUP_FLOOR
