"""A from-scratch discrete-event simulation (DES) kernel.

This package provides the simulated-time substrate for every performance
experiment in the reproduction: a SimPy-flavoured event loop with
generator-based processes, composable events, and contention primitives
(:class:`Semaphore`, :class:`Container`, :class:`Store`).

Why a DES?  The paper's results are *contention shapes* measured on a
16-node InfiniBand cluster — saturation of a metadata server, queueing on
NVMe devices, RPC round trips.  Re-measuring an in-process cache with
wall clocks would produce none of those shapes (see DESIGN.md §2), so the
system components execute their real logic while charging calibrated
simulated time for I/O and network work.

Typical usage::

    env = Environment()

    def reader(env, device):
        t0 = env.now
        yield from device.read(4096)
        return env.now - t0

    proc = env.process(reader(env, device))
    env.run()
    print(proc.value)
"""

from repro.sim.engine import (
    AllOf,
    Environment,
    Event,
    Process,
    Semaphore,
    Timeout,
    fan_out,
    run_sync,
)
from repro.sim.resources import Container, Store

__all__ = [
    "AllOf",
    "Container",
    "Environment",
    "Event",
    "Process",
    "Semaphore",
    "Store",
    "Timeout",
    "fan_out",
    "run_sync",
]
