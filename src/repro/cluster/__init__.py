"""Simulated cluster substrate: nodes, storage devices, network fabric.

Models the paper's testbed (Table 4): six storage machines with NVMe
SSDs, ten test machines, all on a 100 Gb/s InfiniBand fabric — wired up
by :func:`repro.bench.setups.make_testbed`.  Each hardware element is a
queueing station over the DES kernel so concurrent load produces
realistic saturation shapes.
"""

from repro.cluster.devices import Device
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node

__all__ = [
    "Device",
    "NetworkFabric",
    "Node",
]
