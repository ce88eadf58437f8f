"""Compute/storage node model.

A node bundles a name, liveness state, a memory budget (bytes) and two
NIC directions (egress/ingress), each a bandwidth-serializing queueing
station.  Services (KV shards, cache masters, DIESEL servers) attach to a
node; killing the node takes all of them down — the containment property
the task-grained cache is built around (§4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ClusterError
from repro.sim.engine import Environment, Semaphore
from repro.sim.resources import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import NetworkFabric


class Nic:
    """One direction of a node's NIC: a FIFO bandwidth serializer."""

    def __init__(
        self, env: Environment, bandwidth_bps: float, channels: int = 4
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("NIC bandwidth must be positive")
        self.bandwidth_bps = bandwidth_bps
        self._station = Semaphore(env, channels)

    @property
    def channels(self) -> int:
        """Transfers this direction carries at once; more only queue."""
        return self._station.capacity


class Node:
    """A machine in the simulated cluster."""

    def __init__(
        self,
        env: Environment,
        name: str,
        memory_bytes: float = 256 * 2**30,
        nic_bandwidth_bps: float = 100e9 / 8,
        nic_channels: int = 4,
    ) -> None:
        self.env = env
        self.name = name
        self.memory = Container(env, capacity=memory_bytes, init=memory_bytes)
        self.egress = Nic(env, nic_bandwidth_bps, nic_channels)
        self.ingress = Nic(env, nic_bandwidth_bps, nic_channels)
        self._alive = True
        self._on_fail: list = []
        self.fabric: "NetworkFabric | None" = None

    @property
    def alive(self) -> bool:
        """Whether the node is up (not killed since its last restore)."""
        return self._alive

    def on_fail(self, callback) -> None:
        """Register ``callback()`` to run when this node is killed."""
        self._on_fail.append(callback)

    def kill(self) -> None:
        """Fail the node; notifies attached services."""
        if not self._alive:
            raise ClusterError(f"node {self.name!r} is already down")
        self._alive = False
        for cb in self._on_fail:
            cb()

    def restore(self) -> None:
        """Bring a killed node back up; its services stay down until
        restarted."""
        if self._alive:
            raise ClusterError(f"node {self.name!r} is already up")
        self._alive = True

    def __repr__(self) -> str:
        """``Node(<name>, up|DOWN)``."""
        state = "up" if self._alive else "DOWN"
        return f"Node({self.name!r}, {state})"
