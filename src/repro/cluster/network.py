"""Network fabric: point-to-point transfers with latency and bandwidth.

Models the paper's full-bisection 100 Gb/s InfiniBand network (Table 4).
A transfer acquires the sender's egress NIC, then the receiver's ingress
NIC, then holds both for ``latency + nbytes/bandwidth``.  The strict
egress-before-ingress acquisition order makes concurrent transfers
deadlock-free (no process ever holds an ingress while waiting for an
egress).  Incast onto a hot receiver therefore queues on its ingress NIC
— the effect that separates "every client connects to every server"
(Memcached) from DIESEL's one-master-per-node fan-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro.calibration import NetworkProfile
from repro.errors import ClusterError, NodeDownError
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event
from repro.cluster.node import Node


@dataclass(slots=True)
class FabricStats(Counters):
    """Cumulative transfer counters."""

    transfers: int = 0
    bytes_moved: int = 0
    intra_node: int = 0


class NetworkFabric:
    """Registry of nodes plus the transfer primitive between them."""

    def __init__(
        self, env: Environment, profile: NetworkProfile | None = None
    ) -> None:
        self.env = env
        self.profile = profile or NetworkProfile()
        self._nodes: Dict[str, Node] = {}
        self.stats = FabricStats()
        #: Intra-node (loopback / shared-memory) copy bandwidth.
        self.local_bandwidth_bps = 4 * self.profile.bandwidth_bps
        self.local_latency_s = 0.5e-6

    def add_node(self, node: Node) -> Node:
        """Attach ``node`` to the fabric under its unique name."""
        if node.name in self._nodes:
            raise ClusterError(f"duplicate node name: {node.name!r}")
        self._nodes[node.name] = node
        node.fabric = self
        return node

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Every attached node, in attach order."""
        return tuple(self._nodes.values())

    def transfer(
        self, src: Node, dst: Node, nbytes: int
    ) -> Generator[Event, Any, None]:
        """Move ``nbytes`` from ``src`` to ``dst`` in simulated time."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not src.alive:
            raise NodeDownError(src.name)
        if not dst.alive:
            raise NodeDownError(dst.name)
        if src is dst:
            # Intra-node move: shared memory, no NIC involvement.
            yield self.env.timeout(
                self.local_latency_s + nbytes / self.local_bandwidth_bps
            )
            self.stats.transfers += 1
            self.stats.intra_node += 1
            self.stats.bytes_moved += nbytes
            return
        duration = self.profile.latency_s + nbytes / self.profile.bandwidth_bps
        # Ordered acquisition: egress first, then ingress (deadlock-free).
        egress_req = src.egress._station.acquire()
        try:
            yield egress_req
        except BaseException:
            src.egress._station.abandon(egress_req)
            raise
        try:
            ingress_req = dst.ingress._station.acquire()
            try:
                yield ingress_req
            except BaseException:
                dst.ingress._station.abandon(ingress_req)
                raise
            try:
                yield self.env.timeout(duration)
            finally:
                dst.ingress._station.release(ingress_req)
        finally:
            src.egress._station.release(egress_req)
        if not dst.alive:
            raise NodeDownError(dst.name, "receiver died during transfer")
        self.stats.transfers += 1
        self.stats.bytes_moved += nbytes
