"""Memcached + Twemproxy baseline (the global in-memory cache, §6).

The cluster spreads keys across per-node memcached servers with
consistent hashing.  Two properties drive the paper's results:

* **No write batching** (§6.2): libMemcached issues one RPC per SET, so
  caching a dataset of small files is per-file-RPC-bound (Fig 9, 11b).
* **Failure → keyspace holes** (§4.2, Fig 6): when a node dies, gets for
  its share of keys miss and fall back to the backing store; a few
  percent of misses collapse aggregate read speed because the fallback
  (Lustre small-file reads) is orders of magnitude slower.

Every client keeps a connection to every server (full mesh), unlike
DIESEL's per-node masters.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Sequence

from repro.calibration import MemcachedProfile
from repro.errors import NodeDownError
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment, Event
from repro.util.hashing import ConsistentHashRing


class MemcachedNode:
    """One memcached server instance on a cluster node."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        node: Node,
        name: str,
        profile: MemcachedProfile | None = None,
        threads: int = 16,
    ) -> None:
        self.env = env
        self.node = node
        self.name = name
        self.profile = profile or MemcachedProfile()
        self._data: Dict[str, bytes] = {}
        p = self.profile

        # GETs are served at server_qps aggregate with ~latency_s unloaded
        # latency; SETs are cheaper at the server because twemproxy
        # pipelines them (write_speedup); value size adds a copy term.
        def extra(method: str, nbytes: int) -> float:
            cost = p.proxy_extra_s + nbytes * p.per_byte_s
            if method == "set":
                workers = max(1, round(p.server_qps * p.latency_s))
                base = workers / p.server_qps
                cost -= base * (1.0 - 1.0 / p.write_speedup)
            return cost

        self.endpoint = RpcEndpoint.for_capacity(
            env, fabric, node, name,
            handler=self._handle, qps=p.server_qps, latency_s=p.latency_s,
            extra_service=extra,
        )

    def _handle(self, method: str, *args: Any) -> Any:
        if method == "get":
            return self._data.get(args[0])
        if method == "set":
            self._data[args[0]] = args[1]
            return True
        raise ValueError(f"unknown memcached method {method!r}")

    @property
    def up(self) -> bool:
        return self.endpoint.up


class MemcachedCluster:
    """Consistent-hash cluster of memcached nodes behind proxies."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        nodes: Sequence[Node],
        profile: MemcachedProfile | None = None,
        threads_per_server: int = 16,
        ring_replicas: int = 128,
    ) -> None:
        if not nodes:
            raise ValueError("MemcachedCluster needs at least one node")
        self.env = env
        self.profile = profile or MemcachedProfile()
        self.servers: Dict[str, MemcachedNode] = {}
        for i, node in enumerate(nodes):
            name = f"memcached{i}"
            self.servers[name] = MemcachedNode(
                env, fabric, node, name, self.profile, threads_per_server
            )
        self.ring = ConsistentHashRing(self.servers.keys(), replicas=ring_replicas)

    def server_for(self, key: str) -> MemcachedNode:
        return self.servers[self.ring.lookup(key)]

    def get(
        self, client: Node, key: str
    ) -> Generator[Event, Any, Optional[bytes]]:
        """GET; returns None on miss *or* when the owning server is down.

        A dead server behaves as a miss (the twemproxy ejects the host and
        the client falls back to the backing store), matching the Fig 6
        experiment where disabled instances redirect reads to Lustre.
        GETs in flight when the instance dies surface the same way — a
        reset connection is a miss to libMemcached.
        """
        server = self.server_for(key)
        if not server.up:
            return None
        try:
            value = yield from server.endpoint.call(
                client, "get", key, request_bytes=64 + len(key)
            )
        except NodeDownError:
            return None
        return value

    def set(
        self, client: Node, key: str, value: bytes
    ) -> Generator[Event, Any, bool]:
        """SET; one RPC per call — libMemcached has no batch mode (§6.2).

        The client pays libMemcached+twemproxy marshalling per call
        (per-op plus per-byte; the per-byte term dominates large values,
        which is why 128 KB writes trail DIESEL by ~17× in Fig 9).
        """
        server = self.server_for(key)
        if not server.up:
            raise NodeDownError(server.node.name, f"memcached {server.name} down")
        p = self.profile
        yield self.env.timeout(
            p.write_per_op_s + len(value) * p.write_per_byte_s
        )
        yield from server.endpoint.call(
            client,
            "set",
            key,
            bytes(value),
            request_bytes=64 + len(key) + len(value),
            response_bytes=8,
        )
        return True

    def kill_server(self, name: str) -> None:
        """Disable one memcached instance (its node stays up)."""
        server = self.servers[name]
        server.endpoint._up = False
