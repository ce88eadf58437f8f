"""Sharded in-memory key-value store (the Redis-cluster substrate).

DIESEL stores dataset metadata as key-value pairs in a distributed
in-memory KV database (§4, Fig 2: "e.g., Redis cluster").  This package
provides:

* :class:`KVTable` — the pure data structure (bytes → bytes with prefix
  scan), usable without simulation;
* :class:`KVInstance` — one KV server process bound to a cluster node:
  its table, up while its node is;
* :class:`ShardedKV` — slot-based sharding across instances, reached
  in-process by the co-located server (``local_*``), plus the two
  §4.1.2 failure scenarios (lose one instance's recent writes / lose
  everything).

No KV operation charges sim time: the server charges the cluster's
closed-form cost (Table 4's ``cluster_qps``) for the KV work it does.
"""

from repro.kvstore.kv import KVInstance, KVTable
from repro.kvstore.sharded import ShardedKV

__all__ = ["KVInstance", "KVTable", "ShardedKV"]
