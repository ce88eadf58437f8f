"""Slot-sharded KV cluster (Redis-cluster style) with failure scenarios."""

from __future__ import annotations

import heapq
from binascii import crc_hqx
from itertools import groupby, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import ShardUnavailableError
from repro.kvstore.kv import KVInstance, check_limit

#: Redis cluster uses 16384 hash slots; we keep the same constant.
NUM_SLOTS = 16384


class ShardedKV:
    """Routes keys to KV instances by hash slot.

    Mirrors how a Redis cluster (or twemproxy'd pool) spreads a keyspace.
    Every operation is in-process and charges no sim time: the server
    co-located with the cluster charges the closed-form cost of its KV
    work itself (``DieselServer._kv_pipeline_cost``).  A prefix scan
    fans out to every shard and merges, since a prefix may span shards.
    """

    def __init__(self, instances: Sequence[KVInstance]) -> None:
        if not instances:
            raise ValueError("ShardedKV needs at least one instance")
        self._instances = list(instances)

    @property
    def instances(self) -> tuple[KVInstance, ...]:
        """The shards, in routing order."""
        return tuple(self._instances)

    @property
    def writes(self) -> int:
        """Mutations of any shard so far (:attr:`KVTable.writes` summed):
        unchanged between two reads means no pair changed in between."""
        return sum(inst.table.writes for inst in self._instances)

    @staticmethod
    def slot(key: str) -> int:
        """The key's hash slot in ``[0, NUM_SLOTS)``: Redis Cluster's
        ``HASH_SLOT``, CRC-16/XMODEM of the UTF-8 key mod ``NUM_SLOTS``
        (no hash tags)."""
        return crc_hqx(key.encode(), 0) % NUM_SLOTS

    @staticmethod
    def slots(keys: Iterable[str]) -> list[int]:
        """:meth:`slot` of each of ``keys``, in one pass of C-level maps."""
        return list(map(NUM_SLOTS.__rmod__, map(
            crc_hqx, map(str.encode, keys), repeat(0)
        )))

    def owner(self, key: str) -> KVInstance:
        """The shard that holds ``key``, up or not."""
        return self._instances[self.slot(key) % len(self._instances)]

    def _live_owner(self, key: str) -> KVInstance:
        """:meth:`owner`, which must be up (:attr:`KVInstance.up`), in
        one frame: the point ops' routing and liveness read inline."""
        instances = self._instances
        inst = instances[crc_hqx(key.encode(), 0) % NUM_SLOTS % len(instances)]
        endpoint = inst.endpoint
        if not (endpoint._up and endpoint.node._alive):
            raise ShardUnavailableError(
                f"shard {inst.name!r} for key {key!r} is down"
            )
        return inst

    def check_up(self) -> None:
        """A scan needs every shard: name all the dead ones at once,
        before any shard is read, so a scan is complete or it fails."""
        down = [i.name for i in self._instances if not i.up]
        if down:
            raise ShardUnavailableError(
                f"shards down: {', '.join(sorted(down))}"
            )

    def _merged_scan(
        self, prefix: str, cursor: Optional[str] = None
    ) -> Iterator[tuple[str, bytes]]:
        """The shards' lazy scans past ``cursor``, k-way merged on the
        full (key, value) pair, so the order never depends on which
        shards contributed; liveness is checked by :meth:`check_up`."""
        self.check_up()
        return heapq.merge(
            *(inst.table.scan(prefix, cursor) for inst in self._instances)
        )

    def local_pscan_page(
        self,
        prefix: str,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Tuple[list[tuple[str, bytes]], Optional[str]]:
        """One bounded page of a cross-shard prefix scan.

        The shards' lazy scans past ``cursor`` are k-way merged on the
        full (key, value) pair, so the page order never depends on which
        shards contributed, and the merge stops at ``limit`` (at least
        1; ``None`` = the whole range): a page reads at most ``limit``
        plus one key per shard.  Returns ``(pairs, next_cursor)``:
        ``next_cursor`` is the last key of a full page, to pass back for
        the following page, or ``None`` when the scan is complete.
        Liveness is checked by :meth:`check_up`.
        """
        check_limit(limit)
        page = list(islice(self._merged_scan(prefix, cursor), limit))
        if limit is not None and len(page) == limit:
            return page, page[-1][0]
        return page, None

    def local_pscan_iter(self, prefix: str, page_size: int):
        """Iterate a prefix range page by page (bounded RAM).

        Yields lists of at most ``page_size`` pairs in global key order;
        the seam behind ``ls -lR`` and snapshot builds, which must not
        materialize an unbounded result set.
        """
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        cursor: Optional[str] = None
        while True:
            page, cursor = self.local_pscan_page(
                prefix, cursor=cursor, limit=page_size
            )
            if page:
                yield page
            if cursor is None:
                return

    def local_pcount(self, prefix: str) -> int:
        """Count keys under ``prefix`` without materializing any pair."""
        self.check_up()
        return sum(inst.table.pcount(prefix) for inst in self._instances)

    # -- point and scan operations for co-located server logic ------------
    # No sim time passes in here, but a dead Redis instance is dead
    # however you reach it: every op reads its shard's liveness.
    def local_put(self, key: str, value: bytes) -> None:
        """Store ``value`` under ``key``; the owner must be up."""
        self._live_owner(key).table.put(key, value)

    def local_put_many(
        self, keys: Sequence[str], values: Sequence[bytes]
    ) -> None:
        """:meth:`local_put` of each ``(keys[i], values[i])``, in order.

        Every key's shard is its :meth:`slots` entry reduced as
        :meth:`owner` does it; the pairs are sorted by shard
        (a stable sort, so each shard's keep their order in ``keys``)
        and each shard's go in one :meth:`KVTable.put_many
        <repro.kvstore.kv.KVTable.put_many>`.  No sim time passes in
        here, so each shard's liveness is read once, and a dead shard
        still leaves exactly the pairs ahead of its first key written.
        """
        tables = [inst.table if inst.up else None for inst in self._instances]
        shards = list(map(len(tables).__rmod__, self.slots(keys)))
        if None in tables:
            dead = {i for i, table in enumerate(tables) if table is None}
            first = next((i for i, s in enumerate(shards) if s in dead), None)
            if first is not None:
                self.local_put_many(keys[:first], values[:first])
                self._live_owner(keys[first])  # raises, naming the shard and the key
        by_shard = itemgetter(0)
        pairs = sorted(zip(shards, keys, values), key=by_shard)
        for shard, run in groupby(pairs, by_shard):
            _, run_keys, run_values = zip(*run)
            tables[shard].put_many(run_keys, run_values)

    def local_get(self, key: str) -> bytes:
        """The value under ``key``; the owner must be up."""
        return self._live_owner(key).table.get(key)

    def local_get_or_none(self, key: str) -> Optional[bytes]:
        """The value under ``key``, ``None`` if absent; the owner must be up."""
        return self._live_owner(key).table.get_or_none(key)

    def local_delete(self, key: str) -> None:
        """Remove ``key``; the owner must be up."""
        self._live_owner(key).table.delete(key)

    def local_pscan(self, prefix: str) -> list[tuple[str, bytes]]:
        """Prefix scan, sorted on the full (key, value) pair: one slice
        per shard, one sort.  Liveness is checked by :meth:`check_up`."""
        self.check_up()
        pairs: list[tuple[str, bytes]] = []
        for inst in self._instances:
            pairs += inst.table.pscan(prefix)
        pairs.sort()
        return pairs

    def local_keys(self, prefix: str) -> list[str]:
        """Every key under ``prefix``, sorted: one slice of each shard's
        index.  Liveness is checked by :meth:`check_up`."""
        self.check_up()
        keys: list[str] = []
        for inst in self._instances:
            keys += inst.table.keys(prefix)
        keys.sort()
        return keys

    def total_keys(self) -> int:
        """Keys held over all shards, up or not."""
        return sum(len(i.table) for i in self._instances)

    # -- §4.1.2 failure scenarios -----------------------------------------
    def lose_instance(self, index: int) -> KVInstance:
        """Scenario (a): one KV node crashes, losing its recent pairs."""
        inst = self._instances[index]
        inst.crash_and_lose_data()
        return inst

    def lose_all(self) -> None:
        """Scenario (b): data-center power failure — all pairs gone."""
        for inst in self._instances:
            inst.crash_and_lose_data()
