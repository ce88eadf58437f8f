"""Slot-sharded KV cluster (Redis-cluster style) with failure scenarios."""

from __future__ import annotations

import heapq
import random
from typing import Any, Dict, Generator, Iterable, Optional, Sequence, Tuple

from repro.errors import (
    CircuitOpenError,
    NodeDownError,
    ShardUnavailableError,
)
from repro.cluster.node import Node
from repro.kvstore.kv import KVInstance
from repro.sim.engine import Event
from repro.util.hashing import mix64, stable_hash

#: Redis cluster uses 16384 hash slots; we keep the same constant.
NUM_SLOTS = 16384


def _merge_page(
    parts: Sequence[Sequence[tuple[str, bytes]]], limit: Optional[int]
) -> Tuple[list[tuple[str, bytes]], Optional[str]]:
    """Streaming k-way merge of per-shard sorted pages.

    Merges on the full (key, value) pair so the page order never depends
    on which shards contributed, truncates to ``limit``, and derives the
    resume cursor: the last key of a full page (a short page means every
    shard was drained, so the scan is complete).
    """
    merged = heapq.merge(*parts)
    if limit is None:
        return list(merged), None
    page: list[tuple[str, bytes]] = []
    for pair in merged:
        page.append(pair)
        if len(page) >= limit:
            break
    next_cursor = page[-1][0] if len(page) >= limit else None
    return page, next_cursor


class ShardedKV:
    """Routes keys to KV instances by hash slot.

    Mirrors how a Redis cluster (or twemproxy'd pool) spreads a keyspace.
    ``pscan`` fans out to every live shard and merges, since a prefix may
    span shards.
    """

    def __init__(self, instances: Sequence[KVInstance]) -> None:
        if not instances:
            raise ValueError("ShardedKV needs at least one instance")
        self._instances = list(instances)
        #: Fault tolerance (opt-in via :meth:`configure_ft`; None =
        #: legacy single-attempt behaviour).
        self._retry = None
        self._breakers: Dict[str, Any] = {}  # instance name -> breaker
        self._breaker_args: tuple = ()  # (threshold, reset_s) once configured
        self._rng: Optional[random.Random] = None

    def configure_ft(
        self,
        policy,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
    ) -> None:
        """Wrap every shard RPC in ``policy`` (a
        :class:`repro.ft.retry.RetryPolicy`) with per-shard circuit
        breakers.  The shard's liveness is re-probed on each attempt, so
        a retried call survives a shard restart mid-operation."""
        self._retry = policy
        self._breaker_args = (breaker_threshold, breaker_reset_s)
        self._breakers.clear()
        # Seeded: retry jitter must not vary run to run.
        self._rng = random.Random(0x5A4D)

    def _breaker_for(self, inst: KVInstance):
        breaker = self._breakers.get(inst.name)
        if breaker is None:
            from repro.ft.breaker import CircuitBreaker

            breaker = CircuitBreaker(
                inst.env, *self._breaker_args, name=inst.name
            )
            self._breakers[inst.name] = breaker
        return breaker

    def _call_inst(
        self, client: Node, inst: KVInstance, method: str, *args: Any,
        **kw: Any,
    ) -> Generator[Event, Any, Any]:
        """One shard RPC, retried under the configured policy (if any)."""
        if self._retry is None:
            if not inst.up:
                raise ShardUnavailableError(f"shard {inst.name!r} is down")
            result = yield from inst.call(client, method, *args, **kw)
            return result
        from repro.ft.retry import retry_call

        def attempt():
            if not inst.up:
                raise ShardUnavailableError(f"shard {inst.name!r} is down")
            return inst.call(client, method, *args, **kw)

        result = yield from retry_call(
            inst.env,
            self._retry,
            attempt,
            rng=self._rng,
            breaker=self._breaker_for(inst),
            recorder=inst.recorder,
            op=f"kv_{method}",
            actor=inst.name,
        )
        return result

    @property
    def instances(self) -> tuple[KVInstance, ...]:
        return tuple(self._instances)

    def slot(self, key: str) -> int:
        return stable_hash(key, NUM_SLOTS)

    def owner(self, key: str) -> KVInstance:
        return self._instances[self.slot(key) % len(self._instances)]

    def _live_owner(self, key: str) -> KVInstance:
        inst = self.owner(key)
        if not inst.up:
            raise ShardUnavailableError(
                f"shard {inst.name!r} for key {key!r} is down"
            )
        return inst

    # -- simulated operations (generators; run inside a process) ----------
    def get(self, client: Node, key: str) -> Generator[Event, Any, bytes]:
        result = yield from self._call_inst(client, self.owner(key), "get", key)
        return result

    def get_or_none(
        self, client: Node, key: str
    ) -> Generator[Event, Any, Optional[bytes]]:
        result = yield from self._call_inst(
            client, self.owner(key), "get_or_none", key
        )
        return result

    def put(self, client: Node, key: str, value: bytes) -> Generator[Event, Any, None]:
        yield from self._call_inst(
            client, self.owner(key), "put", key, value,
            request_bytes=64 + len(key) + len(value),
        )

    def delete(self, client: Node, key: str) -> Generator[Event, Any, None]:
        yield from self._call_inst(client, self.owner(key), "delete", key)

    def pscan(
        self, client: Node, prefix: str, skip_dead: bool = False
    ) -> Generator[Event, Any, list[tuple[str, bytes]]]:
        """Prefix scan across all shards, merged in key order.

        Liveness is validated **up front**, before any shard is charged
        RPC cost — a scan never pays for half the cluster and then
        raises on a shard it could have checked for free.
        ``skip_dead=True`` is the degraded mode: scan whatever shards
        answer and merge what exists (the caller owns the completeness
        caveat); a shard dying *mid-scan* is likewise skipped.
        """
        down = [i.name for i in self._instances if not i.up]
        if down and not skip_dead:
            raise ShardUnavailableError(
                f"shards down: {', '.join(sorted(down))}"
            )
        merged: list[tuple[str, bytes]] = []
        for inst in self._instances:
            if not inst.up and skip_dead:
                continue
            try:
                part = yield from self._call_inst(client, inst, "pscan", prefix)
            except (NodeDownError, ShardUnavailableError, CircuitOpenError):
                if skip_dead:
                    continue
                raise
            merged.extend(part)
        # Sort the full (key, value) pair, not the key alone: a stable
        # key-only sort leaves equal keys in shard-iteration order, so a
        # degraded skip_dead scan would interleave differently depending
        # on *which* shard died.  The pair sort is shard-order-free.
        merged.sort()
        return merged

    def local_pscan_page(
        self,
        prefix: str,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
        skip_dead: bool = False,
    ) -> Tuple[list[tuple[str, bytes]], Optional[str]]:
        """One bounded page of a cross-shard prefix scan, at zero sim
        cost (co-located server logic).

        Each live shard returns at most ``limit`` pairs past ``cursor``;
        the per-shard pages (already sorted) are k-way merged and
        truncated to ``limit``, so neither the shards nor the caller ever
        materialize the full prefix range.  Returns ``(pairs,
        next_cursor)``; pass ``next_cursor`` back to fetch the following
        page (``None`` = the scan is complete).  Liveness and
        ``skip_dead`` semantics match :meth:`pscan`.
        """
        down = [i.name for i in self._instances if not i.up]
        if down and not skip_dead:
            raise ShardUnavailableError(
                f"shards down: {', '.join(sorted(down))}"
            )
        parts = [
            inst.table.pscan(prefix, limit, cursor)
            for inst in self._instances
            if inst.up
        ]
        return _merge_page(parts, limit)

    def local_pscan_iter(
        self, prefix: str, page_size: int, skip_dead: bool = False
    ):
        """Iterate a prefix range page by page (zero-cost, bounded RAM).

        Yields lists of at most ``page_size`` pairs in global key order;
        the seam behind ``ls -lR`` and snapshot builds, which must not
        materialize an unbounded result set.
        """
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        cursor: Optional[str] = None
        while True:
            page, cursor = self.local_pscan_page(
                prefix, cursor=cursor, limit=page_size, skip_dead=skip_dead
            )
            if page:
                yield page
            if cursor is None:
                return

    def local_pcount(self, prefix: str, skip_dead: bool = False) -> int:
        """Count keys under ``prefix`` without materializing any pair."""
        down = [i.name for i in self._instances if not i.up]
        if down and not skip_dead:
            raise ShardUnavailableError(
                f"shards down: {', '.join(sorted(down))}"
            )
        return sum(
            inst.table.pcount(prefix) for inst in self._instances if inst.up
        )

    # -- direct (zero-cost) access for co-located server logic ------------
    # These bypass the RPC *cost* (the DIESEL server's service rate
    # already accounts for the KV round trip) but never the shard's
    # *liveness*: a dead Redis instance is dead however you reach it.
    def local_put(self, key: str, value: bytes) -> None:
        """Write bypassing RPC cost; for processes co-located with the shard."""
        self._live_owner(key).table.put(key, value)

    def local_put_hashed(
        self, entries: Iterable[tuple[str, bytes, int]]
    ) -> None:
        """:meth:`local_put` of each ``(key, value, fnv1a_64(key))``, in
        order.

        The caller carries the FNV state of a key prefix over the keys
        that share it; the slot is that state mixed as :meth:`slot`
        mixes it.  No sim time passes in here, so each shard's liveness
        is read once, and a dead shard still leaves exactly the pairs
        ahead of its first key written.
        """
        instances = self._instances
        tables = [inst.table if inst.up else None for inst in instances]
        n = len(tables)
        for key, value, h in entries:
            table = tables[mix64(h) % NUM_SLOTS % n]
            if table is None:
                self._live_owner(key)  # raises, naming the shard and the key
            table.put(key, value)

    def local_get(self, key: str) -> bytes:
        return self._live_owner(key).table.get(key)

    def local_get_or_none(self, key: str) -> Optional[bytes]:
        return self._live_owner(key).table.get_or_none(key)

    def local_delete(self, key: str) -> None:
        self._live_owner(key).table.delete(key)

    def local_pscan(
        self, prefix: str, skip_dead: bool = False
    ) -> list[tuple[str, bytes]]:
        """Zero-cost prefix scan; same up-front liveness validation and
        degraded ``skip_dead`` semantics as :meth:`pscan`."""
        down = [i.name for i in self._instances if not i.up]
        if down and not skip_dead:
            raise ShardUnavailableError(
                f"shards down: {', '.join(sorted(down))}"
            )
        merged: list[tuple[str, bytes]] = []
        for inst in self._instances:
            if not inst.up:
                continue
            merged.extend(inst.table.pscan(prefix))
        merged.sort()  # full-pair sort: order must not depend on shard fate
        return merged

    def total_keys(self) -> int:
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
