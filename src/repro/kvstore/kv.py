"""A single key-value instance: data structure + simulated service."""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Any, Generator, Iterable, Iterator, Optional

from repro.calibration import RedisProfile
from repro.errors import KeyNotFoundError
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment, Event


class KVTable:
    """An in-memory ordered-scan key-value table (keys: str, values: bytes).

    ``pscan`` (scan-with-prefix, §4.1.1) returns matching pairs in key
    order; the sorted key index is rebuilt lazily so bulk loads stay
    O(n log n) overall instead of O(n²).  :attr:`writes` counts every
    put, delete and clear, so a reader can tell that nothing changed
    since it last looked.
    """

    def __init__(self) -> None:
        self._data: dict[str, bytes] = {}
        self._sorted_keys: Optional[list[str]] = None
        #: Mutations so far (put, delete, clear); never decreases.
        self.writes = 0

    def __len__(self) -> int:
        """Number of keys held."""
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is held."""
        return key in self._data

    def put(self, key: str, value: bytes) -> None:
        """Store ``value`` under ``key``, replacing any old value."""
        if not isinstance(key, str):
            raise TypeError(f"key must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")
        if key not in self._data:
            self._sorted_keys = None
        self._data[key] = bytes(value)
        self.writes += 1

    def get(self, key: str) -> bytes:
        """The value under ``key``; :class:`KeyNotFoundError` if absent."""
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def get_or_none(self, key: str) -> Optional[bytes]:
        """The value under ``key``, or ``None`` if absent."""
        return self._data.get(key)

    def delete(self, key: str) -> None:
        """Remove ``key``; :class:`KeyNotFoundError` if absent."""
        try:
            del self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None
        self._sorted_keys = None
        self.writes += 1

    def _index(self) -> list[str]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._data)
        return self._sorted_keys

    def _bounds(self, prefix: str) -> tuple[int, int]:
        """The index range ``[lo, hi)`` of the keys under ``prefix``."""
        index = self._index()
        lo = bisect.bisect_left(index, prefix)
        if not prefix:
            return lo, len(index)
        # Upper bound: the smallest string greater than every key that
        # starts with the prefix (bump the last character).
        last = prefix[-1]
        if ord(last) < 0x10FFFF:
            hi = bisect.bisect_left(index, prefix[:-1] + chr(ord(last) + 1))
            return lo, hi
        hi = lo  # pragma: no cover - exotic prefix
        while hi < len(index) and index[hi].startswith(prefix):
            hi += 1
        return lo, hi

    def scan(
        self, prefix: str, cursor: Optional[str] = None
    ) -> Iterator[tuple[str, bytes]]:
        """Lazily yield the pairs under ``prefix`` in key order, each key
        read only when the consumer asks for it.

        ``cursor`` resumes a paginated scan: only keys strictly greater
        than it are yielded.  The key range is fixed when the scan
        starts, so the table must not change while one is consumed.
        """
        index = self._index()
        lo, hi = self._bounds(prefix)
        if cursor is not None:
            lo = max(lo, bisect.bisect_right(index, cursor))
        data = self._data
        for i in range(lo, hi):
            key = index[i]
            yield key, data[key]

    def pscan(
        self,
        prefix: str,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> list[tuple[str, bytes]]:
        """Scan keys with ``prefix`` in sorted order (the paper's *pscan*).

        :meth:`scan` cut at ``limit`` (``None`` = no cut; it must be at
        least 1), so passing the last key of one page as ``cursor``
        yields the next page, and a bounded scan reads no more than
        ``limit`` pairs however large the prefix range is.
        """
        return list(islice(self.scan(prefix, cursor), check_limit(limit)))

    def pcount(self, prefix: str) -> int:
        """Number of keys under ``prefix``, without materializing them."""
        lo, hi = self._bounds(prefix)
        return hi - lo

    def keys(self) -> list[str]:
        """Every key, sorted."""
        return list(self._index())

    def clear(self) -> None:
        """Drop every pair."""
        self._data.clear()
        self._sorted_keys = None
        self.writes += 1

    def load(self, pairs: Iterable[tuple[str, bytes]]) -> None:
        """:meth:`put` each ``(key, value)`` of ``pairs``, in order."""
        for k, v in pairs:
            self.put(k, v)


def check_limit(limit: Optional[int]) -> Optional[int]:
    """``limit`` if it is ``None`` or at least 1, else ``ValueError``: a
    page of a paginated scan holds one pair or more."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return limit


class KVInstance:
    """One KV server (e.g. one Redis instance) attached to a node."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        node: Node,
        name: str,
        qps: float | None = None,
        latency_s: float | None = None,
    ) -> None:
        self.env = env
        self.node = node
        self.name = name
        self.table = KVTable()
        profile = RedisProfile()
        qps = qps if qps is not None else profile.instance_qps
        latency_s = latency_s if latency_s is not None else profile.latency_s
        if qps <= 0:
            raise ValueError("qps must be positive")
        # Aggregate capacity `qps` with unloaded service latency
        # `latency_s` (workers derived via Little's law).
        self.endpoint = RpcEndpoint.for_capacity(
            env, fabric, node, name,
            handler=self._handle, qps=qps, latency_s=latency_s,
        )

    @property
    def recorder(self):
        """Attached observability recorder (None = disabled)."""
        return self.endpoint.recorder

    @recorder.setter
    def recorder(self, value) -> None:
        """Forward the recorder to the RPC endpoint, which times every
        KV call as queue vs service (``rpc_get``, ``rpc_pscan``, ...)."""
        self.endpoint.recorder = value

    def _handle(self, method: str, *args: Any) -> Any:
        if method == "get":
            return self.table.get(args[0])
        if method == "get_or_none":
            return self.table.get_or_none(args[0])
        if method == "put":
            self.table.put(args[0], args[1])
            return None
        if method == "delete":
            self.table.delete(args[0])
            return None
        if method == "pscan":
            return self.table.pscan(args[0], *args[1:])
        if method == "pcount":
            return self.table.pcount(args[0])
        if method == "size":
            return len(self.table)
        raise ValueError(f"unknown KV method: {method!r}")

    @property
    def up(self) -> bool:
        """Whether the instance's endpoint is serving."""
        return self.endpoint.up

    def call(
        self, client: Node, method: str, *args: Any, **kw: Any
    ) -> Generator[Event, Any, Any]:
        """RPC into this instance from ``client`` (generator)."""
        return self.endpoint.call(client, method, *args, **kw)

    def crash_and_lose_data(self) -> None:
        """Simulate an instance crash that loses its in-memory contents."""
        self.table.clear()

    def restart(self) -> None:
        """Cold-start the instance after its node came back (§4.1.2 (a)).

        The store is in-memory, so a restart always begins empty —
        whatever pairs the crash lost stay lost until a metadata rebuild
        (:func:`repro.core.recovery.rebuild_dataset`) replays them.
        """
        self.table.clear()
        self.endpoint.restart()
