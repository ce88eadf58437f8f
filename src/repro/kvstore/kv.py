"""A single key-value instance: data structure + simulated service."""

from __future__ import annotations

import bisect
from itertools import filterfalse
from typing import Any, Generator, Iterable, Iterator, Optional, Sequence

from repro.calibration import RedisProfile
from repro.errors import KeyNotFoundError
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment, Event


class KVTable:
    """An in-memory ordered-scan key-value table (keys: str, values: bytes).

    ``pscan`` (scan-with-prefix, §4.1.1) returns matching pairs in key
    order from a sorted key index that is kept across writes: the keys
    put and deleted since it was last built wait in two sets (an O(1)
    step per write), and the next scan folds them in, the deleted ones
    filtered out and the new ones sorted and merged as a second run,
    into a *new* list.  :attr:`writes` counts every put, delete and
    clear, so a reader can tell that nothing changed since it last
    looked.
    """

    #: Keys added / removed since ``_sorted_keys`` was built; ``None``
    #: when there are none (class-level, so a new table allocates
    #: nothing more than before).
    _added: Optional[set[str]] = None
    _removed: Optional[set[str]] = None
    #: Lazy scans (:meth:`scan`) started on ``_data`` and not finished:
    #: while there are any, a write first copies ``_data``, so each
    #: scan reads the pairs it started on.
    _pins = 0

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

    def _writable(self) -> dict[str, bytes]:
        """``_data``, copied first if a running scan reads it."""
        if self._pins:
            self._data = dict(self._data)
            self._pins = 0
        return self._data

    def put(self, key: str, value: bytes) -> None:
        """Store ``value`` under ``key``, replacing any old value."""
        if not isinstance(key, str):
            raise TypeError(f"key must be str, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")
        data = self._writable()
        if self._sorted_keys is not None and key not in data:
            removed = self._removed
            if removed and key in removed:
                removed.discard(key)
            elif self._added is None:
                self._added = {key}
            else:
                self._added.add(key)
        data[key] = bytes(value)
        self.writes += 1

    def put_many(self, keys: Sequence[str], values: Sequence[bytes]) -> None:
        """:meth:`put` of each ``(keys[i], values[i])``, in order.

        One dict update when every key is a ``str`` and every value a
        ``bytes``; otherwise pair by pair, so a pair :meth:`put` refuses
        raises its error with the pairs ahead of it written.
        """
        if not (set(map(type, keys)) <= _STR and set(map(type, values)) <= _BYTES):
            for key, value in zip(keys, values):
                self.put(key, value)
            return
        data = self._writable()
        if self._sorted_keys is not None:
            new = set(keys).difference(data)
            removed = self._removed
            if new and removed:  # deleted since the build: indexed still
                back = new & removed
                removed -= back
                new -= back
            if new:
                if self._added is None:
                    self._added = new
                else:
                    self._added |= new
        data.update(zip(keys, values))
        self.writes += len(keys)

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
        if key not in self._data:
            raise KeyNotFoundError(key)
        del self._writable()[key]
        if self._sorted_keys is not None:
            added = self._added
            if added and key in added:
                added.discard(key)
            elif self._removed is None:
                self._removed = {key}
            else:
                self._removed.add(key)
        self.writes += 1

    def _index(self) -> list[str]:
        """The sorted key index, with the writes since its last build
        folded in: a new list whenever it changes."""
        index = self._sorted_keys
        if index is None:
            index = self._sorted_keys = sorted(self._data)
        elif self._added or self._removed:
            removed, added = self._removed, self._added
            if removed:
                index = list(filterfalse(removed.__contains__, index))
            if added:
                index = index + sorted(added)
                index.sort()  # two sorted runs: one merge
            self._sorted_keys = index
            self._added = self._removed = None
        return index

    def _range(
        self, prefix: str, cursor: Optional[str] = None
    ) -> tuple[list[str], int, int]:
        """``(index, lo, hi)``: ``index[lo:hi]`` are the keys under
        ``prefix``, past ``cursor`` when one is given."""
        index = self._index()
        lo = bisect.bisect_left(index, prefix)
        if cursor is not None:
            lo = max(lo, bisect.bisect_right(index, cursor))
        if not prefix:
            return index, lo, len(index)
        # Upper bound: the smallest string greater than every key that
        # starts with the prefix (bump the last character).
        last = prefix[-1]
        if ord(last) < 0x10FFFF:
            hi = bisect.bisect_left(index, prefix[:-1] + chr(ord(last) + 1))
            return index, lo, hi
        hi = lo  # pragma: no cover - exotic prefix
        while hi < len(index) and index[hi].startswith(prefix):
            hi += 1
        return index, lo, hi

    def scan(
        self, prefix: str, cursor: Optional[str] = None
    ) -> Iterator[tuple[str, bytes]]:
        """Lazily yield the pairs under ``prefix`` in key order, each key
        read only when the consumer asks for it.

        ``cursor`` resumes a paginated scan: only keys strictly greater
        than it are yielded.  The pairs are those held when the scan
        starts (its first pair is asked for): a write while it runs
        changes the table, not what the scan yields.
        """
        index, lo, hi = self._range(prefix, cursor)
        data = self._data
        self._pins += 1
        try:
            for i in range(lo, hi):
                key = index[i]
                yield key, data[key]
        finally:
            if self._data is data:
                self._pins -= 1

    def pscan(
        self,
        prefix: str,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> list[tuple[str, bytes]]:
        """Scan keys with ``prefix`` in sorted order (the paper's *pscan*).

        The pairs :meth:`scan` yields, cut at ``limit`` (``None`` = no
        cut; it must be at least 1), read as one slice of the index:
        passing the last key of one page as ``cursor`` yields the next
        page, and a bounded scan reads no more than ``limit`` pairs
        however large the prefix range is.
        """
        check_limit(limit)
        index, lo, hi = self._range(prefix, cursor)
        if limit is not None:
            hi = min(hi, lo + limit)
        data = self._data
        return [(key, data[key]) for key in index[lo:hi]]

    def pcount(self, prefix: str) -> int:
        """Number of keys under ``prefix``, without materializing them."""
        _, lo, hi = self._range(prefix)
        return hi - lo

    def keys(self, prefix: str = "") -> list[str]:
        """Every key under ``prefix`` (default: every key), sorted: one
        slice of the index."""
        index, lo, hi = self._range(prefix)
        return index[lo:hi]

    def clear(self) -> None:
        """Drop every pair."""
        self._data = {}
        self._pins = 0
        self._sorted_keys = None
        self._added = self._removed = None
        self.writes += 1

    def load(self, pairs: Iterable[tuple[str, bytes]]) -> None:
        """:meth:`put` each ``(key, value)`` of ``pairs``, in order."""
        for k, v in pairs:
            self.put(k, v)


_STR = frozenset({str})
_BYTES = frozenset({bytes})


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
