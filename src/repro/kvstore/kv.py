"""A single key-value instance: the table and the shard that holds it."""

from __future__ import annotations

import bisect
import heapq
from itertools import filterfalse
from typing import Iterator, Optional, Sequence

from repro.errors import KeyNotFoundError
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment


class KVTable:
    """An in-memory ordered-scan key-value table (keys: str, values: bytes).

    ``pscan`` (scan-with-prefix, §4.1.1) returns matching pairs in key
    order from a sorted key index that is kept across writes.  The index
    is a few sorted *runs* of keys, the eldest and largest first (a
    small log-structured merge): a key put since the last scan waits in
    a set, and the next scan sorts those keys into a new youngest run,
    merging each run into its elder while it is at least half as large.
    A key deleted since it was indexed stays in its run and waits in a
    second set: each scan drops such keys from the slice it reads, and
    they are cut out only when every run has merged into one (or they
    grow to a quarter of it).  Each write is an O(1) step; a scan reads
    one slice per run, so a narrow scan after writes costs the sort of
    the keys written since, not a fold of the whole index.
    :attr:`writes` counts every put, delete and clear, so a reader can
    tell that nothing changed since it last looked.
    """

    #: Keys put since the last scan, in no run yet; keys deleted since
    #: their run was sorted.  ``None`` when there are none (class-level,
    #: so a new table allocates nothing more than before).
    _added: Optional[set[str]] = None
    _removed: Optional[set[str]] = None
    #: Lazy scans (:meth:`scan`) started on ``_data`` and not finished:
    #: while there are any, a write first copies ``_data``, so each
    #: scan reads the pairs it started on.
    _pins = 0

    def __init__(self) -> None:
        self._data: dict[str, bytes] = {}
        #: The index's sorted runs, eldest first; ``None`` until the
        #: first scan.  A run is never changed once published (a merge
        #: makes a new list), so a running scan keeps reading its own.
        self._runs: Optional[list[list[str]]] = None
        #: Mutations so far (put, delete, clear); never decreases.
        self.writes = 0

    def __len__(self) -> int:
        """Number of keys held."""
        return len(self._data)

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
        if self._runs is not None and key not in data:
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
        if self._runs is not None:
            new = set(keys).difference(data)
            removed = self._removed
            if new and removed:  # deleted since indexed: in a run still
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
        if self._runs is not None:
            added = self._added
            if added and key in added:
                added.discard(key)
            elif self._removed is None:
                self._removed = {key}
            else:
                self._removed.add(key)
        self.writes += 1

    def _index(self) -> list[list[str]]:
        """The index's runs, the keys put since the last scan sorted in
        as the youngest, merged as the class docstring says."""
        runs = self._runs
        if runs is None:
            runs = self._runs = [sorted(self._data)]
            return runs
        removed = self._removed
        crowded = bool(removed) and 4 * len(removed) >= len(runs[0])
        if not self._added and not crowded:
            return runs
        runs = runs[:]  # the container changes; the published runs do not
        if self._added:
            runs.append(sorted(self._added))
            self._added = None
        while len(runs) > 1 and (crowded or 2 * len(runs[-1]) >= len(runs[-2])):
            young = runs.pop()
            merged = runs.pop() + young
            merged.sort()  # two sorted runs: one merge
            runs.append(merged)
        if len(runs) == 1 and removed:
            runs[0] = list(filterfalse(removed.__contains__, runs[0]))
            self._removed = None
        self._runs = runs
        return runs

    def _slices(
        self, prefix: str, cursor: Optional[str] = None
    ) -> list[tuple[list[str], int, int]]:
        """``(run, lo, hi)`` per run whose ``run[lo:hi]`` holds keys under
        ``prefix`` (past ``cursor`` when one is given); deleted keys
        still in a run are among them."""
        bound = _upper_bound(prefix)
        slices = []
        for run in self._index():
            lo = bisect.bisect_left(run, prefix)
            if cursor is not None:
                lo = max(lo, bisect.bisect_right(run, cursor))
            hi = len(run) if bound is None else bisect.bisect_left(run, bound, lo)
            if lo < hi:
                slices.append((run, lo, hi))
        return slices

    def _keys_in(
        self,
        prefix: str,
        cursor: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[str]:
        """The held keys under ``prefix`` past ``cursor``, sorted, the
        first ``limit`` of them: read from one slice per run, no longer
        than ``limit`` plus the deleted keys still in a run."""
        slices = self._slices(prefix, cursor)
        removed = self._removed
        if limit is not None:
            most = limit + len(removed or ())
            slices = [(run, lo, min(hi, lo + most)) for run, lo, hi in slices]
        if len(slices) == 1:
            run, lo, hi = slices[0]
            keys = run[lo:hi]
        else:
            keys = []
            for run, lo, hi in slices:
                keys += run[lo:hi]
            keys.sort()  # one sorted run per slice
        if removed:
            keys = list(filterfalse(removed.__contains__, keys))
        return keys if limit is None else keys[:limit]

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
        slices = self._slices(prefix, cursor)
        data = self._data
        self._pins += 1
        try:
            runs = [map(run.__getitem__, range(lo, hi)) for run, lo, hi in slices]
            keys = runs[0] if len(runs) == 1 else heapq.merge(*runs)
            if self._removed:  # ``data`` is pinned: it holds what is live
                keys = filter(data.__contains__, keys)
            for key in keys:
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
        cut; it must be at least 1), read as one slice of each run of
        the index: passing the last key of one page as ``cursor`` yields
        the next page, and a bounded scan reads no more than ``limit``
        pairs (and the deleted keys a run still holds) however large the
        prefix range is.
        """
        check_limit(limit)
        data = self._data
        return [(key, data[key]) for key in self._keys_in(prefix, cursor, limit)]

    def pcount(self, prefix: str) -> int:
        """Number of keys under ``prefix``, without materializing them."""
        held = sum(hi - lo for _, lo, hi in self._slices(prefix))
        removed = self._removed
        if removed:
            held -= sum(1 for key in removed if key.startswith(prefix))
        return held

    def keys(self, prefix: str = "") -> list[str]:
        """Every key under ``prefix`` (default: every key), sorted: one
        slice of each run of the index."""
        return self._keys_in(prefix)

    def clear(self) -> None:
        """Drop every pair."""
        self._data = {}
        self._pins = 0
        self._runs = None
        self._added = self._removed = None
        self.writes += 1


_MAX_CHAR = chr(0x10FFFF)


def _upper_bound(prefix: str) -> Optional[str]:
    """The least string above every string that starts with ``prefix``,
    ``None`` when there is none: the prefix with its trailing
    ``U+10FFFF`` dropped and its last character bumped."""
    stem = prefix.rstrip(_MAX_CHAR)
    if not stem:
        return None
    return stem[:-1] + chr(ord(stem[-1]) + 1)


_STR = frozenset({str})
_BYTES = frozenset({bytes})


def check_limit(limit: Optional[int]) -> Optional[int]:
    """``limit`` if it is ``None`` or at least 1, else ``ValueError``: a
    page of a paginated scan holds one pair or more."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return limit


class KVInstance:
    """One KV server (e.g. one Redis instance) attached to a node.

    The server reaches the table in-process (``ShardedKV.local_*``) and
    charges the cluster's closed-form cost itself; ``endpoint`` carries
    no call.  It is the instance's liveness: it goes down with its node
    and comes back with :meth:`restart`.
    """

    def __init__(
        self, env: Environment, fabric: NetworkFabric, node: Node, name: str
    ) -> None:
        self.env = env
        self.node = node
        self.name = name
        self.table = KVTable()
        self.endpoint = RpcEndpoint(env, fabric, node, name, handler=None)

    @property
    def up(self) -> bool:
        """Whether the instance's endpoint is serving."""
        return self.endpoint.up

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
