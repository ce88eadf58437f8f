"""HDD base tier + SSD cache tier (the DIESEL server cache, Fig 4).

The SSD copies live in one :class:`~repro.sim.resources.Residency`,
kept in the order of last reads.

* **Budget:** ``ssd_capacity_bytes``, less the bytes fills in flight
  have claimed (``_reserved``): space is claimed when a fill starts.
* **Admission:** a miss is served by the HDD and returns as soon as the
  requested bytes are read; one background fill per key writes the SSD
  copy behind it ("the server will start to cache the dataset in the
  background").  Free space always admits; otherwise the candidate must
  have been read three times since the least recently read resident was
  last read (the LRU-3 test over ``_reads``).  An epoch sweep shows at
  most two such reads, so a dataset larger than the tier pins a subset
  instead of rewriting the SSD every epoch, while a new working set
  takes the tier over on its third pass.
* **Protection:** a resident read since the candidate's third-last
  read.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import takewhile
from typing import Any, Generator, Iterable, Optional

from repro.cluster.devices import Device
from repro.objectstore.store import ObjectStore
from repro.obs.counters import Counters
from repro.sim.engine import Event, Process
from repro.sim.resources import Residency

#: Read history of a key nobody has read yet.
_NEVER = (0, 0, 0)


@dataclass(slots=True)
class TieredStats(Counters):
    ssd_hits: int = 0
    ssd_misses: int = 0
    #: Fills that installed their object on the SSD tier.
    promotions: int = 0
    evictions: int = 0
    #: Fills the admission guard turned down (nothing was written).
    rejections: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.ssd_hits + self.ssd_misses
        return self.ssd_hits / total if total else 0.0


class TieredStore:
    """An object store facade over an SSD cache and an HDD base."""

    def __init__(
        self,
        ssd: Device,
        hdd: Device,
        ssd_capacity_bytes: float = 1 * 2**40,
        promote_on_miss: bool = True,
    ) -> None:
        if ssd_capacity_bytes <= 0:
            raise ValueError("ssd capacity must be positive")
        self.ssd = ssd
        self.hdd = hdd
        self.ssd_capacity_bytes = ssd_capacity_bytes
        self.promote_on_miss = promote_on_miss
        self._base = ObjectStore(hdd)
        #: Objects readable from the SSD tier: key -> (None, size).  Its
        #: flights are the fill processes in flight.
        self.cache = Residency(hdd.env)
        #: SSD bytes the fills in flight have claimed.
        self._reserved = 0
        #: Logical-clock ticks of each key's last three reads, newest
        #: first, ordered least recently read key first.  Holds residents
        #: and the non-resident keys read since the oldest of them.
        self._reads: "OrderedDict[str, tuple[int, int, int]]" = OrderedDict()
        self._tick = 0
        self.stats = TieredStats()

    # -- base tier -----------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._base

    def __len__(self) -> int:
        return len(self._base)

    def peek(self, key: str) -> bytes:
        return self._base.peek(key)

    def head(self, key: str) -> bytes:
        """The base object's first bytes (see :meth:`ObjectStore.head`)."""
        return self._base.head(key)

    def object_size(self, key: str) -> int:
        return self._base.object_size(key)

    def list_keys(self, after: Optional[str] = None) -> list[str]:
        return self._base.list_keys(after)

    def size_bytes(self) -> int:
        return self._base.size_bytes()

    def load(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Bulk-populate the base tier without simulated cost (fixtures)."""
        self._base.load(items)

    def put(self, key: str, data: bytes) -> Generator[Event, Any, None]:
        """Write to the base tier (writes go to HDD; the cache fills on
        read).  A cached copy of the key's old bytes is dropped."""
        yield from self._base.put(key, data)
        self.cache.pop(key)

    def put_journaled(self, key: str, data: bytes):
        """Write-back put (see :meth:`ObjectStore.put_journaled`)."""
        flush = self._base.put_journaled(key, data)
        self.cache.pop(key)
        return flush

    def patch(self, key: str, head: bytes) -> Generator[Event, Any, None]:
        """In-place rewrite of the object's first bytes on the base tier
        (see :meth:`ObjectStore.patch`); the cached copy is dropped
        rather than rewritten."""
        yield from self._base.patch(key, head)
        self.cache.pop(key)

    def delete(self, key: str) -> Generator[Event, Any, None]:
        """Remove the object from both tiers."""
        yield from self._base.delete(key)
        self.cache.pop(key)
        self._reads.pop(key, None)

    # -- SSD tier ------------------------------------------------------------
    def in_ssd(self, key: str) -> bool:
        return key in self.cache.entries

    def ssd_used_bytes(self) -> int:
        return self.cache.bytes

    def _touch(self, key: str) -> bool:
        """Note one read of ``key``; returns whether the SSD serves it."""
        reads, cache = self._reads, self.cache.entries
        self._tick += 1
        last, prev, _ = reads.pop(key, _NEVER)
        reads[key] = (self._tick, last, prev)
        if cache:
            # A history older than every resident's last read can never
            # win admission again: forget it.
            while next(iter(reads)) not in cache:
                reads.popitem(last=False)
        hit = self.cache.get(key) is not None
        if hit:
            self.stats.ssd_hits += 1
        else:
            self.stats.ssd_misses += 1
        return hit

    def _reserve(self, key: str, size: int) -> bool:
        """Claim ``size`` SSD bytes for ``key``, evicting least recently
        read residents only if ``key`` was read three times since each of
        them was last read."""
        cache = self.cache
        need = cache.bytes + self._reserved + size - self.ssd_capacity_bytes
        if need > 0:
            reads = self._reads
            third_last = reads.get(key, _NEVER)[2]
            victims = cache.victims(
                need, lambda other: reads[other][0] >= third_last)
            if sum(cache.entries[v][1] for v in victims) < need:
                return False
            for other in victims:
                cache.pop(other)
                self.stats.evictions += 1
        self._reserved += size
        return True

    def _start_fill(
        self, key: str, data: bytes, have: int
    ) -> Optional[Process]:
        """The one way onto the SSD tier: the fill in flight for ``key``
        (its value: whether it installed the object), or ``None`` when
        the object is resident or admission said no.  ``have`` is how
        many of ``data``'s bytes the caller has just read from the HDD;
        the fill reads the rest, so it writes nothing it has not read."""
        flights = self.cache.flights
        proc = flights.get(key)
        if proc is not None:
            return proc
        if key in self.cache.entries:
            return None
        if not self._reserve(key, len(data)):
            self.stats.rejections += 1
            return None
        proc = flights[key] = self.hdd.env.process(
            self._fill(key, data, have), name=f"fill:{key}"
        )
        return proc

    def _fill(
        self, key: str, data: bytes, have: int
    ) -> Generator[Event, Any, bool]:
        size = len(data)
        try:
            if have < size:
                yield from self.hdd.read(size - have)
            yield from self.ssd.write(size)
        finally:
            self._reserved -= size
            del self.cache.flights[key]
        # Deleted or replaced while the fill ran: the copy is stale.
        if key not in self._base or self._base.peek(key) is not data:
            return False
        reads, cache = self._reads, self.cache
        if key not in reads:
            # Filled without ever being read: first in line to go.
            reads[key] = _NEVER
            reads.move_to_end(key, last=False)
        # Residents read since ``key`` was last read stay behind it.
        later = list(takewhile(lambda other: other != key, reversed(reads)))
        cache.add(key, None, size)
        for other in reversed(later):
            if other in cache.entries:
                cache.entries.move_to_end(other)
        self.stats.promotions += 1
        return True

    def get(self, key: str) -> Generator[Event, Any, bytes]:
        """Read an object through the tier hierarchy."""
        data = yield from self.get_range(key, 0, self._base.object_size(key))
        return data

    def get_range(
        self, key: str, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        """Range read through the tiers.

        A miss fills the *whole* object (Fig 4: "if a cache miss occurs
        on the server-side, the server will start to cache the dataset"),
        so subsequent small reads of the same chunk hit SSD.
        """
        data = self._base.peek(key)
        if offset < 0 or length < 0 or offset + length > len(data):
            raise ValueError("range outside object")
        if self._touch(key):
            yield from self.ssd.read(length)
        else:
            yield from self.hdd.read(length)
            if self.promote_on_miss:
                self._start_fill(key, data, length)
        return data[offset : offset + length]
