"""HDD base tier + SSD cache tier (the DIESEL server cache, Fig 4).

Reads check the SSD tier first.  A miss is served by the HDD and returns
as soon as the HDD has delivered the requested bytes; the SSD copy is
written *behind* it by one background :meth:`TieredStore.fill` per key
("the server will start to cache the dataset in the background"), so a
read never waits on the cache tier.

Admission is scan resistant.  Free space always admits.  Otherwise the
candidate has to have been read three times since the least recently
read resident object was last read: an epoch sweep (every object once
per epoch, fresh random order) can show two such reads but never three,
so a dataset larger than the tier converges to a pinned subset instead
of rewriting the SSD every epoch, while a new working set takes the
tier over on its third pass, however long the old one was pinned.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generator, Iterable, Optional

from repro.cluster.devices import Device
from repro.objectstore.store import ObjectStore
from repro.obs.counters import Counters
from repro.sim.engine import Event, Process

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
        #: Objects readable from the SSD tier (key -> size).
        self._resident: dict[str, int] = {}
        self._used = 0
        #: Fills in flight (single flight per key) and the SSD bytes they
        #: hold: space is claimed when a fill starts, so it cannot be
        #: promised twice.
        self._filling: dict[str, Process] = {}
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
        self._drop(key)

    def put_journaled(self, key: str, data: bytes):
        """Write-back put (see :meth:`ObjectStore.put_journaled`)."""
        flush = self._base.put_journaled(key, data)
        self._drop(key)
        return flush

    def patch(
        self, key: str, data: bytes, rewritten: int
    ) -> Generator[Event, Any, None]:
        """In-place rewrite on the base tier (see ObjectStore.patch); the
        cached copy is dropped rather than rewritten."""
        yield from self._base.patch(key, data, rewritten)
        self._drop(key)

    def delete(self, key: str) -> Generator[Event, Any, None]:
        """Remove the object from both tiers."""
        yield from self._base.delete(key)
        self._drop(key)
        self._reads.pop(key, None)

    # -- SSD tier ------------------------------------------------------------
    def in_ssd(self, key: str) -> bool:
        return key in self._resident

    def ssd_used_bytes(self) -> int:
        return self._used

    def _drop(self, key: str) -> None:
        size = self._resident.pop(key, None)
        if size is not None:
            self._used -= size

    def _touch(self, key: str) -> bool:
        """Note one read of ``key``; returns whether the SSD serves it."""
        reads = self._reads
        self._tick += 1
        last, prev, _ = reads.pop(key, _NEVER)
        reads[key] = (self._tick, last, prev)
        if self._resident:
            # A history older than every resident's last read can never
            # win admission again: forget it.
            while next(iter(reads)) not in self._resident:
                reads.popitem(last=False)
        hit = key in self._resident
        if hit:
            self.stats.ssd_hits += 1
        else:
            self.stats.ssd_misses += 1
        return hit

    def _reserve(self, key: str, size: int) -> bool:
        """Claim ``size`` SSD bytes for ``key``, evicting least recently
        read residents only if ``key`` was read three times since each of
        them was last read."""
        need = self._used + self._reserved + size - self.ssd_capacity_bytes
        victims = []
        if need > 0:
            third_last = self._reads.get(key, _NEVER)[2]
            for other, (last, _, _) in self._reads.items():
                if last >= third_last:
                    break
                other_size = self._resident.get(other)
                if other_size is not None:
                    victims.append(other)
                    need -= other_size
                    if need <= 0:
                        break
            if need > 0:
                return False
        for other in victims:
            self._drop(other)
            self.stats.evictions += 1
        self._reserved += size
        return True

    def fill(self, key: str) -> Optional[Process]:
        """Cache ``key`` on the SSD tier in the background.

        Returns the fill's process (its value: whether the object was
        installed) — the one already in flight for ``key`` if there is
        one — or ``None`` when there is nothing to start: the object is
        resident, or admission said no.
        """
        return self._start_fill(key, self._base.peek(key), 0)

    def _start_fill(
        self, key: str, data: bytes, have: int
    ) -> Optional[Process]:
        """The one way onto the SSD tier.  ``have`` is how many of
        ``data``'s bytes the caller has just read from the HDD; the fill
        reads the rest, so it writes nothing it has not read."""
        proc = self._filling.get(key)
        if proc is not None:
            return proc
        if key in self._resident:
            return None
        if not self._reserve(key, len(data)):
            self.stats.rejections += 1
            return None
        proc = self._filling[key] = self.hdd.env.process(
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
            del self._filling[key]
        # Deleted or replaced while the fill ran: the copy is stale.
        if key not in self._base or self._base.peek(key) is not data:
            return False
        self._resident[key] = size
        self._used += size
        if key not in self._reads:
            # Filled without ever being read: first in line to go.
            self._reads[key] = _NEVER
            self._reads.move_to_end(key, last=False)
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
