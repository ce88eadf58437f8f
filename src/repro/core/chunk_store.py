"""What a node chunk tier keeps its chunks in: a RAM
:class:`~repro.sim.resources.Residency` over an optional simulated-NVMe
one (``SharedCacheRegistry(store="ram" | "tiered")``), both holding the
tier's reference entries as values.

* **RAM — budget:** ``node.memory``.  **Admission** and
  **protection** are the node tier's; :meth:`ChunkStore.put` files a
  chunk here when memory covers it.
* **Disk — budget:** ``capacity_bytes`` of *stored* bytes (0 =
  unbounded), less what writes in flight have claimed (``_reserved``).
  **Admission:** what RAM cannot cover overflows here, and what the
  node tier displaces is demoted here; a disk read promotes back to RAM
  when memory covers the chunk after the read.
  **Protection:** the node tier's rule, and a move in flight.

The disk is a :class:`~repro.cluster.devices.Device` at
``DISK_LATENCY_S`` / ``DISK_BANDWIDTH_BPS``.  With ``compression`` a
chunk is stored at a deterministic per-chunk ratio
(:func:`compression_ratio`), paying compress on write and decompress on
read; payload bytes are never transformed.  A move (promote / demote)
files its result only if the entry it started from is still resident.
A node crash forgets RAM without returning memory; the disk survives.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple

from repro.cluster.devices import Device
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event
from repro.sim.resources import Residency

#: Per-operation latency of the simulated node-local NVMe tier.
#: Higher than the storage cluster's 27.7 µs (Table 2): one commodity
#: drive behind a filesystem, not a striped all-flash array.
DISK_LATENCY_S = 8e-05
#: Streaming bandwidth of the disk tier: 2 GiB/s — a single
#: local NVMe, deliberately slower than the 3.3 GB/s aggregated
#: storage-cluster profile so the tier ordering RAM > disk > backend
#: holds.
DISK_BANDWIDTH_BPS = 2147483648.0
#: Simulated compressor throughput (LZ4-class: fast, asymmetric).
COMPRESS_BPS = 1.5 * 2**30
#: Simulated decompressor throughput (decompression is ~4× cheaper).
DECOMPRESS_BPS = 6.0 * 2**30
#: Per-chunk compression-ratio band.  Packed small-file datasets (JPEG
#: + labels + headers) compress unevenly; FanStore reports ~1.4–3.6×
#: across TensorFlow training sets.
MIN_COMPRESSION_RATIO = 1.4
MAX_COMPRESSION_RATIO = 3.6


def compression_ratio(key: str, seed: int = 0) -> float:
    """Deterministic per-chunk compression ratio in [1.4, 3.6].

    Seeded from the chunk key via ``zlib.crc32`` — *not* the builtin
    ``hash()``, which is process-seeded and would break run-to-run
    determinism.
    """
    h = zlib.crc32(f"{seed}:{key}".encode())
    frac = (h % 1000) / 999.0
    return MIN_COMPRESSION_RATIO + frac * (
        MAX_COMPRESSION_RATIO - MIN_COMPRESSION_RATIO
    )


@dataclass(slots=True)
class ChunkStoreStats(Counters):
    """Tier counters and residency gauges (the bench-reporting seam).

    Counters and ``disk_bytes`` move as the store runs; the other gauges
    are read off the residencies on every :attr:`ChunkStore.stats`
    access.
    """

    #: Lookups served from the RAM tier.
    ram_hits: int = 0
    #: Lookups served from the disk tier (read-through or promotion).
    disk_hits: int = 0
    #: Disk-resident chunks moved back to RAM on access.
    promotions: int = 0
    #: RAM-resident chunks pushed to disk under memory pressure.
    demotions: int = 0
    #: Admissions that went straight to disk (RAM could not cover them).
    disk_admits: int = 0
    #: Chunks dropped from the disk tier to make room (capacity bound).
    disk_evictions: int = 0
    #: Chunks compressed on their way to disk.
    compress_ops: int = 0
    bytes_demoted: int = 0
    bytes_promoted: int = 0
    #: Gauges.  ``disk_bytes`` is logical chunk bytes;
    #: ``disk_stored_bytes`` is post-compression on-disk.
    ram_bytes: int = 0
    disk_bytes: int = 0
    disk_stored_bytes: int = 0
    chunks_ram: int = 0
    chunks_disk: int = 0


class ChunkStore:
    """RAM + optional simulated-NVMe residencies for one node.

    ``ram`` maps a key to ``(value, nbytes)``; ``disk`` to
    ``((value, nbytes), stored_bytes)``, so its book counts stored bytes.
    ``ram.flights`` are the owner's admissions in flight, ``disk.flights``
    the moves between the two.  ``spare(value)`` arguments are the
    owner's protection rule.  Reads are chunk-granular: a disk hit
    charges the whole stored chunk.
    """

    def __init__(
        self,
        env: Environment,
        node,
        kind: str = "ram",
        disk_tier_bytes: int = 0,
        compression: bool = False,
    ) -> None:
        if kind not in ("ram", "tiered"):
            raise ValueError(
                f"store must be 'ram' or 'tiered', got {kind!r}"
            )
        if disk_tier_bytes < 0:
            raise ValueError("disk_tier_bytes must be >= 0 (0 = unbounded)")
        self.env = env
        self.node = node
        self.kind = kind
        self.ram = Residency(env)
        self.disk = Residency(env)
        #: Disk-tier capacity in *stored* bytes (0 = unbounded).
        self.capacity_bytes = disk_tier_bytes
        #: Stored bytes the disk writes in flight have claimed (bounded
        #: tier only).
        self._reserved = 0
        self.compression = compression
        #: The NVMe tier's queueing station; ``None`` = no disk tier.
        self.device = Device(
            env, f"nvme:{node.name}", DISK_LATENCY_S, DISK_BANDWIDTH_BPS,
            queue_depth=4,
        ) if kind == "tiered" else None
        self._stats = ChunkStoreStats()
        #: Attached observability recorder (None = disabled).
        self.recorder = None

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> ChunkStoreStats:
        """Counters with the residency gauges read off the books."""
        s = self._stats
        s.ram_bytes, s.chunks_ram = self.ram.bytes, len(self.ram.entries)
        s.disk_stored_bytes = self.disk.bytes
        s.chunks_disk = len(self.disk.entries)
        return s

    def tier_of(self, key: str) -> Optional[str]:
        """``"ram"`` / ``"disk"`` / ``None``."""
        if key in self.ram.entries:
            return "ram"
        if key in self.disk.entries:
            return "disk"
        return None

    def lookup(self, key: str) -> Optional[Tuple[Any, int]]:
        """``(value, nbytes)`` of a chunk on either tier, recency untouched."""
        item = self.ram.entries.get(key)
        if item is None:
            on_disk = self.disk.entries.get(key)
            item = on_disk[0] if on_disk is not None else None
        return item

    def stored_size(self, key: str, nbytes: int) -> int:
        """On-disk footprint of a chunk (post-compression when enabled)."""
        if not self.compression:
            return nbytes
        return max(1, int(nbytes / compression_ratio(key)))

    def get(self, key: str) -> Optional[Tuple[Any, int]]:
        """A RAM hit: ``(value, nbytes)``, free, recency refreshed;
        ``None`` off RAM (:meth:`load` charges the disk read)."""
        item = self.ram.get(key)
        if item is not None:
            self._stats.ram_hits += 1
            rec = self.recorder
            if rec is not None:
                rec.count("tier_hit", "ram")
        return item

    # -------------------------------------------------------------- admission
    def _fit_disk(self, stored: int, spare: Callable[[Any], bool]) -> bool:
        """Claim ``stored`` bytes on the disk tier for one write, evicting
        least recently used chunks neither ``spare`` nor a move protects;
        :meth:`_write_disk` releases the claim when the write settles."""
        if self.device is None:
            return False
        if self.capacity_bytes <= 0:
            return True
        if stored > self.capacity_bytes:
            return False
        disk = self.disk
        need = disk.bytes + self._reserved + stored - self.capacity_bytes
        rec = self.recorder
        for victim in disk.victims(need, lambda key: (
            key in disk.flights or spare(disk.entries[key][0][0])
        )):
            self._drop_disk(victim)
            self._stats.disk_evictions += 1
            if rec is not None:
                rec.count("tier_evict", "disk")
        if disk.bytes + self._reserved + stored > self.capacity_bytes:
            return False
        self._reserved += stored
        return True

    def _write_disk(
        self, nbytes: int, stored: int
    ) -> Generator[Event, Any, None]:
        """Charge the compress + device-write cost of one chunk admitted
        by :meth:`_fit_disk`, then release its claim."""
        try:
            if self.compression:
                yield self.env.timeout(nbytes / COMPRESS_BPS)
                self._stats.compress_ops += 1
                rec = self.recorder
                if rec is not None:
                    rec.count("tier_compress", "disk")
            yield from self.device.write(stored)
        finally:
            if self.capacity_bytes > 0:
                self._reserved -= stored

    def put(
        self, key: str, value: Any, nbytes: int, spare: Callable[[Any], bool]
    ) -> Generator[Event, Any, Optional[str]]:
        """Admit a chunk: RAM if memory covers it, else overflow to disk.

        Returns the tier the chunk landed on, or ``None`` when both
        refused — the owner frees memory first (it displaces victims).
        """
        if self.node.memory.level >= nbytes:
            yield self.node.memory.get(nbytes)
            self.ram.add(key, value, nbytes)
            return "ram"
        stored = self.stored_size(key, nbytes)
        if not self._fit_disk(stored, spare):
            return None
        yield from self._write_disk(nbytes, stored)
        self.disk.add(key, (value, nbytes), stored)
        self._stats.disk_bytes += nbytes
        self._stats.disk_admits += 1
        rec = self.recorder
        if rec is not None:
            rec.count("tier_admit", "disk")
        return "disk"

    # ------------------------------------------------------- promote / demote
    def load(
        self, key: str
    ) -> Generator[Event, Any, Optional[Tuple[Any, int]]]:
        """Serve a chunk from either tier: a disk hit charges one device
        read of the stored bytes (+ decompress) and is promoted to RAM
        when memory covers it after the read."""
        got = self.get(key)
        while got is None and key in self.disk.entries:
            running = self.disk.claim(key)
            if running is None:
                try:
                    return (yield from self._promote(key))
                finally:
                    self.disk.settle(key)
            yield running
            got = self.get(key)
        return got

    def _promote(self, key: str) -> Generator[Event, Any, Tuple[Any, int]]:
        entry = self.disk.get(key)
        (value, nbytes), stored = entry
        t0 = self.env.now
        yield from self.device.read(stored)
        if self.compression:
            yield self.env.timeout(nbytes / DECOMPRESS_BPS)
        self._stats.disk_hits += 1
        rec = self.recorder
        if rec is not None:
            rec.count("tier_hit", "disk")
        if self.node.alive and self.node.memory.level >= nbytes:
            yield self.node.memory.get(nbytes)
            if self.disk.entries.get(key) is not entry:
                self.node.memory.put(nbytes)  # cleared meanwhile
                return entry[0]
            self._drop_disk(key)
            self.ram.add(key, value, nbytes)
            self._stats.promotions += 1
            self._stats.bytes_promoted += nbytes
            if rec is not None:
                rec.record("tier_promote", "disk",
                           self.env.now - t0, nbytes=nbytes)
        return entry[0]

    def displace(
        self, key: str, spare: Callable[[Any], bool]
    ) -> Generator[Event, Any, Optional[str]]:
        """Demote a RAM-resident chunk to disk (evict only as last resort).

        Racing a move of the same chunk waits for it to settle, then
        reports the settled tier.  Returns ``"disk"`` (demoted),
        ``"evicted"`` (no disk room) or the tier the chunk is on —
        ``None`` once it was forgotten meanwhile (``clear``, a crash).
        """
        running = self.disk.flights.get(key)
        if running is not None:
            yield running
            return self.tier_of(key) or "evicted"
        item = self.ram.entries.get(key)
        if item is None:
            return self.tier_of(key) or "evicted"
        nbytes = item[1]
        stored = self.stored_size(key, nbytes)
        if not self._fit_disk(stored, spare):
            self.drop(key)
            return "evicted"
        self.disk.claim(key)
        try:
            t0 = self.env.now
            yield from self._write_disk(nbytes, stored)
            if self.ram.entries.get(key) is not item:
                return self.tier_of(key)
            self.ram.pop(key)
            if self.node.alive:
                self.node.memory.put(nbytes)
            self.disk.add(key, item, stored)
            self._stats.disk_bytes += nbytes
            self._stats.demotions += 1
            self._stats.bytes_demoted += nbytes
            rec = self.recorder
            if rec is not None:
                rec.record("tier_demote", "disk",
                           self.env.now - t0, nbytes=nbytes)
            return "disk"
        finally:
            self.disk.settle(key)

    # ---------------------------------------------------------------- removal
    def _drop_disk(self, key: str) -> None:
        entry = self.disk.pop(key)
        if entry is not None:
            self._stats.disk_bytes -= entry[0][1]

    def drop(self, key: str) -> None:
        """Forget a chunk, returning its memory if it was RAM-resident."""
        item = self.ram.pop(key)
        if item is None:
            self._drop_disk(key)
        elif self.node.alive:
            self.node.memory.put(item[1])

    def clear(self) -> None:
        """Forget everything, returning RAM (graceful teardown)."""
        for key in list(self.ram.entries):
            self.drop(key)
        self.disk.clear()
        self._stats.disk_bytes = 0

    def crash(self) -> int:
        """Node died: forget RAM *without* returning memory (the memory
        container died with the node); the disk tier *survives* —
        recovery warm-admits the survivors by reference instead of
        re-fetching them from the backend.  Returns chunks lost."""
        n = len(self.ram.entries)
        self.ram.clear()
        return n
