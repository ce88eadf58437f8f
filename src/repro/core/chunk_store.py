"""The chunk-residency store: a RAM tier + an optional simulated-NVMe tier.

What a node chunk tier (:mod:`repro.core.shared_cache`) keeps its
resident chunks *in*.  A bare in-memory map charged against the node's
memory ``Container`` makes "dataset larger than aggregate RAM"
inexpressible: once memory runs out, every further chunk stays
server-resident forever.  :class:`ChunkStore` puts the residency
decision in one place; the registry picks its shape
(``SharedCacheRegistry(env, store=...)``):

* ``"ram"`` — no disk tier: chunks live in node memory in LRU order; a
  chunk that does not fit is refused (``put`` returns ``None``) and
  stays server-resident, and ``displace`` can only evict.
* ``"tiered"`` — adds a simulated node-local NVMe tier (a
  :class:`~repro.cluster.devices.Device` queueing station at
  ``DISK_LATENCY_S`` / ``DISK_BANDWIDTH_BPS``, capacity from
  ``disk_tier_bytes``).  Admissions overflow RAM→disk, cold chunks are
  *demoted* to disk under memory pressure
  (:meth:`~ChunkStore.displace`), and disk-resident chunks are
  *promoted* back to RAM on access when memory allows — otherwise the
  read streams through without displacing the RAM working set.

Optional **transparent chunk compression** (``chunk_compression=True``,
FanStore-style) shrinks what the disk tier stores and transfers: each
chunk gets a deterministic per-chunk ratio seeded from its key
(:func:`compression_ratio`), writes pay a modeled compress cost and
reads a (much cheaper) decompress cost — trading CPU time for capacity
and disk bandwidth.  Chunk *payload bytes are never transformed*; only
the simulated costs and stored-byte accounting change, so checksums and
reads behave identically either way.

The store publishes :class:`ChunkStoreStats` and emits ``tier_hit``
(ram/disk), ``tier_promote`` / ``tier_demote`` / ``tier_compress``
spans through an attached :class:`~repro.obs.SpanRecorder`.

Crash semantics mirror real hardware: :meth:`~ChunkStore.crash` forgets
RAM without returning memory (the container died with the node), while
the disk tier's contents *survive* — recovery re-admits survivors by
reference instead of re-fetching them from the backend.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cluster.devices import Device
from repro.core.chunk import Chunk
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event

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

    Cumulative counters and the byte gauges move as the store runs;
    the chunk counts are refreshed on every :attr:`ChunkStore.stats`
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
    """RAM + optional simulated-NVMe tiers with transparent compression.

    Chunks are charged against ``node.memory`` and kept in LRU order.
    All cost-bearing methods (``put`` / ``load`` / ``displace``) are
    generators; without a disk tier only ``put`` ever yields (the
    memory ``Container.get``).

    Placement policy:

    * :meth:`put` fills RAM first; when memory cannot cover the chunk
      it overflows to disk (paying compress + device write), and only
      refuses when there is no disk tier or it is full of unevictable
      chunks too.
    * :meth:`displace` *demotes* RAM→disk under memory pressure instead
      of dropping, so a cold chunk costs a disk read later — not a full
      backend re-fetch; without disk room it evicts.
    * :meth:`load` serves disk-resident chunks by charging a device
      read (+ decompress); when node memory allows, the chunk is
      *promoted* back to RAM, otherwise it streams through and stays
      disk-resident (a scan larger than RAM cannot thrash the tier).

    Concurrent promote/demote of one chunk is single-flighted through
    ``_moving``: the second mover waits for the first and then re-reads
    the (settled) tier state instead of racing the byte accounting.
    Reads are chunk-granular — one file read from a disk-resident chunk
    charges the whole stored chunk, the same unit the backend fetch
    path uses.
    """

    def __init__(
        self,
        env: Environment,
        node,
        kind: str = "ram",
        disk_tier_bytes: int = 0,
        compression: bool = False,
        on_evict=None,
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
        #: key → (chunk, nbytes) in LRU order (oldest first).
        self._ram: "OrderedDict[str, Tuple[Chunk, int]]" = OrderedDict()
        #: Disk-tier capacity in *stored* bytes (0 = unbounded).
        self.capacity_bytes = disk_tier_bytes
        self.compression = compression
        #: The NVMe tier's queueing station; ``None`` = no disk tier.
        self.device = Device(
            env, f"nvme:{node.name}", DISK_LATENCY_S, DISK_BANDWIDTH_BPS,
            queue_depth=4,
        ) if kind == "tiered" else None
        #: key → (chunk, nbytes, stored_bytes) in LRU order.
        self._disk: "OrderedDict[str, Tuple[Chunk, int, int]]" = OrderedDict()
        #: Promote/demote single-flight: key → completion event.
        self._moving: Dict[str, Event] = {}
        #: Called with the key whenever the store drops a chunk from
        #: every tier on its own initiative (disk-capacity eviction) —
        #: lets the owner drop its metadata in step.
        self.on_evict = on_evict
        self._stats = ChunkStoreStats()
        #: Attached observability recorder (None = disabled).
        self.recorder = None

    # ------------------------------------------------------------- inspection
    @property
    def stats(self) -> ChunkStoreStats:
        """Counters with the chunk-count gauges refreshed."""
        s = self._stats
        s.chunks_ram = len(self._ram)
        s.chunks_disk = len(self._disk)
        return s

    def tier_of(self, key: str) -> Optional[str]:
        """``"ram"`` / ``"disk"`` / ``None``."""
        if key in self._ram:
            return "ram"
        if key in self._disk:
            return "disk"
        return None

    def ram_lru(self) -> List[str]:
        """RAM-resident keys, least-recently-used first (a snapshot —
        safe to displace while iterating)."""
        return list(self._ram)

    def stored_size(self, key: str, nbytes: int) -> int:
        """On-disk footprint of a chunk (post-compression when enabled)."""
        if not self.compression:
            return nbytes
        return max(1, int(nbytes / compression_ratio(key)))

    # ------------------------------------------------------------ cheap reads
    def get(self, key: str) -> Optional[Tuple[Chunk, int]]:
        """RAM-tier lookup: free (a memory copy), touches LRU order.

        Returns ``(chunk, nbytes)`` or ``None`` when the chunk is not
        RAM-resident — disk-resident chunks are *not* served here; use
        :meth:`load` (which charges the disk read) for those.
        """
        item = self._ram.get(key)
        if item is None:
            return None
        self._ram.move_to_end(key)
        self._stats.ram_hits += 1
        rec = self.recorder
        if rec is not None:
            rec.count("tier_hit", "ram")
        return item

    def touch(self, key: str) -> None:
        """Refresh a chunk's LRU recency without serving it."""
        if key in self._ram:
            self._ram.move_to_end(key)

    # -------------------------------------------------------------- admission
    def _fit_disk(self, stored: int, evictable) -> bool:
        """Make room on the disk tier, LRU-evicting allowed victims."""
        if self.device is None:
            return False
        if self.capacity_bytes <= 0:
            return True
        if stored > self.capacity_bytes:
            return False
        while self._stats.disk_stored_bytes + stored > self.capacity_bytes:
            victim = None
            for key in self._disk:
                if key in self._moving:
                    continue
                if evictable is None or evictable(key):
                    victim = key
                    break
            if victim is None:
                return False
            self._drop_disk(victim)
            self._stats.disk_evictions += 1
            rec = self.recorder
            if rec is not None:
                rec.count("tier_evict", "disk")
            if self.on_evict is not None:
                self.on_evict(victim)
        return True

    def _write_disk(
        self, key: str, chunk: Chunk, nbytes: int, stored: int
    ) -> Generator[Event, Any, None]:
        """Charge the compress + device-write cost and file the chunk."""
        if self.compression:
            yield self.env.timeout(nbytes / COMPRESS_BPS)
            self._stats.compress_ops += 1
            rec = self.recorder
            if rec is not None:
                rec.count("tier_compress", "disk")
        yield from self.device.write(stored)
        self._disk[key] = (chunk, nbytes, stored)
        self._stats.disk_bytes += nbytes
        self._stats.disk_stored_bytes += stored

    def put(
        self, key: str, chunk: Chunk, nbytes: int, evictable=None
    ) -> Generator[Event, Any, Optional[str]]:
        """Admit a chunk: RAM if memory covers it, else overflow to disk.

        ``evictable(key) -> bool`` gates which disk-resident chunks may
        be LRU-evicted for capacity (``None`` = any).  Returns the tier
        the chunk landed on, or ``None`` when both tiers refused —
        callers free memory first (the node tier displaces victims).
        """
        if self.node.memory.level >= nbytes:
            yield self.node.memory.get(nbytes)
            self._ram[key] = (chunk, nbytes)
            self._stats.ram_bytes += nbytes
            return "ram"
        stored = self.stored_size(key, nbytes)
        if not self._fit_disk(stored, evictable):
            return None
        yield from self._write_disk(key, chunk, nbytes, stored)
        self._stats.disk_admits += 1
        rec = self.recorder
        if rec is not None:
            rec.count("tier_admit", "disk")
        return "disk"

    # ------------------------------------------------------- promote / demote
    def load(
        self, key: str
    ) -> Generator[Event, Any, Optional[Tuple[Chunk, int]]]:
        """Serve a chunk from whichever tier holds it, charging costs.

        RAM: free.  Disk: one device read of the stored bytes plus the
        decompress cost; the chunk is promoted to RAM when node memory
        covers it *after* the read (memory may have filled meanwhile),
        else it stays disk-resident (read-through).
        """
        got = self.get(key)
        if got is not None:
            return got
        while key in self._moving:
            yield self._moving[key]
            got = self.get(key)
            if got is not None:
                return got
        entry = self._disk.get(key)
        if entry is None:
            return None
        chunk, nbytes, stored = entry
        self._disk.move_to_end(key)
        done = self.env.event()
        self._moving[key] = done
        try:
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
                self._drop_disk(key)
                self._ram[key] = (chunk, nbytes)
                self._stats.ram_bytes += nbytes
                self._stats.promotions += 1
                self._stats.bytes_promoted += nbytes
                if rec is not None:
                    rec.record("tier_promote", "disk",
                               self.env.now - t0, nbytes=nbytes)
            return chunk, nbytes
        finally:
            del self._moving[key]
            done.succeed()

    def displace(
        self, key: str, evictable=None
    ) -> Generator[Event, Any, str]:
        """Demote a RAM-resident chunk to disk (evict only as last resort).

        Single-flighted per key: racing a concurrent promote/demote of
        the same chunk waits for it to settle, then reports the settled
        tier.  Returns ``"disk"`` (demoted), ``"evicted"`` (no disk
        room) or the tier the racer left the chunk on.
        """
        pending = self._moving.get(key)
        if pending is not None:
            yield pending
            return self.tier_of(key) or "evicted"
        item = self._ram.get(key)
        if item is None:
            return self.tier_of(key) or "evicted"
        chunk, nbytes = item
        stored = self.stored_size(key, nbytes)
        if not self._fit_disk(stored, evictable):
            self.drop(key)
            return "evicted"
        done = self.env.event()
        self._moving[key] = done
        try:
            t0 = self.env.now
            yield from self._write_disk(key, chunk, nbytes, stored)
            item = self._ram.pop(key, None)
            if item is not None:
                self._stats.ram_bytes -= nbytes
                if self.node.alive:
                    self.node.memory.put(nbytes)
            self._stats.demotions += 1
            self._stats.bytes_demoted += nbytes
            rec = self.recorder
            if rec is not None:
                rec.record("tier_demote", "disk",
                           self.env.now - t0, nbytes=nbytes)
            return "disk"
        finally:
            del self._moving[key]
            done.succeed()

    # ---------------------------------------------------------------- removal
    def _drop_disk(self, key: str) -> None:
        entry = self._disk.pop(key, None)
        if entry is not None:
            self._stats.disk_bytes -= entry[1]
            self._stats.disk_stored_bytes -= entry[2]

    def drop(self, key: str) -> None:
        """Forget a chunk, returning its memory if it was RAM-resident."""
        item = self._ram.pop(key, None)
        if item is None:
            self._drop_disk(key)
            return
        self._stats.ram_bytes -= item[1]
        if self.node.alive:
            self.node.memory.put(item[1])

    def clear(self) -> None:
        """Forget everything, returning RAM (graceful teardown)."""
        for key in list(self._ram):
            self.drop(key)
        self._disk.clear()
        self._stats.disk_bytes = 0
        self._stats.disk_stored_bytes = 0

    def crash(self) -> int:
        """Node died: forget RAM *without* returning memory (the memory
        container died with the node); the disk tier *survives* —
        recovery warm-admits the survivors by reference instead of
        re-fetching them from the backend.  Returns chunks lost."""
        n = len(self._ram)
        self._ram.clear()
        self._stats.ram_bytes = 0
        return n
