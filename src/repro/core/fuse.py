"""FUSE-style POSIX facade over libDIESEL (paper §5, Fig 10c/11a/12).

Training frameworks read datasets through standard POSIX calls; DIESEL
mounts itself via FUSE so no training code changes (§1, §6.6).  FUSE
redirection costs kernel↔userspace crossings: the kernel splits reads
into ``max_read``-sized requests, each crossing into the daemon
(Vangoor et al., FAST'17).  The paper mitigates this with a
multi-threaded FUSE loop and multiple DIESEL clients per mount (§5) —
modelled here as a pool of underlying clients served round-robin —
but FUSE still lands at ~60-85 % of the native API's throughput
(Fig 11a/12), which this facade's overhead model reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from repro.calibration import Calibration, DEFAULT
from repro.core.client import DieselClient
from repro.errors import DieselError, FileNotFoundInDatasetError
from repro.obs.counters import Counters
from repro.sim.engine import Event


@dataclass(slots=True)
class FuseStats(Counters):
    reads: int = 0
    crossings: int = 0
    getattrs: int = 0
    readdirs: int = 0


class FuseFile:
    """An open file handle with POSIX read/seek semantics.

    Each ``read`` costs one kernel crossing per ``max_read``-sized
    request plus the client's range read; sequential reads advance the
    file position like read(2).
    """

    def __init__(self, mount: "FuseMount", path: str, size: int) -> None:
        self._mount = mount
        self.path = path
        self.size = size
        self.pos = 0
        self._closed = False

    def _check(self) -> None:
        if self._closed:
            raise DieselError(f"file handle for {self.path!r} is closed")

    def seek(self, offset: int, whence: int = 0) -> int:
        """lseek: 0=SET, 1=CUR, 2=END.  Returns the new position."""
        self._check()
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self.pos + offset
        elif whence == 2:
            new = self.size + offset
        else:
            raise DieselError(f"bad whence: {whence}")
        if new < 0:
            raise DieselError("negative seek position")
        self.pos = new
        return new

    def read(self, size: int = -1) -> Generator[Event, Any, bytes]:
        """Read up to ``size`` bytes from the current position."""
        self._check()
        if size < 0:
            size = max(0, self.size - self.pos)
        client = self._mount._client()
        crossings = self._mount._crossings_for(max(1, size))
        yield self._mount.env.timeout(
            crossings * self._mount.cal.fuse.crossing_s
        )
        self._mount.stats.crossings += crossings
        data = yield from client.get_range(self.path, self.pos, size)
        self.pos += len(data)
        self._mount.stats.reads += 1
        return data

    def pread(self, size: int, offset: int) -> Generator[Event, Any, bytes]:
        """Positional read; does not move the file offset."""
        self._check()
        saved = self.pos
        self.pos = offset
        try:
            data = yield from self.read(size)
        finally:
            self.pos = saved
        return data

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class FuseMount:
    """A mounted DIESEL dataset exposing POSIX-ish operations."""

    def __init__(
        self,
        clients: Sequence[DieselClient],
        calibration: Calibration = DEFAULT,
    ) -> None:
        if not clients:
            raise DieselError("a FUSE mount needs at least one DIESEL client")
        datasets = {c.dataset for c in clients}
        if len(datasets) != 1:
            raise DieselError("all clients of one mount must share a dataset")
        self.clients = list(clients)
        self.cal = calibration
        self.stats = FuseStats()
        self._rr = 0
        self._mounted = True

    @property
    def env(self):
        return self.clients[0].env

    def unmount(self) -> None:
        """§5's FUSE management API: tear the mount down.

        Closes every underlying DIESEL client; subsequent operations
        raise :class:`DieselError`.  Idempotent.
        """
        if not self._mounted:
            return
        self._mounted = False
        for c in self.clients:
            c.close()

    def _client(self) -> DieselClient:
        """Round-robin over the mount's client pool (§5 multi-client FUSE)."""
        if not self._mounted:
            raise DieselError("mount has been unmounted")
        c = self.clients[self._rr % len(self.clients)]
        self._rr += 1
        return c

    def _crossings_for(self, nbytes: int) -> int:
        """Kernel request count for a read of ``nbytes``."""
        return max(1, math.ceil(nbytes / self.cal.fuse.max_read_bytes))

    def open(self, path: str) -> Generator[Event, Any, FuseFile]:
        """open(2): lookup + open crossings; returns a positional handle."""
        client = self._client()
        yield self.env.timeout(2 * self.cal.fuse.crossing_s)
        self.stats.crossings += 2
        info = yield from client.stat(path)
        if info["is_dir"]:
            raise DieselError(f"cannot open a directory: {path!r}")
        return FuseFile(self, path, info["size"])

    def read_file(self, path: str) -> Generator[Event, Any, bytes]:
        """open() + read()-to-EOF + close() through the FUSE layer."""
        client = self._client()
        # open(): lookup + open crossings.
        yield self.env.timeout(2 * self.cal.fuse.crossing_s)
        payload = yield from client.get(path)
        crossings = self._crossings_for(len(payload))
        yield self.env.timeout(
            crossings * self.cal.fuse.crossing_s + self.cal.diesel.fuse_overhead_s
        )
        self.stats.reads += 1
        self.stats.crossings += crossings + 2
        return payload

    def read_files(
        self, paths: Sequence[str]
    ) -> Generator[Event, Any, "dict[str, bytes]"]:
        """Batched open+read+close: one ``get_many()`` for a mini-batch.

        The kernel crossings still scale with the bytes moved (FUSE
        splits every read into ``max_read`` requests), but the per-file
        RPC chain collapses into one batched client call — the §4
        request executor then merges the server-side reads chunk-wise.
        """
        client = self._client()
        paths = list(paths)
        # open(): lookup + open crossings per file.
        yield self.env.timeout(2 * len(paths) * self.cal.fuse.crossing_s)
        payloads = yield from client.get_many(paths)
        crossings = sum(
            self._crossings_for(len(data)) for data in payloads.values()
        )
        yield self.env.timeout(
            crossings * self.cal.fuse.crossing_s
            + len(paths) * self.cal.diesel.fuse_overhead_s
        )
        self.stats.reads += len(paths)
        self.stats.crossings += crossings + 2 * len(paths)
        return payloads

    def getattr(self, path: str) -> Generator[Event, Any, dict]:
        """stat() through FUSE: one crossing + the client's O(1) lookup."""
        client = self._client()
        yield self.env.timeout(self.cal.fuse.crossing_s)
        info = yield from client.stat(path)
        self.stats.getattrs += 1
        self.stats.crossings += 1
        return info

    def readdir(self, path: str) -> Generator[Event, Any, list[str]]:
        client = self._client()
        yield self.env.timeout(self.cal.fuse.crossing_s)
        entries = yield from client.ls(path)
        self.stats.readdirs += 1
        self.stats.crossings += 1
        return entries

    def ls_recursive(
        self, root: str = "/", with_sizes: bool = False
    ) -> Generator[Event, Any, int]:
        """``ls -R`` / ``ls -lR`` against the mount (Fig 10c).

        With a snapshot loaded, every getattr is a local hashmap hit, so
        ``ls -lR`` costs barely more than ``ls -R`` — unlike Lustre, whose
        stat must visit the OSS for sizes.
        """
        index = self._client().index  # requires a loaded snapshot
        count = 0
        for directory in index.walk(root):
            entries = yield from self.readdir(directory)
            for entry in entries:
                count += 1
                if with_sizes:
                    yield from self.getattr(entry)
        return count

    def exists(self, path: str) -> Generator[Event, Any, bool]:
        try:
            yield from self.getattr(path)
            return True
        except FileNotFoundInDatasetError:
            return False


def mount(
    clients: Sequence[DieselClient], calibration: Optional[Calibration] = None
) -> FuseMount:
    """Create a FUSE mount over a pool of DIESEL clients."""
    return FuseMount(clients, calibration or DEFAULT)
