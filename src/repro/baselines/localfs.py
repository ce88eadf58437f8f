"""Local-filesystem (XFS) model for the Fig 10c metadata comparison.

The paper runs ``ls -R`` and ``ls -lR`` against XFS on a local NVMe SSD.
A local FS pays no network RPCs; its per-entry costs are syscall-bound.
The defaults below (~6 µs per readdir entry, ~17 µs per stat, with dentry
cache warm) put ImageNet-1K (1.28 M files) at ~10 s for ``ls -R`` and
~30 s for ``ls -lR`` — fast relative to Lustre's 35 s / 170 s, slower
than DIESEL-FUSE's O(1) in-memory snapshot for sizes, which is the
ordering Fig 10c shows.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.cluster.node import Node
from repro.sim.engine import Environment, Event
from repro.util import pathutil


class LocalXfs:
    """A single-node local filesystem with per-entry syscall costs."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        readdir_entry_s: float = 6e-6,
        stat_s: float = 17e-6,
    ) -> None:
        self.env = env
        self.node = node
        self.readdir_entry_s = readdir_entry_s
        self.stat_s = stat_s
        self._files: dict[str, bytes] = {}
        self._dirs: dict[str, set[str]] = {"/": set()}

    def write_file(self, path: str, data: bytes) -> None:
        """Populate without simulated cost (fixture setup)."""
        path = pathutil.normalize(path)
        comps = path[1:].split("/")
        for depth in range(1, len(comps)):
            d = "/" + "/".join(comps[:depth])
            self._dirs.setdefault(d, set())
            self._dirs[pathutil.dirname(d)].add(d)
        self._files[path] = bytes(data)
        self._dirs[pathutil.dirname(path)].add(path)

    def readdir(self, path: str) -> Generator[Event, Any, list[str]]:
        entries = sorted(self._dirs[pathutil.normalize(path)])
        yield self.env.timeout(self.readdir_entry_s * max(1, len(entries)))
        return entries

    def stat(self, path: str) -> Generator[Event, Any, dict]:
        path = pathutil.normalize(path)
        yield self.env.timeout(self.stat_s)
        if path in self._files:
            return {"path": path, "is_dir": False, "size": len(self._files[path])}
        if path in self._dirs:
            return {"path": path, "is_dir": True, "size": 0}
        raise FileNotFoundError(path)

    def ls_recursive(
        self, root: str = "/", with_sizes: bool = False
    ) -> Generator[Event, Any, int]:
        """``ls -R`` (names only) or ``ls -lR`` (plus stat per entry)."""
        count = 0
        stack = [pathutil.normalize(root)]
        while stack:
            d = stack.pop()
            entries = yield from self.readdir(d)
            for entry in entries:
                count += 1
                if with_sizes:
                    yield from self.stat(entry)
                if entry in self._dirs:
                    stack.append(entry)
        return count
