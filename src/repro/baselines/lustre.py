"""Lustre baseline: metadata server(s) + object storage servers.

The model captures what makes Lustre slow for DLT workloads (§2.2):

* every file operation pays one or more MDS round trips (lookup, create,
  lock) against a service with finite QPS (``LustreProfile.mds_qps``,
  measured at ~68 k in the paper);
* file *sizes* live on the OSS, so a full ``stat`` costs extra RPCs —
  the reason ``ls -lR`` on ImageNet-1K takes ~170 s vs ~35 s for
  ``ls -R`` (Fig 10c);
* small random reads each pay MDS + OSS per-op costs, so effective
  bandwidth collapses at 4 KB (Fig 12: ~60 MB/s vs DIESEL's ~4.3 GB/s).

DNE (Distributed NamEspace) is modelled as in the paper's discussion:
``dne1`` hashes each *directory* to one MDT (a hot directory still
saturates one server); ``dne2`` stripes directory entries over all MDTs
(readdir must visit every stripe).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Literal, Sequence

from repro.calibration import LustreProfile, RpcProfile
from repro.errors import (
    FileExistsInDatasetError,
    FileNotFoundInDatasetError,
)
from repro.cluster.devices import Device
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Environment, Event
from repro.util import pathutil
from repro.util.hashing import stable_hash

DneMode = Literal["none", "dne1", "dne2"]


class _Namespace:
    """The real directory tree: dirs → children, files → bytes."""

    def __init__(self) -> None:
        self._files: Dict[str, bytes] = {}
        self._dirs: Dict[str, set[str]] = {"/": set()}

    def _ensure_parents(self, path: str) -> None:
        """Create every ancestor directory and link it to its parent."""
        comps = path[1:].split("/")
        for depth in range(1, len(comps)):
            p = "/" + "/".join(comps[:depth])
            self._dirs.setdefault(p, set())
            self._dirs[pathutil.dirname(p)].add(p)

    def create_file(self, path: str, data: bytes) -> None:
        path = pathutil.normalize(path)
        if path in self._files:
            raise FileExistsInDatasetError(path)
        self._ensure_parents(path)
        self._files[path] = data
        self._dirs[pathutil.dirname(path)].add(path)

    def read_file(self, path: str) -> bytes:
        path = pathutil.normalize(path)
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInDatasetError(path) from None

    def is_file(self, path: str) -> bool:
        return pathutil.normalize(path) in self._files

    def is_dir(self, path: str) -> bool:
        return pathutil.normalize(path) in self._dirs

    def list_dir(self, path: str) -> list[str]:
        path = pathutil.normalize(path)
        try:
            return sorted(self._dirs[path])
        except KeyError:
            raise FileNotFoundInDatasetError(path) from None

    def file_size(self, path: str) -> int:
        return len(self.read_file(path))

    def walk(self, root: str = "/") -> Generator[str, None, None]:
        """Yield every directory path under ``root`` (inclusive), DFS."""
        stack = [pathutil.normalize(root)]
        while stack:
            d = stack.pop()
            yield d
            for child in sorted(self._dirs.get(d, ()), reverse=True):
                if child in self._dirs:
                    stack.append(child)


class LustreFS:
    """A Lustre-like distributed filesystem with a calibrated cost model."""

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        mds_nodes: Sequence[Node],
        oss_device: Device,
        profile: LustreProfile | None = None,
        dne: DneMode = "none",
    ) -> None:
        if not mds_nodes:
            raise ValueError("LustreFS needs at least one MDS node")
        if dne not in ("none", "dne1", "dne2"):
            raise ValueError(f"unknown DNE mode: {dne!r}")
        if dne == "none" and len(mds_nodes) > 1:
            raise ValueError("multiple MDTs require a DNE mode")
        self.env = env
        self.fabric = fabric
        self.profile = profile or LustreProfile()
        self.dne = dne
        self.ns = _Namespace()
        self.oss = oss_device
        # Each MDT serves mds_qps aggregate with mds_latency_s unloaded
        # service latency (workers derived via Little's law).
        self._mdts = [
            RpcEndpoint.for_capacity(
                env,
                fabric,
                node,
                f"mdt{i}",
                handler=self._mds_handle,
                qps=self.profile.mds_qps,
                latency_s=self.profile.mds_latency_s,
                profile=RpcProfile(),
            )
            for i, node in enumerate(mds_nodes)
        ]

    # The MDS handler performs the real namespace mutation; cost is charged
    # by the RPC machinery plus explicit extra MDS ops below.
    def _mds_handle(self, method: str, *args: Any) -> Any:
        if method == "create":
            self.ns.create_file(args[0], b"")
            return None
        if method == "lookup":
            if not (self.ns.is_file(args[0]) or self.ns.is_dir(args[0])):
                raise FileNotFoundInDatasetError(args[0])
            return True
        if method == "readdir":
            return self.ns.list_dir(args[0])
        if method == "noop":
            return None
        raise ValueError(f"unknown MDS method {method!r}")

    def _mdt_for(self, path: str) -> RpcEndpoint:
        """Pick the MDT serving ``path``'s *parent directory*."""
        if len(self._mdts) == 1:
            return self._mdts[0]
        directory = pathutil.dirname(pathutil.normalize(path))
        if self.dne == "dne1":
            # Whole directory pinned to one MDT.
            return self._mdts[stable_hash(directory, len(self._mdts))]
        # DNE2: entries striped; per-entry operations hash on the full path.
        return self._mdts[stable_hash(pathutil.normalize(path), len(self._mdts))]

    def _mds_call(
        self, client: Node, path: str, method: str, *args: Any, ops: float = 1.0
    ) -> Generator[Event, Any, Any]:
        """One logical metadata operation costing ``ops`` MDS service units."""
        mdt = self._mdt_for(path)
        result = yield from mdt.call(client, method, *args)
        extra = ops - 1.0
        if extra > 0:
            # Additional same-server round trips (e.g. lock acquisition).
            for _ in range(int(round(extra))):
                yield from mdt.call(client, "noop")
        return result

    # -- public POSIX-ish operations ---------------------------------------
    def write_file(
        self, client: Node, path: str, data: bytes
    ) -> Generator[Event, Any, None]:
        """Create + write one file (MDS create ops + OSS write)."""
        p = self.profile
        yield self.env.timeout(p.client_posix_s)
        yield from self._mds_call(client, path, "create", path, ops=p.create_mds_ops)
        # Creates amplify on the OSS (journal + lock + object create).
        yield from self.oss.write(len(data), op_multiplier=p.write_amplification)
        # Attach the payload after the simulated write completes.
        self.ns._files[pathutil.normalize(path)] = bytes(data)

    def read_file(self, client: Node, path: str) -> Generator[Event, Any, bytes]:
        """Open + read one file (MDS lookup + OSS read)."""
        p = self.profile
        yield self.env.timeout(p.client_posix_s)
        yield from self._mds_call(client, path, "lookup", path, ops=p.open_mds_ops)
        data = self.ns.read_file(path)
        yield from self.oss.read(len(data))
        return data

    def readdir(self, client: Node, path: str) -> Generator[Event, Any, list[str]]:
        """List one directory.

        Under DNE2 the directory's entries are striped over all MDTs, so a
        readdir must visit every stripe (the §2.2 drawback).
        """
        yield self.env.timeout(self.profile.client_posix_s)
        if self.dne == "dne2" and len(self._mdts) > 1:
            names: list[str] = []
            for mdt in self._mdts:
                part = yield from mdt.call(client, "readdir", path)
                names = part  # every stripe returns the authoritative list
            return names
        result = yield from self._mds_call(client, path, "readdir", path)
        return result

    def stat(
        self, client: Node, path: str, with_size: bool = False
    ) -> Generator[Event, Any, dict]:
        """Stat a file; ``with_size`` adds the OSS round trips (Fig 10c)."""
        p = self.profile
        yield self.env.timeout(p.client_posix_s)
        yield from self._mds_call(client, path, "lookup", path, ops=1.0)
        info = {"path": pathutil.normalize(path), "is_dir": self.ns.is_dir(path)}
        if with_size and self.ns.is_file(path):
            for _ in range(p.stat_extra_rpcs):
                yield from self.oss.read(0)
                yield from self.fabric.transfer(client, self._mdts[0].node, 64)
            info["size"] = self.ns.file_size(path)
        elif self.ns.is_file(path):
            info["size"] = None
        return info

    def ls_recursive(
        self, client: Node, root: str = "/", with_sizes: bool = False
    ) -> Generator[Event, Any, int]:
        """``ls -R`` / ``ls -lR``: returns number of entries visited."""
        count = 0
        for directory in self.ns.walk(root):
            entries = yield from self.readdir(client, directory)
            for entry in entries:
                count += 1
                if with_sizes:
                    yield from self.stat(client, entry, with_size=True)
        return count
