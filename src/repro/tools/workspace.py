"""Persistent DIESEL workspaces.

A workspace bundles a full single-server DIESEL deployment (object
store + KV metadata) with save/load to a real file on disk, so DLCMD
invocations can operate on the same datasets across processes — the way
the paper's `DLCMD` manipulates datasets that live on in the shared
cluster.

The on-disk format is deliberately simple and self-describing: the chunk
objects (which are self-contained, §4.1.2) plus nothing else — metadata
is *rebuilt from the chunks on load*, exercising the recovery path on
every open.  That makes the file format trivially forward-compatible
and doubles as a continuous test of the §4.1.2 recovery guarantee.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, List

from repro.bench.setups import Testbed, deploy, diesel_client
from repro.core import recovery
from repro.core.client import SyncDieselClient
from repro.errors import ChunkFormatError

MAGIC = b"DSWS"
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


class DieselWorkspace:
    """A single-node DIESEL deployment with on-disk persistence."""

    def __init__(self) -> None:
        self.tb: Testbed = deploy(1, n_storage=1, n_servers=1)
        self._clients: Dict[str, SyncDieselClient] = {}

    @property
    def server(self):
        return self.tb.diesel

    def client(self, dataset: str) -> SyncDieselClient:
        """A synchronous client bound to ``dataset`` (cached per dataset)."""
        if dataset not in self._clients:
            self._clients[dataset] = SyncDieselClient(diesel_client(
                self.tb, dataset, self.tb.compute_nodes[0], f"dlcmd:{dataset}"
            ))
        return self._clients[dataset]

    def datasets(self) -> List[str]:
        return self.server.datasets()

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> int:
        """Write every chunk object to ``path``; returns the byte count.

        Layout: magic ‖ count ‖ (key_len ‖ key ‖ blob_len ‖ blob)*.
        Only chunks are stored — metadata rebuilds from their headers.
        """
        store = self.tb.store
        out = bytearray()
        out += MAGIC
        keys = store.list_keys()
        out += _U32.pack(len(keys))
        for key in keys:
            blob = store.peek(key)
            kb = key.encode("utf-8")
            out += _U32.pack(len(kb))
            out += kb
            out += _U64.pack(len(blob))
            out += blob
        Path(path).write_bytes(bytes(out))
        return len(out)

    @classmethod
    def load(cls, path: str | Path) -> "DieselWorkspace":
        """Open a workspace file, rebuilding all metadata from chunks."""
        blob = Path(path).read_bytes()
        if blob[:4] != MAGIC:
            raise ChunkFormatError(f"not a DIESEL workspace file: {path}")
        ws = cls()
        pos = 4
        (count,) = _U32.unpack_from(blob, pos)
        pos += 4
        items = []
        for _ in range(count):
            (klen,) = _U32.unpack_from(blob, pos)
            pos += 4
            key = blob[pos : pos + klen].decode("utf-8")
            pos += klen
            (blen,) = _U64.unpack_from(blob, pos)
            pos += 8
            items.append((key, blob[pos : pos + blen]))
            pos += blen
        if pos != len(blob):
            raise ChunkFormatError("trailing garbage in workspace file")
        ws.tb.store.load(items)
        # Rebuild KV metadata by scanning the chunks (§4.1.2 scenario b).
        proc = ws.tb.env.process(recovery.rebuild_all(ws.server))
        ws.tb.env.run(until=proc)
        return ws

    @classmethod
    def open(cls, path: str | Path) -> "DieselWorkspace":
        """Load if ``path`` exists, else a fresh workspace."""
        p = Path(path)
        if p.exists():
            return cls.load(p)
        return cls()
