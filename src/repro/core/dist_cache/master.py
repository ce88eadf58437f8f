"""Cache masters (§4.2, Fig 7): per node, the client holding the task's
chunks as references into the node's chunk tier, serving its peers and
running every pull, always from the backend.  Which chunks it owns
(``assigned``) is :mod:`.placement`'s to write; it holds only chunks it
owns (``_held`` ⊆ ``assigned``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.node import Node
from repro.core.chunk import Chunk
from repro.core.server import DieselServer
from repro.errors import CachePeerDownError, DieselError, NodeDownError
from repro.obs.counters import Counters, hwm
from repro.rpc.endpoint import RpcEndpoint
from repro.sim.engine import Event, fan_out


@dataclass(frozen=True)
class CacheClient:
    """One DIESEL client instance participating in the task."""

    name: str
    node: Node
    rank: int


@dataclass(slots=True)
class CacheMasterStats(Counters):
    """Per-master cache counters (the bench-reporting seam)."""

    hits: int = 0
    misses: int = 0
    chunks_loaded: int = 0
    bytes_cached: int = 0
    #: Chunks left uncached because the node's memory budget ran out.
    skipped_no_memory: int = 0
    #: Most bulk pulls (warm-up, recovery) ever concurrently
    #: in flight on this master — at most its node's ingress channels.
    pull_inflight_hwm: int = hwm()
    #: Pull requests that joined an in-flight fetch instead of issuing
    #: their own (the node tier's single-flight map).
    coalesced_pulls: int = 0


class CacheMaster:
    """The master client on one node: owns a chunk partition, held as
    references into the node's chunk tier.

    Residency lives in exactly one place — the node's
    :class:`~repro.core.shared_cache.SharedChunkCache` (``tier``) and
    the store behind it; the master only records which chunks its task
    references there (``_held``: encoded cid → nbytes).  ``task`` is
    the registry-issued key the tier refcounts under.  The clock,
    fabric and calibration are the ``server``'s.
    """

    def __init__(
        self,
        client: CacheClient,
        server: DieselServer,
        dataset: str,
        tier,
        task: str,
    ) -> None:
        self.env = server.env
        self.client = client
        self.node = client.node
        self.server = server
        self.dataset = dataset
        self.tier = tier
        self.task = task
        self.assigned: List[str] = []  # encoded chunk ids
        self._held: Dict[str, int] = {}
        self.stats = CacheMasterStats()
        #: Observability recorder for this master's own spans
        #: (propagated by TaskCache; the tier's comes from its registry).
        self.recorder = None
        self.endpoint = RpcEndpoint(
            server.env,
            server.fabric,
            client.node,
            f"cache:{client.name}",
            handler=self._handle,
            service_s=server.cal.diesel.peer_fetch_overhead_s,
            workers=16,
        )

    @property
    def up(self) -> bool:
        """Whether this master's endpoint answers (its node is alive)."""
        return self.endpoint.up

    @property
    def store(self):
        """The chunk store behind this master's node tier (read-only)."""
        return self.tier.store

    def has_chunk(self, encoded_cid: str) -> bool:
        """Whether this master holds a reference to the chunk."""
        return encoded_cid in self._held

    @property
    def cached_chunk_count(self) -> int:
        """How many chunks this master holds."""
        return len(self._held)

    def nbytes_of(self, encoded_cid: str) -> int:
        """Encoded size of a chunk this master can serve (0 = none) —
        what a peer's ``get_chunk`` reply weighs on the wire."""
        return self._held.get(encoded_cid) or self.tier.nbytes_of(
            self.dataset, encoded_cid
        )

    def _ram_chunk(self, encoded_cid: str) -> Optional[Chunk]:
        """This master's RAM-resident copy of a chunk (free to read);
        ``None`` when not held — or resident on the disk tier only,
        which must charge a device read (``tier.read_resident``)."""
        if encoded_cid not in self._held:
            return None
        return self.tier.peek(self.dataset, encoded_cid)

    def _handle(self, method: str, *args: Any) -> Any:
        if method in ("get_file", "get_chunk"):
            return self._serve(*args)
        if method == "pull_chunk":
            return self._handle_pull(args)
        raise DieselError(f"unknown cache method {method!r}")

    def _serve(
        self, encoded_cid: str, path: Optional[str] = None
    ) -> Generator[Event, Any, Any]:
        """Answer a peer's ``get_file`` (one payload) or ``get_chunk``
        (the resident :class:`Chunk` itself, by reference — the caller
        sizes the reply from :meth:`nbytes_of`).

        RAM first; a disk-resident chunk charges its device read to the
        caller's RPC (Fig 4's chain gains a tier between RAM and
        server); a copy only other tasks reference serves too.  ``None``
        when not resident — the caller falls back to the backend.
        """
        tier = self.tier
        chunk = self._ram_chunk(encoded_cid)
        if chunk is None:
            if tier.disk_resident(self.dataset, encoded_cid):
                chunk = yield from tier.read_resident(
                    self.dataset, encoded_cid
                )
            else:
                chunk = tier.peek(self.dataset, encoded_cid)
                if chunk is not None:
                    tier.note_cross_task_read()
        if chunk is None or (path is not None and path not in chunk):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return chunk if path is None else chunk.payload(path, verify=False)

    def _fetch(
        self, cids: Sequence[str]
    ) -> Generator[Event, Any, List[Tuple[Chunk, int]]]:
        """Bring cold chunks to this node from the backend, in one
        vectorized ``call_batch`` of ``get_chunk``s; each is kept as a
        :meth:`Chunk.fetched` view, so a blob under another chunk's id
        is refused."""
        blobs = yield from self.server.call_batch(
            self.node, [("get_chunk", self.dataset, cid) for cid in cids]
        )
        return [
            (Chunk.fetched(blob, cid), len(blob)) for cid, blob in zip(cids, blobs)
        ]

    def pull(self, cids: Sequence[str]) -> Generator[Event, Any, int]:
        """Admit ``cids`` through the node tier and record the
        references granted — the one way this master comes to hold a
        chunk (warmup, recovery, on-demand fill).

        The tier owns single-flight (n clients faulting a chunk at
        once, warmup racing an on-demand fill, another task's pull —
        late arrivals wait and count as ``coalesced_pulls``) and
        placement; a chunk it refuses stays server-resident
        (reads for it fall through, Fig 4) and counts as
        ``skipped_no_memory``.  Returns how many of ``cids`` are now
        held.
        """
        missing = [cid for cid in cids if cid not in self._held]
        if not missing:
            return len(cids)
        admitted = yield from self.tier.admit(self, missing, self._fetch)
        for cid, nbytes in admitted.items():
            if cid in self._held:
                continue  # a concurrent pull of ours landed it first
            self._held[cid] = nbytes
            self.stats.chunks_loaded += 1
            self.stats.bytes_cached += nbytes
        self.stats.skipped_no_memory += len(missing) - len(admitted)
        return len(cids) - len(missing) + len(admitted)

    def _handle_pull(self, cids: Sequence[str]) -> Generator[Event, Any, int]:
        """A peer's ``pull_chunk`` (the on-demand fill); a dead node
        pulls nothing."""
        if not self.node.alive:
            return 0
        return (yield from self.pull(cids))

    def _note_pull_inflight(self, n: int) -> None:
        if n > self.stats.pull_inflight_hwm:
            self.stats.pull_inflight_hwm = n

    def _bring(self, cid: str) -> Generator[Event, Any, int]:
        """One :meth:`pull_all` worker.  A chunk that cannot be brought
        — this node or the server died — is simply not held: reads for
        it fall through (Fig 4)."""
        if not self.node.alive:
            return 0
        try:
            return (yield from self.pull([cid]))
        except (NodeDownError, CachePeerDownError, DieselError):
            return 0

    def pull_all(
        self, cids: Sequence[str], op: str, width: Optional[int] = None
    ) -> Generator[Event, Any, int]:
        """The bulk-pull pipeline: bring ``cids`` to this node, as many
        in flight as the node can receive.  Warm-up and recovery both
        go through here.

        The width is this node's ingress channel count: a chunk more
        than that in flight would only queue at the NIC.  ``width``
        replaces it for a caller measuring the shape (the Fig 11b
        sweep).  Returns how many of ``cids`` are now held.
        """
        if not cids:
            return 0
        if width is None:
            width = self.node.ingress.channels
        results = yield from fan_out(
            self.env,
            [self._bring(cid) for cid in cids],
            min(width, len(cids)),
            name=f"{op}:{self.client.name}",
            watermark=self._note_pull_inflight,
        )
        return sum(results)

    def fill(
        self, op: str, width: Optional[int] = None
    ) -> Generator[Event, Any, int]:
        """Pull every assigned chunk not yet held — the oneshot warm-up
        at registration (``op="warmup"``) and the re-stream at recovery
        (``op="recover"``).  Returns the number of chunks actually
        cached (refused chunks do not count).
        """
        rec = self.recorder
        t0 = self.env.now if rec is not None else 0.0
        loaded = yield from self.pull_all(
            [cid for cid in self.assigned if cid not in self._held],
            op, width,
        )
        if rec is not None:
            rec.record(op, "master", self.env.now - t0,
                       actor=self.client.name, chunks=loaded)
        return loaded

    def release(self) -> None:
        """Drop every reference this master holds.  The chunks stay
        resident at refcount 0; what becomes of them is the tier
        owner's call (``TaskCache._retire``)."""
        self.tier.release_task(self.task)
        self._held.clear()
