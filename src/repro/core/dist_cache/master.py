"""Cache masters (§4.2, Fig 7): per node, the client holding the task's
chunks as references into the node's chunk tier, serving its peers and
running every pull.  Which chunks it owns (``assigned``) is
:mod:`.placement`'s to write."""

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
    #: Most bulk pulls (warm-up, recovery, scale moves) ever concurrently
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
    the registry-issued key the tier refcounts under; ``tenant`` names
    the quota account it charges.  The clock, fabric and calibration
    are the ``server``'s.
    """

    def __init__(
        self,
        client: CacheClient,
        server: DieselServer,
        dataset: str,
        tier,
        task: str,
        tenant: str = "default",
    ) -> None:
        self.env = server.env
        self.client = client
        self.node = client.node
        self.server = server
        self.dataset = dataset
        self.tier = tier
        self.task = task
        self.tenant = tenant
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
        self,
        cids: Sequence[str],
        donor: Optional["CacheMaster"],
        from_peer: List[str],
    ) -> Generator[Event, Any, List[Tuple[Chunk, int]]]:
        """Bring cold chunks to this node: from ``donor`` (a peer master
        still holding them — the elastic-membership source, so scale
        events never re-read the object store for resident data) with
        the backend behind it, else straight from the backend in one
        vectorized ``call_batch`` of ``get_chunk``s.  Cids the donor
        served are appended to ``from_peer``.
        """
        got: Dict[str, Tuple[Chunk, int]] = {}
        if donor is not None and donor.up:
            for cid in cids:
                nbytes = donor.nbytes_of(cid)
                try:
                    chunk = yield from donor.endpoint.call(
                        self.node, "get_chunk", cid,
                        response_bytes=nbytes or None,
                    )
                except (NodeDownError, CachePeerDownError):
                    break
                if chunk is not None:
                    got[cid] = (chunk, nbytes)
                    from_peer.append(cid)
        backend = [cid for cid in cids if cid not in got]
        if backend:
            blobs = yield from self.server.call_batch(
                self.node,
                [("get_chunk", self.dataset, cid) for cid in backend],
            )
            for cid, blob in zip(backend, blobs):
                got[cid] = (Chunk.decode(blob), len(blob))
        return [got[cid] for cid in cids]

    def pull(
        self, cids: Sequence[str], donor: Optional["CacheMaster"] = None
    ) -> Generator[Event, Any, Tuple[int, int]]:
        """Admit ``cids`` through the node tier and record the
        references granted — the one way this master comes to hold a
        chunk (warmup, recovery, on-demand fill, scale-event
        warm/drain).

        The tier owns single-flight (n clients faulting a chunk at
        once, warmup racing an on-demand fill, another task's pull —
        late arrivals wait and count as ``coalesced_pulls``), quota and
        placement; a chunk it refuses stays server-resident
        (reads for it fall through, Fig 4) and counts as
        ``skipped_no_memory``.  Returns ``(held, from_peer)``: how many
        of ``cids`` are now held, and how many of those ``donor``
        supplied instead of the backend.
        """
        missing = [cid for cid in cids if cid not in self._held]
        if missing:
            from_peer: List[str] = []
            admitted = yield from self.tier.admit(
                self, missing,
                lambda cold: self._fetch(cold, donor, from_peer),
            )
            for cid, nbytes in admitted.items():
                if cid in self._held:
                    continue  # a concurrent pull of ours landed it first
                self._held[cid] = nbytes
                self.stats.chunks_loaded += 1
                self.stats.bytes_cached += nbytes
            self.stats.skipped_no_memory += len(missing) - len(admitted)
            held = len(cids) - len(missing) + len(admitted)
            return held, sum(cid in admitted for cid in from_peer)
        return len(cids), 0

    def _handle_pull(self, cids: Sequence[str]) -> Generator[Event, Any, int]:
        """A peer's ``pull_chunk`` (the on-demand fill); a dead node
        pulls nothing."""
        if not self.node.alive:
            return 0
        held, _ = yield from self.pull(cids)
        return held

    def _note_pull_inflight(self, n: int) -> None:
        if n > self.stats.pull_inflight_hwm:
            self.stats.pull_inflight_hwm = n

    def _bring(
        self, cid: str, donor: Optional["CacheMaster"], landed
    ) -> Generator[Event, Any, Tuple[int, int]]:
        """One :meth:`pull_all` worker.  A chunk that cannot be brought
        — this node, the donor and the backend behind it, or the server
        died — is simply not held: reads for it fall through (Fig 4)."""
        got = (0, 0)
        if self.node.alive:
            try:
                got = yield from self.pull([cid], donor)
            except (NodeDownError, CachePeerDownError, DieselError):
                pass
        if landed is not None:
            landed(cid)
        return got

    def pull_all(
        self,
        moves: Sequence[Tuple[str, Optional["CacheMaster"]]],
        op: str,
        width: Optional[int] = None,
        landed=None,
    ) -> Generator[Event, Any, Tuple[int, int]]:
        """The bulk-pull pipeline: bring ``moves`` — ``(cid, donor)``
        pairs, ``donor`` as in :meth:`pull` — to this node, as many in
        flight as the node can receive.  Warm-up, recovery and both
        scale moves all go through here.

        The width is this node's ingress channel count: a chunk more
        than that in flight would only queue at the NIC.  ``width``
        replaces it for a caller measuring the shape (the Fig 11b
        sweep).  ``landed(cid)`` runs after each chunk's own pull, held
        or not — the drain's per-chunk ownership flip.  Returns
        ``(held, from_peer)`` summed over ``moves``.
        """
        if not moves:
            return 0, 0
        if width is None:
            width = self.node.ingress.channels
        results = yield from fan_out(
            self.env,
            [self._bring(cid, donor, landed) for cid, donor in moves],
            min(width, len(moves)),
            name=f"{op}:{self.client.name}",
            watermark=self._note_pull_inflight,
        )
        return sum(r[0] for r in results), sum(r[1] for r in results)

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
        loaded, _ = yield from self.pull_all(
            [(cid, None) for cid in self.assigned if cid not in self._held],
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
        self.tier.release_task(self.task, self.tenant)
        self._held.clear()
