"""The read chain (Fig 4): a file (``read_file``) or a whole chunk
(``read_chunk``, behind a §4.3 chunk window) resolves from the reader's
own node (no RPC: the owning master when it is local, else the node's
tier), else in one hop from the owning master (one call), else from
the DIESEL server — the cache never blocks the training loop.  A
master holds only chunks it owns, so no other master is asked.  Under
``on-demand`` a miss pulls the chunk in the background.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.core.chunk import Chunk
from repro.core.dist_cache.master import CacheClient, CacheMaster
from repro.core.meta import FileRecord
from repro.errors import CachePeerDownError, DieselError, NodeDownError
from repro.sim.engine import Event


class ReadChain:
    """The read chain of :class:`~repro.core.dist_cache.TaskCache`."""

    #: Span layer of each tier a read is credited to (else "server").
    _LAYER_OF = {
        "local_hits": "local_master",
        "disk_hits": "disk_tier",
        "shared_hits": "shared_tier",
        "remote_hits": "task_cache",
    }

    def credit_read(self, tier: str) -> None:
        """Count one file read against the tier its chunk resolved from
        (a hit-counter name; ``""`` = a clean miss the server served)."""
        if tier:
            s = self._stats
            setattr(s, tier, getattr(s, tier) + 1)

    def read_file(
        self, client: CacheClient, record: FileRecord
    ) -> Generator[Event, Any, bytes]:
        """:meth:`resolve_file`, payload only."""
        payload, _ = yield from self.resolve_file(client, record)
        return payload

    def resolve_file(
        self, client: CacheClient, record: FileRecord
    ) -> Generator[Event, Any, Tuple[bytes, str]]:
        """Read one file through the cache (one-hop peer fetch) — the
        path for unplanned single-file reads; plan-ordered readers take
        :meth:`read_chunk` behind a chunk window.  Returns ``(payload,
        tier)``: the tier the read was credited to (:meth:`credit_read`).

        Miss and peer-failure behaviour follows Fig 4: the file read falls
        through to the DIESEL server; under ``on-demand`` the owning
        master pulls the chunk in the background so later reads hit.
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        encoded_cid = record.chunk_id.encode()
        master = self.owner_of(encoded_cid)
        chunk, tier = yield from self._local_chunk(
            client, master, encoded_cid, record.path
        )
        if chunk is not None:
            payload = chunk.payload(record.path, verify=False)
            self.credit_read(tier)
            yield self.env.timeout(
                self.fabric.local_latency_s
                + len(payload) / self.fabric.local_bandwidth_bps
            )
        else:
            payload, tier = yield from self._ask_owner(
                client, master, "get_file", (encoded_cid, record.path),
                record.length,
            )
            self.credit_read(tier)
            if payload is None:
                payload = yield from self.server.call(
                    client.node, "get_file", self.dataset, record.path,
                    response_bytes=record.length,
                )
        if rec is not None:
            self.last_resolution = self._LAYER_OF.get(tier, "server")
            rec.record("cache_read", self.last_resolution,
                       self.env.now - t0, actor=client.name,
                       path=record.path)
        return payload, tier

    def read_chunk(
        self, client: CacheClient, encoded_cid: str
    ) -> Generator[Event, Any, Tuple[Chunk, str]]:
        """:meth:`read_file`'s chain at the granularity §4.2 caches and
        §4.3 schedules.  Returns ``(chunk, tier)``: the resident
        :class:`Chunk` itself (aliased, never copied) and the tier to
        :meth:`credit_read` for each file then served out of it.
        """
        if not self._registered:
            raise DieselError("task cache not registered")
        rec = self._recorder
        t0 = self.env.now if rec is not None else 0.0
        self._stats.chunk_fetches += 1
        master = self.owner_of(encoded_cid)
        chunk, tier = yield from self._local_chunk(client, master, encoded_cid)
        if chunk is not None:
            yield self.env.timeout(
                self.fabric.local_latency_s
                + chunk.data_size / self.fabric.local_bandwidth_bps
            )
        else:
            chunk, tier = yield from self._ask_owner(
                client, master, "get_chunk", (encoded_cid,),
                master.nbytes_of(encoded_cid) or None,
            )
            if chunk is None:
                blob = yield from self.server.call(
                    client.node, "get_chunk", self.dataset, encoded_cid,
                    response_bytes=None,
                )
                chunk = Chunk.fetched(blob, encoded_cid)
        if rec is not None:
            rec.record("chunk_fetch", self._LAYER_OF.get(tier, "server"),
                       self.env.now - t0, actor=client.name,
                       chunk=encoded_cid[:12])
        return chunk, tier

    def _local_chunk(
        self,
        client: CacheClient,
        master: CacheMaster,
        encoded_cid: str,
        path: Optional[str] = None,
    ) -> Generator[Event, Any, Tuple[Optional[Chunk], str]]:
        """The node-local head of the Fig 4 chain, RAM before disk.

        The owning master, when it is on the reader's node, serves a
        chunk it holds from memory with no RPC hop; anything else
        resident in the node's tier — demoted to its disk tier (a
        device read + decompress, promoting when memory allows), or
        admitted by another task — serves from there.  ``path``
        restricts a hit to chunks holding that file.  Returns
        ``(chunk, tier)`` or ``(None, "")``; the caller charges the
        intra-node copy.
        """
        mine = (
            master.node is client.node
            and master.up
            and master.has_chunk(encoded_cid)
        )
        if mine:
            chunk = master._ram_chunk(encoded_cid)
            if chunk is not None and (path is None or path in chunk):
                master.stats.hits += 1
                return chunk, "local_hits"
        if client.node.alive:
            node_tier = self.shared.for_node(client.node)
            chunk = node_tier.peek(self.dataset, encoded_cid)
            tier = "shared_hits"
            if chunk is None and node_tier.disk_resident(
                self.dataset, encoded_cid
            ):
                chunk = yield from node_tier.read_resident(
                    self.dataset, encoded_cid
                )
                tier = "disk_hits"
            if chunk is not None and (path is None or path in chunk):
                if mine:  # this task's own chunk, off the disk tier
                    master.stats.hits += 1
                else:
                    node_tier.note_cross_task_read()
                return chunk, tier
        return None, ""

    def _ask_owner(
        self,
        client: CacheClient,
        master: CacheMaster,
        method: str,
        args: tuple,
        response_bytes: Optional[int],
    ) -> Generator[Event, Any, Tuple[Any, str]]:
        """The owner-peer leg: one ``method(*args)`` call (``args[0]``
        the encoded chunk id).

        Returns ``(value, tier)``.  ``None`` sends the caller to the
        server: tier ``"degraded_reads"`` when the owner is down or died
        mid-call (counted as ``ft_peer_failure`` on an attached
        recorder), ``""`` for a clean miss — ``on-demand`` then pulls
        the chunk in background.
        """
        down = not master.up
        if not down:
            try:
                value = yield from master.endpoint.call(
                    client.node, method, *args, response_bytes=response_bytes
                )
            except NodeDownError:
                down = True
        if down:
            rec = self._recorder
            if rec is not None:
                rec.count("ft_peer_failure", "task_cache")
            return None, "degraded_reads"
        if value is None:
            if self.policy == "on-demand" and master.up:
                # Kick a background chunk pull; don't wait for it.
                self.env.process(
                    self._background_pull(client, master, args[0]),
                    name=f"pull:{args[0][:8]}",
                )
            return None, ""
        if master.node is client.node:
            return value, "local_hits"
        return value, "remote_hits"

    def _background_pull(
        self, client: CacheClient, master: CacheMaster, encoded_cid: str
    ) -> Generator[Event, Any, None]:
        """On-demand fill, decoupled from the read that triggered it.

        The read already fell through to the server, so this pull is
        pure opportunism: if the master (or the server behind it) dies
        mid-pull, log-and-drop — an orphaned failure must never
        propagate into the engine or stall the training loop.
        """
        try:
            yield from master.endpoint.call(
                client.node, "pull_chunk", encoded_cid
            )
        except (NodeDownError, CachePeerDownError):
            self.dropped_pulls += 1
            rec = self._recorder
            if rec is not None:
                rec.count("ft_peer_failure", "task_cache")
                rec.count("ft_dropped_pull", "task_cache")
