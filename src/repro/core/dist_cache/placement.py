"""Chunk placement (§4.2): who owns chunk X.

Ownership is one map seen two ways — ``TaskCache._owner_of`` (cid →
master) and each master's ``assigned`` — and only this module writes
either or reads the placement policy: the deal at registration (the
``hash`` ring, or ``locality`` slices the affinity scheduler aligns
workers with), the successor rule for dead masters (``recover``) and
the per-chunk move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.dist_cache.master import CacheMaster
from repro.errors import DieselError

#: The placement policies: the round-robin ring, co-located slices.
PLACEMENTS = ("hash", "locality")

#: Share of a node's free memory ``locality`` placement fills before
#: spilling the rest of the node's slice to the ring (§4.2).
LOCALITY_SPILL_RATIO = 0.9

#: ``{successor: [encoded cid, …]}``
Moves = Dict[CacheMaster, List[str]]


class Placement:
    """The chunk ownership of :class:`~repro.core.dist_cache.TaskCache`."""

    @property
    def affinity_owner_of(self):
        """The owner hook of the owner-bucketed shuffle
        (:func:`~repro.core.shuffle.chunkwise_shuffle`) and the affinity
        scheduler: :meth:`chunk_owner_node` under ``locality``
        placement, ``None`` under the ``hash`` ring, whose spread gives
        a worker nothing to align with."""
        return self.chunk_owner_node if self.placement == "locality" else None

    def chunk_owner_node(self, chunk_id) -> Optional[str]:
        """Name of the node whose master owns ``chunk_id`` (or ``None``).

        Accepts a :class:`~repro.util.ids.ChunkId` or its encoded form.
        """
        encoded = chunk_id if isinstance(chunk_id, str) else chunk_id.encode()
        master = self._owner_of.get(encoded)
        return master.node.name if master is not None else None

    def owner_of(self, encoded_cid: str) -> CacheMaster:
        """The master owning the chunk."""
        try:
            return self._owner_of[encoded_cid]
        except KeyError:
            raise DieselError(
                f"chunk {encoded_cid} is not part of this task's dataset"
            ) from None

    def _rehome(self, owner: CacheMaster, encoded_cid: str) -> None:
        """Make ``owner`` the chunk's owner — the one ownership write.
        The chunk leaves its previous owner's ``assigned`` as it joins
        ``owner``'s, so it is in exactly one list at every instant."""
        prev = self._owner_of.get(encoded_cid)
        if prev is not None:
            prev.assigned.remove(encoded_cid)
        self._owner_of[encoded_cid] = owner
        owner.assigned.append(encoded_cid)

    def _rehome_all(self, moves: Moves) -> None:
        for owner, cids in moves.items():
            for encoded_cid in cids:
                self._rehome(owner, encoded_cid)

    def _deal(
        self,
        chunk_ids: Sequence[str],
        master_list: Sequence[CacheMaster],
        chunk_sizes: Dict[str, int],
    ) -> None:
        """Registration's deal of the chunk list over the masters
        (sorted by node name)."""
        if self.placement == "locality":
            self._partition_locality(chunk_ids, master_list, chunk_sizes)
            return
        for i, encoded_cid in enumerate(chunk_ids):
            self._rehome(master_list[i % len(master_list)], encoded_cid)

    def _partition_locality(
        self,
        chunk_ids: Sequence[str],
        master_list: Sequence[CacheMaster],
        chunk_sizes: Dict[str, int],
    ) -> None:
        """Locality placement: contiguous slices with capacity-aware spill.

        Master *k* owns slice *k* of the chunk list, so each node's
        partition forms one owner bucket the owner-bucketed shuffle and
        the affinity scheduler keep aligned with the co-located worker.
        A node only takes chunks up to ``LOCALITY_SPILL_RATIO`` of its
        free memory (budgeted in bytes via the registration summary's
        chunk sizes); overflow spills deterministically round-robin over
        the ring, to the first node with budget left.  When every budget
        is exhausted the plain ring assignment applies — memory pressure
        is then handled at pull time (``skipped_no_memory``, §4.2).
        """
        p = len(master_list)
        budgets = [
            int(m.node.memory.level * LOCALITY_SPILL_RATIO)
            for m in master_list
        ]
        fills = [0] * p
        per_slice = -(-len(chunk_ids) // p)  # ceil division

        def assign(k: int, encoded_cid: str) -> None:
            fills[k] += chunk_sizes.get(encoded_cid, 0)
            self._rehome(master_list[k], encoded_cid)

        spilled: list[str] = []
        for k in range(p):
            for encoded_cid in chunk_ids[k * per_slice : (k + 1) * per_slice]:
                size = chunk_sizes.get(encoded_cid, 0)
                if fills[k] + size > budgets[k]:
                    spilled.append(encoded_cid)
                else:
                    assign(k, encoded_cid)
        for i, encoded_cid in enumerate(spilled):
            size = chunk_sizes.get(encoded_cid, 0)
            k = next(
                (
                    (i + j) % p
                    for j in range(p)
                    if fills[(i + j) % p] + size <= budgets[(i + j) % p]
                ),
                i % p,
            )
            assign(k, encoded_cid)

    def _successors(
        self, dead: Sequence[CacheMaster], survivors: Sequence[CacheMaster]
    ) -> Moves:
        """The successor rule for dead masters.

        ``dead``'s chunks are dealt round-robin over ``survivors``
        (sorted by node name) — survivors' own partitions are untouched,
        so their nodes keep reading locally.  A plan only: ``dead``
        own their chunks until the caller moves them
        (:meth:`_rehome_all`).
        """
        moves: Moves = {}
        orphans = [cid for m in dead for cid in m.assigned]
        for i, cid in enumerate(orphans):
            moves.setdefault(survivors[i % len(survivors)], []).append(cid)
        return moves
