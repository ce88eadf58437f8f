"""Chunk placement (§4.2): who owns chunk X.

Ownership is one map seen two ways — ``TaskCache._owner_of`` (cid →
master) and each master's ``assigned`` — and only this module writes
either: the deal at registration (the round-robin ring), the successor
rule for dead masters (``recover``) and the per-chunk move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.dist_cache.master import CacheMaster
from repro.errors import DieselError

#: ``{successor: [encoded cid, …]}``
Moves = Dict[CacheMaster, List[str]]


class Placement:
    """The chunk ownership of :class:`~repro.core.dist_cache.TaskCache`."""

    def chunk_owner_node(self, encoded_cid: str) -> Optional[str]:
        """Name of the node whose master owns the chunk (or ``None``)."""
        master = self._owner_of.get(encoded_cid)
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
        self, chunk_ids: Sequence[str], master_list: Sequence[CacheMaster]
    ) -> None:
        """Registration's deal of the chunk list over the masters
        (sorted by node name): chunk *i* to master *i* mod p."""
        for i, encoded_cid in enumerate(chunk_ids):
            self._rehome(master_list[i % len(master_list)], encoded_cid)

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
