"""Connection accounting.

§4.2 of the paper: a naive task-grained cache needs n×(n−1) peer
connections (n = DIESEL client instances); electing one master client per
physical node cuts this to p×(n−1) (p = physical nodes).  The table
tracks live (client, server) pairs so tests and experiments can assert
those exact counts.
"""

from __future__ import annotations


class ConnectionTable:
    """A registry of directed client→server connections."""

    def __init__(self) -> None:
        self._conns: set[tuple[str, str]] = set()

    def connect(self, client: str, server: str) -> bool:
        """Record a connection; returns False if it already existed."""
        if client == server:
            return False
        key = (client, server)
        if key in self._conns:
            return False
        self._conns.add(key)
        return True

    def drop_endpoint(self, name: str) -> int:
        """Remove every connection touching ``name``; returns count dropped."""
        dead = {c for c in self._conns if name in c}
        self._conns -= dead
        return len(dead)

    def count(self) -> int:
        return len(self._conns)

    def __repr__(self) -> str:
        return f"ConnectionTable({self.count()} connections)"
