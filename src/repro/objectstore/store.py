"""Flat object store over a storage device."""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.errors import ObjectNotFoundError
from repro.cluster.devices import Device
from repro.sim.engine import Event


class ObjectStore:
    """A flat namespace of immutable-ish byte objects on one device.

    Keys list in sorted order — combined with DIESEL's order-preserving
    chunk-ID encoding, ``list_keys()`` returns chunks in written order,
    which metadata recovery depends on (§4.1.2).

    A :meth:`patch` rewrites an object's first bytes (a tombstone's
    chunk header).  The new bytes wait beside the object as its pending
    head until something reads the whole object (:meth:`get`,
    :meth:`get_range`, :meth:`peek`), which splices them in once; so a
    run of tombstones into one chunk copies the chunk once, not once
    each.  :meth:`head` and :meth:`object_size` splice nothing.
    """

    def __init__(self, device: Device, name: str = "objectstore") -> None:
        self.device = device
        self.name = name
        self._objects: dict[str, bytes] = {}
        #: Patched first bytes not yet spliced into their object.
        self._heads: dict[str, bytes] = {}
        self._sorted: Optional[list[str]] = None

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def size_bytes(self) -> int:
        return sum(len(v) for v in self._objects.values())

    # -- simulated operations ---------------------------------------------
    def put(self, key: str, data: bytes) -> Generator[Event, Any, None]:
        """Write an object (charges one device write of ``len(data)``)."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"object data must be bytes, got {type(data).__name__}")
        yield from self.device.write(len(data))
        self._store(key, data)

    def put_journaled(self, key: str, data: bytes):
        """Write-back put: the object becomes visible immediately (the
        replicated in-memory journal acks the write) and the device flush
        runs in the background.

        Returns the flush *generator*; the caller decides whether to run
        it as a background process (normal ingest) or drive it inline
        (synchronous durability).  The device stays busy during the
        flush, so concurrent reads still feel the write load.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"object data must be bytes, got {type(data).__name__}")
        self._store(key, data)
        return self.device.write(len(data))

    def _store(self, key: str, data) -> None:
        if key not in self._objects:
            self._sorted = None
        self._objects[key] = bytes(data)
        self._heads.pop(key, None)

    def get(self, key: str) -> Generator[Event, Any, bytes]:
        """Read a whole object."""
        data = self._peek(key)
        yield from self.device.read(len(data))
        return data

    def get_range(
        self, key: str, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        """Read ``length`` bytes at ``offset`` (charges only that range)."""
        data = self._peek(key)
        if offset < 0 or length < 0 or offset + length > len(data):
            raise ValueError(
                f"range [{offset}, {offset + length}) outside object of "
                f"{len(data)} bytes"
            )
        yield from self.device.read(length)
        return data[offset : offset + length]

    def delete(self, key: str) -> Generator[Event, Any, None]:
        self._blob(key)
        yield from self.device.write(0)  # metadata update
        del self._objects[key]
        self._heads.pop(key, None)
        self._sorted = None

    def patch(self, key: str, head: bytes) -> Generator[Event, Any, None]:
        """Replace the object's first ``len(head)`` bytes (a tombstone's
        chunk header): charges one device write of that many bytes, then
        holds ``head`` as the object's pending head.
        """
        yield from self.device.write(len(head))
        size = len(self._blob(key))
        if len(head) > size:
            raise ValueError(
                f"patch of {len(head)} bytes over an object of {size}"
            )
        pending = self._heads.get(key)
        if pending is not None and len(pending) > len(head):
            head = b"".join((head, pending[len(head) :]))
        self._heads[key] = bytes(head)

    # -- zero-cost inspection ----------------------------------------------
    def _blob(self, key: str) -> bytes:
        """The object as last written, without its pending head."""
        try:
            return self._objects[key]
        except KeyError:
            raise ObjectNotFoundError(key) from None

    def _peek(self, key: str) -> bytes:
        """The whole object, its pending head spliced in (once)."""
        data = self._blob(key)
        head = self._heads.pop(key, None)
        if head is not None:
            data = self._objects[key] = b"".join((head, data[len(head) :]))
        return data

    def peek(self, key: str) -> bytes:
        """Read object bytes without charging simulated time (tests/tools)."""
        return self._peek(key)

    def head(self, key: str) -> bytes:
        """The object's pending head, else the whole object: bytes that
        start the object, for a reader of its first bytes only (a chunk
        header).  Splices nothing and charges no simulated time."""
        head = self._heads.get(key)
        return head if head is not None else self._blob(key)

    def object_size(self, key: str) -> int:
        return len(self._blob(key))

    def list_keys(self, after: Optional[str] = None) -> list[str]:
        """All keys in sorted order, optionally strictly after ``after``."""
        if self._sorted is None:
            self._sorted = sorted(self._objects)
        if after is None:
            return list(self._sorted)
        import bisect

        idx = bisect.bisect_right(self._sorted, after)
        return self._sorted[idx:]

    def load(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Bulk-populate without simulated cost (fixture setup)."""
        for k, v in items:
            self._objects[k] = bytes(v)
            self._heads.pop(k, None)
        self._sorted = None
