"""Chunk-ID generation and codec (paper §4.1.2, Table 1).

A chunk ID is 16 bytes::

    bytes 0-3   creation timestamp, seconds, big-endian
    bytes 4-9   machine identifier (MAC address of the Ethernet interface)
    bytes 10-12 process ID
    bytes 13-15 per-process counter

Sorting chunk IDs therefore sorts chunks by creation time, which is what
metadata recovery relies on (§4.1.2, scenarios a and b): after losing the
in-memory key-value metadata, the server re-scans data chunks *in the
order they were written* — either from a known timestamp (scenario a) or
from the beginning (scenario b).

The paper stores the printable form in the object store ("converted into
printable characters (e.g., using base64)").  Standard base64's alphabet
is **not** lexicographically order-preserving, so this implementation
defaults to RFC 4648 *base32hex* (alphabet ``0-9 A-V``), which is — the
encoded string order equals the byte order, so a plain sorted listing of
the object store yields chunks in written order.  A base64 codec is also
provided for compatibility; it requires decoding before sorting.
"""

from __future__ import annotations

import base64
import hashlib
import os
import threading
import uuid
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

_TS_BYTES = 4
_MACHINE_BYTES = 6
_PID_BYTES = 3
_COUNTER_BYTES = 3
CHUNK_ID_BYTES = _TS_BYTES + _MACHINE_BYTES + _PID_BYTES + _COUNTER_BYTES

#: Maximum IDs one process can mint per second (3-byte counter):
#: the paper's "more than 16.7 million unique chunk IDs per second".
MAX_IDS_PER_SECOND = 1 << (8 * _COUNTER_BYTES)

#: Length of a base32hex-encoded 16-byte ID (no padding): ceil(16*8/5).
ENCODED_LENGTH = 26


@dataclass(frozen=True, order=True)
class ChunkId:
    """An immutable, totally-ordered chunk identifier.

    Ordering compares the raw 16 bytes, i.e. (timestamp, machine, pid,
    counter) lexicographically — the written order required for recovery.
    """

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != CHUNK_ID_BYTES:
            raise ValueError(
                f"chunk id must be {CHUNK_ID_BYTES} bytes, got {len(self.raw)}"
            )

    @property
    def timestamp(self) -> int:
        """Creation time in whole seconds."""
        return int.from_bytes(self.raw[0:4], "big")

    @property
    def machine(self) -> bytes:
        """Six-byte machine identifier (MAC address)."""
        return self.raw[4:10]

    @property
    def pid(self) -> int:
        return int.from_bytes(self.raw[10:13], "big")

    @property
    def counter(self) -> int:
        return int.from_bytes(self.raw[13:16], "big")

    def encode(self) -> str:
        """Order-preserving printable encoding (base32hex, lowercase-free)."""
        return self._encoded

    @cached_property
    def _encoded(self) -> str:
        # Memoised: every read resolves its chunk by this string.
        return base64.b32hexencode(self.raw).decode("ascii").rstrip("=")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.encode()

    @classmethod
    def from_parts(
        cls, timestamp: int, machine: bytes, pid: int, counter: int
    ) -> "ChunkId":
        if not 0 <= timestamp < 1 << 32:
            raise ValueError(f"timestamp out of range: {timestamp}")
        if len(machine) != _MACHINE_BYTES:
            raise ValueError(f"machine id must be {_MACHINE_BYTES} bytes")
        if not 0 <= pid < 1 << (8 * _PID_BYTES):
            raise ValueError(f"pid out of range: {pid}")
        if not 0 <= counter < 1 << (8 * _COUNTER_BYTES):
            raise ValueError(f"counter out of range: {counter}")
        raw = (
            timestamp.to_bytes(_TS_BYTES, "big")
            + machine
            + pid.to_bytes(_PID_BYTES, "big")
            + counter.to_bytes(_COUNTER_BYTES, "big")
        )
        return cls(raw)


def decode_chunk_id(encoded: str) -> ChunkId:
    """Decode the order-preserving base32hex form back to a :class:`ChunkId`."""
    pad = "=" * (-len(encoded) % 8)
    try:
        raw = base64.b32hexdecode(encoded + pad)
    except ValueError as exc:  # binascii.Error subclasses ValueError
        raise ValueError(f"invalid chunk id encoding: {encoded!r}") from exc
    return ChunkId(raw)


def _local_machine_id() -> bytes:
    """Best-effort 6-byte machine identifier (MAC via uuid.getnode)."""
    return uuid.getnode().to_bytes(6, "big")


_instance_counter = 0
_instance_lock = threading.Lock()


def _next_default_pid() -> int:
    """A unique default 'process id' per generator instance.

    Real DIESEL runs one generator per OS process, so os.getpid() is
    unique.  Inside one simulation many *simulated* processes share the
    interpreter's pid; mixing in a per-instance counter preserves the
    Table 1 uniqueness guarantee across simulated writers.
    """
    global _instance_counter
    with _instance_lock:
        _instance_counter += 1
        return (os.getpid() + _instance_counter) % (1 << (8 * _PID_BYTES))


def sim_id_generator(
    name: str, clock: "callable[[], float] | None" = None
) -> "ChunkIdGenerator":
    """A :class:`ChunkIdGenerator` whose machine/pid derive from ``name``.

    The default generator identifies the writer by host MAC and OS pid —
    correct for real deployments, but it makes chunk IDs (and anything
    hashed from them, e.g. per-chunk compression ratios) vary from one
    interpreter run to the next.  Simulated writers have a stable name
    instead, so hashing the name into the machine/pid fields keeps the
    Table 1 uniqueness guarantee across writers *and* makes every sim
    run bit-identical.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=9).digest()
    return ChunkIdGenerator(
        machine=digest[:_MACHINE_BYTES],
        pid=int.from_bytes(digest[_MACHINE_BYTES:], "big"),
        clock=clock,
    )


class ChunkIdGenerator:
    """Mints monotonically increasing chunk IDs for one writer process.

    Thread-safe.  A simulated clock callable may be supplied so that IDs
    minted inside the discrete-event simulation are ordered by *simulated*
    time; by default IDs use a deterministic logical second counter so
    tests are reproducible without wall-clock dependence.
    """

    def __init__(
        self,
        machine: bytes | None = None,
        pid: int | None = None,
        clock: "callable[[], float] | None" = None,
    ) -> None:
        self._machine = machine if machine is not None else _local_machine_id()
        raw_pid = pid if pid is not None else _next_default_pid()
        self._pid = raw_pid % (1 << (8 * _PID_BYTES))
        self._clock = clock
        self._lock = threading.Lock()
        self._last_second = -1
        self._counter = 0
        self._logical_second = 0

    def _current_second(self) -> int:
        if self._clock is not None:
            return int(self._clock())
        # Deterministic logical time: advance when the counter would wrap.
        return self._logical_second

    def next(self) -> ChunkId:
        """Mint the next ID; never returns duplicates within this process."""
        with self._lock:
            second = self._current_second()
            if second < self._last_second:
                # Clock went backwards (possible with simulated clocks that
                # are reset); keep IDs monotone by staying on the old second.
                second = self._last_second
            if second != self._last_second:
                self._last_second = second
                self._counter = 0
            if self._counter >= MAX_IDS_PER_SECOND:
                # Counter exhausted within one second: borrow the next one.
                second += 1
                self._last_second = second
                self._counter = 0
                if self._clock is None:
                    self._logical_second = second
            cid = ChunkId.from_parts(second, self._machine, self._pid, self._counter)
            self._counter += 1
            return cid

    def take(self, n: int) -> Iterator[ChunkId]:
        """Yield ``n`` fresh IDs."""
        for _ in range(n):
            yield self.next()
