"""Client-side aggregation of small files into chunks (write flow, Fig 3).

``DL_put`` appends files to the builder; whenever the buffered payload
reaches the chunk size the builder seals a chunk and hands it to a sink
(normally the DIESEL server's ingest RPC).  ``DL_flush`` seals whatever
remains.  Aggregation is what turns millions of per-file operations into
a few thousand large object writes — the source of the Fig 9 write win.

:class:`ChunkPipeline` is the *asynchronous* sink: instead of blocking
``DL_put`` for each sealed chunk's full ingest round trip, it keeps up
to ``DieselConfig.ingest_pipeline_depth`` sends in flight across the
round-robin servers while later files are still being packed — the
overlap §4.1.1's stateless-server design exists to permit.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.core.chunk import DEFAULT_CHUNK_SIZE, Chunk
from repro.errors import DieselError
from repro.sim.engine import Environment, Event, Process, Semaphore
from repro.util.ids import ChunkIdGenerator
from repro.util.pathutil import normalize


class ChunkBuilder:
    """Accumulates (path, payload) pairs and seals chunks of ≥ chunk_size."""

    def __init__(
        self,
        id_generator: ChunkIdGenerator,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        on_seal: Optional[Callable[[Chunk], None]] = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self._ids = id_generator
        self.chunk_size = chunk_size
        self._on_seal = on_seal
        self._pending: list[tuple[str, bytes]] = []
        self._pending_paths: set[str] = set()
        self._pending_bytes = 0
        self.sealed_count = 0

    def add(self, path: str, payload: bytes) -> Optional[Chunk]:
        """Buffer one file; returns a sealed chunk when the size threshold
        is crossed, else None."""
        path = normalize(path)
        if path in self._pending_paths:
            raise DieselError(
                f"path {path!r} already pending in the current chunk"
            )
        payload = bytes(payload)
        self._pending.append((path, payload))
        self._pending_paths.add(path)
        self._pending_bytes += len(payload)
        if self._pending_bytes >= self.chunk_size:
            return self._seal()
        return None

    def flush(self) -> Optional[Chunk]:
        """Seal any buffered files into a final (possibly small) chunk."""
        if not self._pending:
            return None
        return self._seal()

    def _seal(self) -> Chunk:
        chunk = Chunk.pack(self._ids.next(), self._pending)
        self._pending = []
        self._pending_paths = set()
        self._pending_bytes = 0
        self.sealed_count += 1
        if self._on_seal is not None:
            self._on_seal(chunk)
        return chunk

    def build_all(
        self, items, chunk_size: Optional[int] = None
    ) -> list[Chunk]:
        """Convenience: pack an iterable of (path, bytes) into chunks."""
        if chunk_size is not None:
            self.chunk_size = chunk_size
        return list(self.build_stream(items))

    def build_stream(
        self, items: Iterable[tuple[str, bytes]]
    ) -> Iterator[Chunk]:
        """Lazily seal chunks for an iterable of (path, bytes) pairs.

        The async-sink twin of :meth:`build_all`: chunks come out as
        they seal (final flush included), so a :class:`ChunkPipeline`
        can ship each one while later files are still being packed.
        """
        for path, payload in items:
            sealed = self.add(path, payload)
            if sealed is not None:
                yield sealed
        final = self.flush()
        if final is not None:
            yield final


class ChunkPipeline:
    """Bounded asynchronous sink for sealed chunks (§4.1.1 write overlap).

    Wraps a ``ship(chunk)`` generator (normally the client's ingest RPC)
    behind a :class:`~repro.sim.engine.Semaphore` of ``depth`` slots:
    :meth:`submit` waits only while ``depth`` sends are already in
    flight (backpressure bounds buffered memory at
    ``depth × chunk_size``), then ships the chunk in a background
    process.  :meth:`drain` waits for everything in flight and
    propagates the first send failure.
    """

    def __init__(
        self,
        env: Environment,
        ship: Callable[[Chunk], Generator[Event, Any, None]],
        depth: int,
        watermark: Optional[Callable[[int], None]] = None,
    ) -> None:
        if depth < 1:
            raise DieselError("ingest pipeline depth must be >= 1")
        self.env = env
        self.depth = depth
        self._ship = ship
        self._sem = Semaphore(env, depth)
        self._watermark = watermark
        self._procs: list[Process] = []
        self.submitted = 0
        self.shipped = 0

    @property
    def in_flight(self) -> int:
        """Sends currently holding a pipeline slot."""
        return self._sem.in_flight

    def submit(self, chunk: Chunk) -> Generator[Event, Any, None]:
        """Wait for a free slot, then ship ``chunk`` in the background."""
        slot = self._sem.acquire()
        try:
            yield slot
        except BaseException:
            self._sem.abandon(slot)
            raise
        self.submitted += 1
        if self._watermark is not None:
            self._watermark(self._sem.in_flight)
        self._procs.append(
            self.env.process(
                self._send(chunk, slot),
                name=f"ingest:{chunk.chunk_id.encode()[:8]}",
            )
        )

    def _send(self, chunk: Chunk, slot: Event) -> Generator[Event, Any, None]:
        try:
            yield from self._ship(chunk)
            self.shipped += 1
        finally:
            self._sem.release(slot)

    def drain(self) -> Generator[Event, Any, None]:
        """Wait for all in-flight sends; propagates the first failure."""
        procs, self._procs = self._procs, []
        if procs:
            yield self.env.all_of(procs)

    def cancel(self) -> int:
        """Interrupt in-flight sends (DL_close without a flush).

        Returns the number of sends cut short; their semaphore slots are
        released by the send processes' cleanup.
        """
        cut = 0
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("ingest pipeline cancelled")
                cut += 1
        self._procs.clear()
        return cut
