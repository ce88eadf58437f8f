"""Exception hierarchy for the DIESEL reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """Raised when the event loop runs dry while processes are still waiting."""


class InterruptError(SimulationError):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.engine.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class ClusterError(ReproError):
    """Raised for invalid cluster topology operations."""


class NodeDownError(ClusterError):
    """Raised when an operation targets a failed node or service."""

    def __init__(self, node: str, detail: str = "") -> None:
        msg = f"node {node!r} is down"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.node = node


class StorageError(ReproError):
    """Base class for object-store and device failures."""


class ObjectNotFoundError(StorageError, KeyError):
    """Raised when an object key does not exist in an object store."""

    def __init__(self, key: str) -> None:
        super().__init__(f"object not found: {key!r}")
        self.key = key


class KVError(ReproError):
    """Base class for key-value store failures."""


class KeyNotFoundError(KVError, KeyError):
    """Raised when a key is absent from the KV store."""

    def __init__(self, key: str) -> None:
        super().__init__(f"key not found: {key!r}")
        self.key = key


class ShardUnavailableError(KVError):
    """Raised when the shard owning a key is down."""


class DieselError(ReproError):
    """Base class for DIESEL client/server protocol errors."""


class FileNotFoundInDatasetError(DieselError, FileNotFoundError):
    """Raised when a path does not exist in a DIESEL dataset."""

    def __init__(self, path: str) -> None:
        super().__init__(f"no such file in dataset: {path!r}")
        self.path = path


class FileExistsInDatasetError(DieselError, FileExistsError):
    """Raised when putting a path that already exists (without overwrite)."""

    def __init__(self, path: str) -> None:
        super().__init__(f"file already exists in dataset: {path!r}")
        self.path = path


class DatasetNotFoundError(DieselError):
    """Raised when a dataset name is unknown to the DIESEL server."""

    def __init__(self, dataset: str) -> None:
        super().__init__(f"no such dataset: {dataset!r}")
        self.dataset = dataset


class StaleSnapshotError(DieselError):
    """Raised when a loaded metadata snapshot is older than the dataset."""

    def __init__(self, dataset: str, snapshot_ts: int, current_ts: int) -> None:
        super().__init__(
            f"snapshot for dataset {dataset!r} is stale "
            f"(snapshot ts={snapshot_ts}, dataset ts={current_ts})"
        )
        self.dataset = dataset
        self.snapshot_ts = snapshot_ts
        self.current_ts = current_ts


class DeltaConflictError(DieselError):
    """Raised when a metadata delta cannot be applied to an index.

    Covers re-applying an already applied delta (idempotence guard), a
    version gap past the journal horizon, and journal ops that disagree
    with the index state (e.g. deleting an unknown path).  The right
    recovery is always a full snapshot reload.
    """

    def __init__(
        self, dataset: str, index_ts: int, entry_ts: int, detail: str = ""
    ) -> None:
        msg = (
            f"delta for dataset {dataset!r} does not apply: index at "
            f"ts {index_ts}, entry at ts {entry_ts}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.dataset = dataset
        self.index_ts = index_ts
        self.entry_ts = entry_ts


class JournalFormatError(DieselError):
    """Raised when an encoded journal entry fails structural validation
    (truncated, padded, unknown op kind).  Recovery is a full reload."""


class ChunkFormatError(DieselError):
    """Raised when chunk bytes fail structural validation."""


class ChunkChecksumError(ChunkFormatError):
    """Raised when a chunk or file payload fails its checksum."""


class ClosedError(DieselError):
    """Raised when using a closed client context or server."""


class AuthError(DieselError):
    """Raised when DL_connect credentials are rejected."""

    def __init__(self, user: str) -> None:
        super().__init__(f"authentication failed for user {user!r}")
        self.user = user


class FaultToleranceError(ReproError):
    """Base class for failures raised by the fault-tolerance layer."""


class DeadlineExceededError(FaultToleranceError):
    """Raised when an RPC attempt overruns its per-call deadline."""

    def __init__(self, deadline_s: float, detail: str = "") -> None:
        msg = f"call exceeded deadline of {deadline_s}s"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.deadline_s = deadline_s


class CircuitOpenError(FaultToleranceError):
    """Raised when a peer's circuit breaker is open (fast-fail, no RPC)."""

    def __init__(self, peer: str) -> None:
        super().__init__(f"circuit breaker for peer {peer!r} is open")
        self.peer = peer


class CacheError(ReproError):
    """Base class for distributed-cache failures."""


class CachePeerDownError(CacheError):
    """Raised when a cache peer holding a partition is unreachable."""

    def __init__(self, peer: str) -> None:
        super().__init__(f"cache peer {peer!r} is unreachable")
        self.peer = peer
