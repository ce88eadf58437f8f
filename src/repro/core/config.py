"""System configuration + the ETCD-like config store (Fig 2).

The paper stores system configuration in an ETCD server; DIESEL servers
and clients read it at startup.  :class:`ConfigStore` is a minimal
strongly-consistent key-value config service with watch callbacks;
:class:`DieselConfig` is the typed bundle the DIESEL components consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.core.chunk import DEFAULT_CHUNK_SIZE


@dataclass(frozen=True)
class DieselConfig:
    """Tunables for a DIESEL deployment."""

    #: Target chunk payload size; the paper mandates ≥ 4 MB.
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Chunk-wise shuffle group size (chunks per group, §4.3/Fig 13).
    shuffle_group_size: int = 100
    #: Chunks kept in flight ahead of the shuffle-mode consumer (§4.3's
    #: "sequential chunk reads hidden behind compute").  0 disables the
    #: pipeline: every group-cache miss stalls for a full chunk fetch.
    prefetch_depth: int = 0
    #: Sealed chunks DL_put keeps in flight across round-robin servers
    #: (§4.1.1's write overlap, the Fig 9 discipline).  1 = ship each
    #: chunk synchronously before packing the next (legacy serial path).
    ingest_pipeline_depth: int = 1
    #: Concurrent chunk/file fetches a batched read (``get_many``)
    #: scatters across servers and cache masters.  1 = resolve the
    #: batch's chunk groups serially (legacy).
    read_fanout: int = 1
    #: Discrete-event scheduler backing the simulation Environment:
    #: 'calendar' (calendar-queue/timer-wheel, near-O(1) under the
    #: fabric's bimodal delays) or 'heap' (flat binary heap baseline
    #: kept for A/B testing).  Same-tick FIFO order is identical under
    #: both.
    sim_scheduler: str = "calendar"
    #: Failure-detector probe period (seconds of simulated time).  Each
    #: watched peer is probed once per interval.
    heartbeat_interval_s: float = 0.05
    #: How long a peer may go unreachable before the detector declares
    #: it dead (suspect in the meantime).  Must exceed the heartbeat
    #: interval, or a single missed probe would be fatal.
    failure_timeout_s: float = 0.25
    #: Extra RPC attempts after the first failure (0 = fail on first
    #: error, the legacy behaviour).
    rpc_retries: int = 2
    #: First-retry backoff delay; doubles per attempt (with jitter).
    rpc_backoff_base_s: float = 0.002
    #: Per-attempt deadline; an attempt still in flight after this long
    #: is abandoned and counted as a failure.  0 disables deadlines.
    rpc_deadline_s: float = 0.0
    #: Consecutive failures against one peer that trip its circuit
    #: breaker (subsequent calls fast-fail to the degraded path).
    breaker_threshold: int = 5
    #: How long a tripped breaker stays open before a half-open probe
    #: call is allowed through.
    breaker_reset_s: float = 1.0
    #: Hedge remote cache reads: once a peer call outlives its
    #: calibrated p95 delay, fire a backup request to a replica (or the
    #: backend) and take whichever answers first, cancelling the loser
    #: (straggler mitigation; "The Tail at Scale").
    hedge_enabled: bool = False
    #: Fixed hedge delay in seconds.  0 calibrates the delay per peer
    #: from its EWMA latency tracker (mean + 4·deviation, ≈ p95).
    hedge_delay_s: float = 0.0
    #: EWMA smoothing factor for the per-peer latency tracker feeding
    #: hedge-delay calibration and replica steering.
    hedge_ewma_alpha: float = 0.2
    #: Mutation-journal entries retained per dataset (the delta metadata
    #: plane, ``repro.core.meta_journal``): a client whose snapshot is at
    #: most this many versions old refreshes by applying the delta
    #: instead of a full O(dataset) snapshot reload; older clients fall
    #: back to the full path.  0 disables journaling entirely.
    meta_journal_horizon: int = 256
    #: Page size (keys per round trip) for cursor-paginated prefix scans:
    #: ``ls -lR``, snapshot builds and registry listings stream pages of
    #: this size instead of materializing the whole prefix range.
    pscan_page_size: int = 1024
    #: Registry shards the dataset namespace is spread over
    #: (``repro.core.registry``); each shard is one independently
    #: pageable key range.  Rebalance the registry when changing this on
    #: a live deployment.
    registry_shards: int = 16

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.shuffle_group_size < 1:
            raise ValueError("shuffle_group_size must be >= 1")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.ingest_pipeline_depth < 1:
            raise ValueError("ingest_pipeline_depth must be >= 1")
        if self.read_fanout < 1:
            raise ValueError("read_fanout must be >= 1")
        if self.sim_scheduler not in ("calendar", "heap"):
            raise ValueError(f"unknown sim scheduler: {self.sim_scheduler!r}")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.failure_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "failure_timeout_s must exceed heartbeat_interval_s"
            )
        if self.rpc_retries < 0:
            raise ValueError("rpc_retries must be >= 0")
        if self.rpc_backoff_base_s <= 0:
            raise ValueError("rpc_backoff_base_s must be positive")
        if self.rpc_deadline_s < 0:
            raise ValueError("rpc_deadline_s must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_reset_s <= 0:
            raise ValueError("breaker_reset_s must be positive")
        if self.hedge_delay_s < 0:
            raise ValueError("hedge_delay_s must be >= 0")
        if not 0.0 < self.hedge_ewma_alpha <= 1.0:
            raise ValueError("hedge_ewma_alpha must be in (0, 1]")
        if self.meta_journal_horizon < 0:
            raise ValueError("meta_journal_horizon must be >= 0")
        if self.pscan_page_size < 1:
            raise ValueError("pscan_page_size must be >= 1")
        if self.registry_shards < 1:
            raise ValueError("registry_shards must be >= 1")


class ConfigStore:
    """A tiny ETCD stand-in: versioned keys + watch callbacks."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        self._watchers: Dict[str, List[Callable[[str, Any], None]]] = {}

    def put(self, key: str, value: Any) -> int:
        """Set a key; returns its new version; fires watchers."""
        self._data[key] = value
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        for cb in self._watchers.get(key, ()):
            cb(key, value)
        return version

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def version(self, key: str) -> int:
        return self._versions.get(key, 0)

    def delete(self, key: str) -> bool:
        if key not in self._data:
            return False
        del self._data[key]
        self._versions[key] = self._versions.get(key, 0) + 1
        for cb in self._watchers.get(key, ()):
            cb(key, None)
        return True

    def watch(self, key: str, callback: Callable[[str, Any], None]) -> None:
        self._watchers.setdefault(key, []).append(callback)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))
