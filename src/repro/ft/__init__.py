"""Fault tolerance: failure detection, retry/backoff, self-healing.

The paper's robustness story (§4.1.2 metadata recovery, §4.2 failure
containment, Fig 6/11b) assumes failures are *noticed* and recovery is
*automatic*.  This package supplies that machinery for the simulated
deployment:

* :class:`~repro.ft.detector.FailureDetector` — heartbeat/probe loop
  marking peers alive → suspect → dead, with data-path failure reports
  for instant detection;
* :func:`~repro.ft.retry.retry_call` — capped exponential backoff with
  seeded jitter around any RPC generator, behind a
  :class:`~repro.ft.breaker.CircuitBreaker` that fast-fails once a peer
  is known bad;
* :func:`~repro.ft.hedge.hedged_call` /
  :class:`~repro.ft.hedge.PeerLatencyTracker` — hedged requests after a
  fixed delay, hiding stragglers the detector never flags;
* :class:`~repro.ft.supervisor.CacheSupervisor` /
  :class:`~repro.ft.supervisor.KVSupervisor` — detector-driven
  ``TaskCache.recover()`` and ``rebuild_dataset(from_timestamp)`` with
  no operator in the loop.

See ``docs/FAULTS.md`` for the model and a worked example.
"""

from repro.ft.breaker import CircuitBreaker
from repro.ft.detector import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.ft.hedge import (
    HedgeOutcome,
    HedgeStats,
    PeerLatencyTracker,
    hedged_call,
)
from repro.ft.retry import TRANSIENT_ERRORS, retry_call
from repro.ft.supervisor import CacheSupervisor, KVSupervisor

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "TRANSIENT_ERRORS",
    "CacheSupervisor",
    "CircuitBreaker",
    "FailureDetector",
    "HedgeOutcome",
    "HedgeStats",
    "KVSupervisor",
    "PeerLatencyTracker",
    "hedged_call",
    "retry_call",
]
