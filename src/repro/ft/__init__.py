"""Fault tolerance: failure detection and self-healing.

The paper's robustness story (§4.1.2 metadata recovery, §4.2 failure
containment, Fig 6/11b) assumes failures are *noticed* and recovery is
*automatic*.  This package supplies that machinery for the simulated
deployment:

* :class:`~repro.ft.detector.FailureDetector` — heartbeat/probe loop
  marking peers alive → suspect → dead, with data-path failure reports
  for instant detection;
* :class:`~repro.ft.supervisor.CacheSupervisor` /
  :class:`~repro.ft.supervisor.KVSupervisor` — detector-driven
  ``TaskCache.recover()`` and ``rebuild_dataset(from_timestamp)`` with
  no operator in the loop.

A failed cache-peer call is not retried: a killed cache node does not
come back, so the read degrades to the DIESEL server at once
(``TaskCache._ask_owner``) and the detector hears of it.

See ``docs/FAULTS.md`` for the model and a worked example.
"""

from repro.ft.detector import ALIVE, DEAD, SUSPECT, FailureDetector
from repro.ft.supervisor import CacheSupervisor, KVSupervisor

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "CacheSupervisor",
    "FailureDetector",
    "KVSupervisor",
]
