"""Storage device models.

A device is a ``queue_depth``-server FIFO queueing station whose service
time for one operation of ``n`` bytes is::

    t(n) = per_op_s + n / bandwidth_bps

This two-parameter model reproduces the paper's Table 2 (read bandwidth
and IOPS versus file size on the SSD storage cluster) within ~10 % across
all seven rows — see :class:`repro.calibration.NvmeProfile` for the fit.
Small requests are dominated by ``per_op_s`` (IOPS-bound), large requests
by the ``n / bandwidth`` term (bandwidth-bound); the crossover is exactly
the behaviour DIESEL's ≥4 MB chunks exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.calibration import NvmeProfile
from repro.errors import NodeDownError
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event, Semaphore


@dataclass(slots=True)
class DeviceStats(Counters):
    """Cumulative operation counters for a device."""

    read_ops: int = 0
    read_bytes: int = 0
    write_ops: int = 0
    write_bytes: int = 0
    busy_time: float = 0.0


class Device:
    """A storage device (or aggregated storage cluster) queueing station."""

    def __init__(
        self,
        env: Environment,
        name: str,
        per_op_s: float,
        bandwidth_bps: float,
        queue_depth: int = 1,
    ) -> None:
        if per_op_s < 0:
            raise ValueError("per_op_s must be non-negative")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        self.env = env
        self.name = name
        self.per_op_s = per_op_s
        self.bandwidth_bps = bandwidth_bps
        self._station = Semaphore(env, queue_depth)
        self.stats = DeviceStats()
        self._alive = True

    @classmethod
    def nvme(cls, env: Environment, name: str = "nvme", profile: NvmeProfile | None = None) -> "Device":
        p = profile or NvmeProfile()
        return cls(env, name, p.per_op_s, p.bandwidth_bps, p.queue_depth)

    @property
    def alive(self) -> bool:
        return self._alive

    def fail(self) -> None:
        """Take the device offline; in-flight and future ops will error."""
        self._alive = False

    def restore(self) -> None:
        self._alive = True

    def op_time(self, nbytes: int, op_multiplier: float = 1.0) -> float:
        """Service time of one operation of ``nbytes`` (no queueing).

        ``op_multiplier`` scales the fixed per-op term only — used for
        op classes with extra fixed overhead (e.g. Lustre's journaled
        creates) whose streaming bandwidth is unchanged.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if op_multiplier <= 0:
            raise ValueError("op_multiplier must be positive")
        return self.per_op_s * op_multiplier + nbytes / self.bandwidth_bps

    def _do_op(
        self, nbytes: int, op_multiplier: float = 1.0
    ) -> Generator[Event, Any, None]:
        if not self._alive:
            raise NodeDownError(self.name, "device offline")
        t = self.op_time(nbytes, op_multiplier)
        yield from self._station.use(t)
        if not self._alive:
            raise NodeDownError(self.name, "device failed mid-operation")
        self.stats.busy_time += t

    def read(
        self, nbytes: int, op_multiplier: float = 1.0
    ) -> Generator[Event, Any, None]:
        """Charge one read of ``nbytes`` (generator; run inside a process)."""
        yield from self._do_op(nbytes, op_multiplier)
        self.stats.read_ops += 1
        self.stats.read_bytes += nbytes

    def write(
        self, nbytes: int, op_multiplier: float = 1.0
    ) -> Generator[Event, Any, None]:
        """Charge one write of ``nbytes``."""
        yield from self._do_op(nbytes, op_multiplier)
        self.stats.write_ops += 1
        self.stats.write_bytes += nbytes

    def __repr__(self) -> str:
        return (
            f"Device({self.name!r}, per_op={self.per_op_s * 1e6:.1f}us, "
            f"bw={self.bandwidth_bps / 2**30:.2f}GiB/s)"
        )
