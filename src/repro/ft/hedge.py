"""Hedged requests and per-peer latency tracking (straggler mitigation).

A straggling peer is not *down* — the failure detector and circuit
breaker never fire — yet one 10×-slow node can dominate read tail
latency.  The classic cure ("The Tail at Scale", Dean & Barroso) is the
*hedged request*: wait a calibrated delay roughly at the peer's p95
latency, then fire a backup request to another replica (or the backend)
and take whichever answers first, cancelling the loser so the duplicate
work is suppressed rather than paid.

Two pieces live here:

* :class:`PeerLatencyTracker` — EWMA mean + mean-absolute-deviation of
  observed per-peer call latency (Jacobson-style, like TCP RTO).  Its
  :meth:`~PeerLatencyTracker.hedge_delay` is ``mean + dev_mult·dev``, a
  cheap p95-ish bound that needs no histogram; :meth:`~PeerLatencyTracker.fastest`
  steers replica fan-out away from slow peers.
* :func:`hedged_call` — the race combinator: drives the primary as a
  child process, arms the backup after ``delay_s``, returns a
  :class:`HedgeOutcome` describing who won and whether the loser was
  cancelled in time or completed anyway (a counted duplicate).

Everything runs on the simulation clock; no wall-clock, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Hashable, Iterable, Optional

from repro.errors import InterruptError
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event


@dataclass(slots=True)
class HedgeStats(Counters):
    """Counters for hedged calls (one instance per task cache)."""

    #: Hedge-wrapped calls issued (whether or not the hedge fired).
    reads: int = 0
    #: Backups launched because the primary outlived its hedge delay.
    hedges_fired: int = 0
    #: Races the primary won (includes unhedged fast paths).
    primary_wins: int = 0
    #: Races the backup won — the straggler was successfully hidden.
    backup_wins: int = 0
    #: Primary failed outright and the backup was fired as a failover.
    failovers: int = 0
    #: Losers interrupted while still in flight (duplicate suppressed).
    cancelled_losers: int = 0
    #: Losers that completed anyway — duplicate work actually paid.
    duplicate_transfers: int = 0
    #: Primary attempts that raised while a backup was racing.
    primary_failures: int = 0
    #: Backup attempts that raised.
    backup_failures: int = 0


@dataclass
class HedgeOutcome:
    """What one :func:`hedged_call` did, for the caller's accounting."""

    value: Any = None
    #: ``"primary"`` or ``"backup"``.
    winner: str = ""
    #: True when the backup was launched by the delay timer.
    hedged: bool = False
    #: True when the loser completed anyway (duplicate transfer paid).
    duplicate: bool = False
    primary_error: Optional[BaseException] = None
    backup_error: Optional[BaseException] = None
    #: Wall time of a successful primary (feed to the latency tracker).
    primary_latency_s: Optional[float] = None


class PeerLatencyTracker:
    """EWMA latency model per peer, with a p95-ish hedge-delay estimate.

    A "peer" is any hashable key naming one latency population — the
    task cache keys by ``(peer name, method)`` so replies of different
    sizes never share an estimate.

    ``observe(peer, latency)`` folds a sample in:
    ``err = x - mean; mean += alpha·err; dev += alpha·(|err| - dev)``
    (first sample seeds ``mean = x, dev = x/2``, as TCP does for RTT).
    """

    def __init__(
        self,
        alpha: float = 0.2,
        dev_mult: float = 4.0,
        min_samples: int = 3,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if dev_mult <= 0:
            raise ValueError("dev_mult must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.alpha = alpha
        self.dev_mult = dev_mult
        self.min_samples = min_samples
        self._mean: Dict[Hashable, float] = {}
        self._dev: Dict[Hashable, float] = {}
        self._count: Dict[Hashable, int] = {}

    def observe(self, peer: Hashable, latency_s: float) -> None:
        """Fold one completed-call latency sample for ``peer``."""
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        n = self._count.get(peer, 0)
        if n == 0:
            self._mean[peer] = latency_s
            self._dev[peer] = latency_s / 2.0
        else:
            err = latency_s - self._mean[peer]
            self._mean[peer] += self.alpha * err
            self._dev[peer] += self.alpha * (abs(err) - self._dev[peer])
        self._count[peer] = n + 1

    def samples(self, peer: Hashable) -> int:
        return self._count.get(peer, 0)

    def mean(self, peer: Hashable) -> Optional[float]:
        return self._mean.get(peer)

    def hedge_delay(self, peer: Hashable, floor_s: float = 0.0) -> Optional[float]:
        """Calibrated hedge delay for ``peer`` — ``mean + dev_mult·dev``,
        or ``None`` until ``min_samples`` observations exist (hedging
        with an uncalibrated delay just duplicates every call)."""
        if self._count.get(peer, 0) < self.min_samples:
            return None
        return max(floor_s, self._mean[peer] + self.dev_mult * self._dev[peer])

    def fastest(self, peers: Iterable[Hashable]) -> Optional[Hashable]:
        """The peer with the lowest EWMA mean; never-observed peers rank
        first (optimistically — one call prices them in)."""
        best = None
        best_key = None
        for p in peers:
            key = self._mean.get(p, 0.0)
            if best is None or key < best_key:
                best, best_key = p, key
        return best

    def rows(self) -> list:
        """Per-peer view for probes/CLI: sorted by EWMA mean descending
        (slowest first, since those are the ones worth looking at)."""
        out = [
            {
                "peer": p,
                "samples": self._count[p],
                "ewma_s": self._mean[p],
                "dev_s": self._dev[p],
                "hedge_delay_s": self.hedge_delay(p),
            }
            for p in self._count
        ]
        out.sort(key=lambda r: -r["ewma_s"])
        return out


def _settle_loser(proc, role: str, out: HedgeOutcome, stats: HedgeStats) -> None:
    """Cancel (or account) the racer that lost."""
    if proc.is_alive:
        proc.interrupt("hedge lost")
        stats.cancelled_losers += 1
    elif proc.ok:
        out.duplicate = True
        stats.duplicate_transfers += 1
    else:
        err = proc.value
        if role == "primary":
            out.primary_error = err
            stats.primary_failures += 1
        else:
            out.backup_error = err
            stats.backup_failures += 1


def hedged_call(
    env: Environment,
    primary: Generator[Event, Any, Any],
    backup: Callable[[], Generator[Event, Any, Any]],
    delay_s: float,
    stats: Optional[HedgeStats] = None,
    name: str = "hedge",
) -> Generator[Event, Any, Any]:
    """Race ``primary`` against a ``delay_s``-delayed ``backup``.

    A generator — drive with ``yield from``.  ``primary`` is a ready
    call generator; ``backup`` is a zero-argument factory, constructed
    only if the hedge actually fires (or the primary fails first, in
    which case the backup runs immediately as a failover).

    First *success* wins and the loser is interrupted so its held
    resources (NIC channels, RPC worker slots, semaphore slots) drain
    through their ``finally`` blocks; a loser that completed in the same
    tick is counted as a duplicate instead.  If both racers fail, the
    primary's error is re-raised.  An interrupt of the *caller* tears
    both racers down and propagates — hedging never leaks processes.
    """
    out = HedgeOutcome()
    if stats is None:
        stats = HedgeStats()  # counted, then dropped
    stats.reads += 1
    t0 = env.now
    pproc = env.process(primary, name=f"{name}:primary")
    timer = env.timeout(delay_s)
    try:
        yield env.any_of([pproc, timer])
    except InterruptError:
        if pproc.is_alive:
            pproc.interrupt("hedge torn down")
        raise
    except Exception:
        pass  # primary failed before the timer; inspected below

    if pproc.triggered and pproc.ok:
        out.winner = "primary"
        out.value = pproc.value
        out.primary_latency_s = env.now - t0
        stats.primary_wins += 1
        return out

    if pproc.triggered:
        # Primary failed before the hedge delay elapsed: fire the backup
        # immediately.  This is a failover, not a hedge — the duplicate
        # counters stay untouched.
        out.primary_error = pproc.value
        stats.primary_failures += 1
        stats.failovers += 1
        bproc = env.process(backup(), name=f"{name}:failover")
        try:
            out.value = yield bproc
        except InterruptError:
            if bproc.is_alive:
                bproc.interrupt("hedge torn down")
            raise
        except Exception as exc:
            out.backup_error = exc
            stats.backup_failures += 1
            raise out.primary_error from exc
        out.winner = "backup"
        return out

    # The delay elapsed with the primary still in flight: hedge.
    out.hedged = True
    stats.hedges_fired += 1
    bproc = env.process(backup(), name=f"{name}:backup")
    try:
        yield env.any_of([pproc, bproc])
    except InterruptError:
        for proc in (pproc, bproc):
            if proc.is_alive:
                proc.interrupt("hedge torn down")
        raise
    except Exception:
        pass  # one racer failed; the other may still win

    if pproc.triggered and pproc.ok:
        out.winner = "primary"
        out.value = pproc.value
        out.primary_latency_s = env.now - t0
        stats.primary_wins += 1
        _settle_loser(bproc, "backup", out, stats)
        return out
    if bproc.triggered and bproc.ok:
        out.winner = "backup"
        out.value = bproc.value
        stats.backup_wins += 1
        _settle_loser(pproc, "primary", out, stats)
        return out

    # No winner yet — at least one racer failed.  Wait out the survivor.
    if pproc.triggered and bproc.triggered:
        out.primary_error = pproc.value
        out.backup_error = bproc.value
        stats.primary_failures += 1
        stats.backup_failures += 1
        raise out.primary_error
    survivor, role = (pproc, "primary") if pproc.is_alive else (bproc, "backup")
    fallen, fallen_role = (bproc, "backup") if role == "primary" else (pproc, "primary")
    _settle_loser(fallen, fallen_role, out, stats)
    try:
        out.value = yield survivor
    except InterruptError:
        if survivor.is_alive:
            survivor.interrupt("hedge torn down")
        raise
    except Exception as exc:
        if role == "primary":
            out.primary_error = exc
            stats.primary_failures += 1
            raise
        out.backup_error = exc
        stats.backup_failures += 1
        raise out.primary_error from exc
    out.winner = role
    if role == "primary":
        out.primary_latency_s = env.now - t0
        stats.primary_wins += 1
    else:
        stats.backup_wins += 1
    return out
