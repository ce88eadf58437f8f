"""Hedged requests (straggler mitigation).

A straggling peer is not *down* — the failure detector never fires —
yet one 10×-slow node can dominate read tail latency.  The classic cure
("The Tail at Scale", Dean & Barroso) is the *hedged request*: wait a
fixed delay above the healthy tail latency, then fire a backup request
(the task cache sends it to the DIESEL server) and take whichever answers first,
cancelling the loser so the duplicate work is suppressed rather than
paid.

:func:`hedged_call` is the race combinator: it drives the primary as a
child process, arms the backup after ``delay_s`` and returns a
:class:`HedgeOutcome` naming the winner; :class:`HedgeStats` counts
hedges, cancelled losers and duplicates paid.

Everything runs on the simulation clock; no wall-clock, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.errors import InterruptError, ReproError
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
    """What one :func:`hedged_call` returned, for the caller."""

    value: Any = None
    #: ``"primary"`` or ``"backup"``.
    winner: str = ""
    #: The primary's failure when the backup saved the call.
    primary_error: Optional[BaseException] = None


def _tear_down(*procs) -> None:
    """Interrupt every racer still in flight, so what it holds (NIC
    channels, RPC worker slots, semaphore slots) drains through its
    ``finally`` blocks."""
    for proc in procs:
        if proc.is_alive:
            proc.interrupt("hedge torn down")


def _settle_loser(proc, role: str, out: HedgeOutcome, stats: HedgeStats) -> None:
    """Cancel (or account) the racer that lost."""
    if proc.is_alive:
        proc.interrupt("hedge lost")
        stats.cancelled_losers += 1
    elif proc.ok:
        stats.duplicate_transfers += 1
    elif role == "primary":
        out.primary_error = proc.value
        stats.primary_failures += 1
    else:
        stats.backup_failures += 1


def hedged_call(
    env: Environment,
    primary: Generator[Event, Any, Any],
    backup: Callable[[], Generator[Event, Any, Any]],
    delay_s: float,
    stats: HedgeStats,
    name: str = "hedge",
) -> Generator[Event, Any, Any]:
    """Race ``primary`` against a ``delay_s``-delayed ``backup``.

    A generator — drive with ``yield from``.  ``primary`` is a ready
    call generator; ``backup`` is a zero-argument factory, constructed
    only if the hedge actually fires (or the primary fails first, in
    which case the backup runs immediately as a failover).

    First *success* wins and the loser is interrupted so its held
    resources drain through their ``finally`` blocks; a loser that
    completed in the same tick is counted as a duplicate instead.  A
    racer that fails with a :class:`~repro.errors.ReproError` loses the
    race; if both do, the primary's error is re-raised.  Any other
    error is a bug, not an outage: it propagates at once and the other
    racer never hides it.  An interrupt of the *caller* likewise tears
    both racers down and propagates — hedging never leaks processes.
    """
    out = HedgeOutcome()
    stats.reads += 1
    pproc = env.process(primary, name=f"{name}:primary")
    timer = env.timeout(delay_s)
    try:
        yield env.any_of([pproc, timer])
    except InterruptError:
        _tear_down(pproc)
        raise
    except ReproError:
        pass  # primary failed before the timer; inspected below

    if pproc.triggered and pproc.ok:
        out.winner = "primary"
        out.value = pproc.value
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
            _tear_down(bproc)
            raise
        except ReproError as exc:
            stats.backup_failures += 1
            raise out.primary_error from exc
        out.winner = "backup"
        return out

    # The delay elapsed with the primary still in flight: hedge.
    stats.hedges_fired += 1
    bproc = env.process(backup(), name=f"{name}:backup")
    try:
        yield env.any_of([pproc, bproc])
    except InterruptError:
        _tear_down(pproc, bproc)
        raise
    except ReproError:
        pass  # one racer failed; the other may still win
    except BaseException:
        _tear_down(pproc, bproc)  # a racer's bug: stop the other first
        raise

    if pproc.triggered and pproc.ok:
        out.winner = "primary"
        out.value = pproc.value
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
        stats.primary_failures += 1
        stats.backup_failures += 1
        raise pproc.value
    survivor, role = (pproc, "primary") if pproc.is_alive else (bproc, "backup")
    fallen, fallen_role = (bproc, "backup") if role == "primary" else (pproc, "primary")
    _settle_loser(fallen, fallen_role, out, stats)
    try:
        out.value = yield survivor
    except InterruptError:
        _tear_down(survivor)
        raise
    except ReproError as exc:
        if role == "primary":
            stats.primary_failures += 1
            raise
        stats.backup_failures += 1
        raise out.primary_error from exc
    out.winner = role
    if role == "primary":
        stats.primary_wins += 1
    else:
        stats.backup_wins += 1
    return out
