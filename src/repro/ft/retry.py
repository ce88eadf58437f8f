"""Retry with capped exponential backoff + jitter, behind a breaker.

The fault-tolerance layer never changes *what* an RPC does, only how
stubbornly it is attempted: at most :data:`RETRIES` extra attempts,
spaced with capped exponential backoff (decorrelated by deterministic
jitter so synchronized clients do not retry in lockstep), each admitted
by the peer's circuit breaker.

Everything here runs on the simulation clock.  Jitter comes from a
caller-supplied :class:`random.Random` so runs stay reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator, Tuple, Type

from repro.errors import (
    CachePeerDownError,
    CircuitOpenError,
    NodeDownError,
    ShardUnavailableError,
)
from repro.sim.engine import Environment, Event

#: Errors that indicate an unreachable peer — the transient class a
#: retry can plausibly outwait (vs. protocol errors, which it cannot).
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (
    NodeDownError,
    ShardUnavailableError,
    CachePeerDownError,
)
#: Extra attempts after the first failure (so at most 3 attempts).
RETRIES = 2
#: Backoff before retry ``k + 1``: ``min(BACKOFF_BASE_S * 2**k,
#: BACKOFF_MAX_S)`` scaled by a uniform factor in ``1 ± JITTER``.
BACKOFF_BASE_S = 0.002
BACKOFF_MAX_S = 0.25
JITTER = 0.5


def backoff_s(attempt: int, rng: random.Random) -> float:
    """Sleep before retry number ``attempt + 1`` (attempt is 0-based)."""
    base = min(BACKOFF_BASE_S * (2 ** attempt), BACKOFF_MAX_S)
    return base * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def retry_call(
    env: Environment,
    attempt: Callable[[], Generator[Event, Any, Any]],
    *,
    rng: random.Random,
    breaker,
    recorder,
    op: str,
    actor: str,
) -> Generator[Event, Any, Any]:
    """Run ``attempt()`` until it succeeds or the retries run out; a
    generator (use ``yield from``).

    ``attempt`` is a zero-argument factory returning a *fresh* call
    generator — a generator cannot be re-driven, so each try needs its
    own.  A factory that raises synchronously (e.g. an up-front liveness
    check) is treated like a failed attempt.

    ``breaker`` (a :class:`~repro.ft.breaker.CircuitBreaker`) is
    consulted before every attempt (:class:`~repro.errors.CircuitOpenError`
    when open) and told about each outcome.  ``recorder`` (a
    ``repro.obs.SpanRecorder``, or None) counts retries and exhaustion
    under ``ft_*`` ops.  Only :data:`TRANSIENT_ERRORS` are retried; an
    interrupt of the caller, like any other error, propagates at once.
    """
    for k in range(RETRIES + 1):
        token = breaker.allow()
        if not token:
            if recorder is not None:
                recorder.count("ft_breaker_reject", op)
            raise CircuitOpenError(actor)
        try:
            result = yield from attempt()
        except TRANSIENT_ERRORS:
            breaker.record_failure(token)
            if recorder is not None:
                recorder.count("ft_attempt_failed", op)
            if k == RETRIES:
                if recorder is not None:
                    recorder.count("ft_exhausted", op)
                raise
            delay = backoff_s(k, rng)
            if recorder is not None:
                recorder.count("ft_retry", op)
                recorder.record("ft_backoff", op, delay, actor=actor)
            yield env.timeout(delay)
            continue
        breaker.record_success()
        return result
    raise AssertionError("unreachable: loop either returns or raises")
