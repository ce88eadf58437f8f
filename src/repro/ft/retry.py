"""Retry with exponential backoff + jitter and per-call deadlines.

The fault-tolerance layer never changes *what* an RPC does, only how
stubbornly it is attempted: a :class:`RetryPolicy` bounds the number of
attempts, spaces them with capped exponential backoff (decorrelated by
deterministic jitter so synchronized clients do not retry in lockstep),
and optionally abandons any single attempt that overruns a deadline.

Everything here runs on the simulation clock.  Jitter comes from a
caller-supplied :class:`random.Random` so runs stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple, Type

from repro.errors import (
    CachePeerDownError,
    CircuitOpenError,
    DeadlineExceededError,
    InterruptError,
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


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try one logical RPC.

    ``retries`` is the number of *extra* attempts after the first
    failure, so a policy with ``retries=2`` makes at most 3 attempts.
    Attempt ``k`` (0-based) that fails sleeps
    ``min(backoff_base_s * 2**k, backoff_max_s)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]`` before the next try.
    ``deadline_s > 0`` abandons any attempt still in flight after that
    many simulated seconds (the attempt counts as failed and retryable).
    """

    retries: int = 2
    backoff_base_s: float = 0.002
    backoff_max_s: float = 0.25
    jitter: float = 0.5
    deadline_s: float = 0.0
    retry_on: Tuple[Type[BaseException], ...] = TRANSIENT_ERRORS

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be positive")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")

    def backoff_s(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt + 1`` (attempt is 0-based)."""
        base = min(self.backoff_base_s * (2 ** attempt), self.backoff_max_s)
        if rng is None or self.jitter == 0.0:
            return base
        return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)


def run_with_deadline(
    env: Environment,
    gen: Generator[Event, Any, Any],
    deadline_s: float,
    name: str = "deadline",
) -> Generator[Event, Any, Any]:
    """Drive ``gen`` as a child process, abandoning it after ``deadline_s``.

    Returns the generator's value if it finishes in time; raises
    :class:`DeadlineExceededError` (and interrupts the child, so held
    resources are released through its ``finally`` blocks) otherwise.
    Exceptions from the child propagate unchanged.
    """
    proc = env.process(gen, name=name)
    timer = env.timeout(deadline_s)
    try:
        yield env.any_of([proc, timer])
    except BaseException:
        # The child failed first (any_of fails fast) or we were
        # interrupted while waiting: make sure the child is dead.
        if proc.is_alive:
            proc.interrupt("deadline scope torn down")
        raise
    if proc.triggered:
        if proc.ok:
            return proc.value
        raise proc.value
    proc.interrupt("deadline exceeded")
    raise DeadlineExceededError(deadline_s, name)


def retry_call(
    env: Environment,
    policy: RetryPolicy,
    attempt: Callable[[], Generator[Event, Any, Any]],
    *,
    rng: Optional[random.Random] = None,
    breaker=None,
    recorder=None,
    op: str = "rpc",
    actor: str = "",
) -> Generator[Event, Any, Any]:
    """Run ``attempt()`` under ``policy``; a generator (use ``yield from``).

    ``attempt`` is a zero-argument factory returning a *fresh* call
    generator — a generator cannot be re-driven, so each try needs its
    own.  A factory that raises synchronously (e.g. an up-front liveness
    check) is treated like a failed attempt.

    ``breaker``, if given, is consulted before every attempt
    (:class:`~repro.errors.CircuitOpenError` when open) and told about
    each outcome.  ``recorder`` (a ``repro.obs.SpanRecorder``) counts
    retries, deadline hits, and exhaustion under ``ft_*`` ops.
    """
    deadline_err = (DeadlineExceededError,)
    token = None
    for k in range(policy.retries + 1):
        if breaker is not None:
            token = breaker.allow()
            if not token:
                if recorder is not None:
                    recorder.count("ft_breaker_reject", op)
                raise CircuitOpenError(actor or op)
        try:
            if policy.deadline_s > 0:
                result = yield from run_with_deadline(
                    env, attempt(), policy.deadline_s, name=f"{op}:try{k}"
                )
            else:
                result = yield from attempt()
        except policy.retry_on + deadline_err as exc:
            if breaker is not None:
                breaker.record_failure(token)
            if recorder is not None:
                if isinstance(exc, DeadlineExceededError):
                    recorder.count("ft_deadline", op)
                recorder.count("ft_attempt_failed", op)
            if k == policy.retries:
                if recorder is not None:
                    recorder.count("ft_exhausted", op)
                raise
            delay = policy.backoff_s(k, rng)
            if recorder is not None:
                recorder.count("ft_retry", op)
                recorder.record("ft_backoff", op, delay, actor=actor)
            yield env.timeout(delay)
            continue
        except InterruptError:
            # The *caller* was torn down mid-attempt; never retry that.
            raise
        if breaker is not None:
            breaker.record_success(token)
        return result
    raise AssertionError("unreachable: loop either returns or raises")
