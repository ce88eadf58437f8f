"""Per-peer circuit breaker (closed → open → half-open, sim clock).

Once a peer has failed :data:`THRESHOLD` consecutive calls there is no
information left in calling it again — every further attempt just pays
the timeout before taking the degraded path anyway.  The breaker makes
that decision once: it *opens* for :data:`RESET_S` simulated seconds
during which calls fast-fail, then allows a single half-open probe whose
outcome either closes it again or re-opens it for another window.
"""

from __future__ import annotations

from repro.sim.engine import Environment

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive failures that trip a breaker.
THRESHOLD = 5
#: Seconds a tripped breaker stays open before its half-open probe.
RESET_S = 1.0


class CircuitBreaker:
    """Tracks consecutive failures against one peer.

    Usage discipline (what :func:`repro.ft.retry.retry_call` does):
    call :meth:`allow` before an attempt — a falsy return means
    fast-fail, a truthy one is the *attempt token* for that call — then
    report the outcome with :meth:`record_failure(token)` /
    :meth:`record_success`.

    The token lets the breaker tell a failed half-open probe apart from
    a straggler: a slow call admitted *before* the trip whose failure
    only lands while the breaker is open or freshly recovered.  Without
    it, such a straggler would restart the open window (or re-trip a
    breaker the probe had just closed) even though the peer is healthy
    again.
    """

    def __init__(self, env: Environment, name: str) -> None:
        self.env = env
        self.name = name
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self._next_token = 0
        # Tokens below this were granted before the last trip; their
        # failures carry no new information about the current window.
        self._window_start = 1
        self._probe_token: int | None = None
        #: Times the breaker tripped (closed/half-open → open).
        self.trips = 0
        #: Calls rejected while open.
        self.rejections = 0
        #: Stale failure reports ignored (pre-trip stragglers).
        self.stale_reports = 0

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open by the sim clock."""
        if self._opened_at is None:
            return CLOSED
        if self.env.now - self._opened_at >= RESET_S:
            return HALF_OPEN
        return OPEN

    def allow(self) -> int:
        """Admit or fast-fail a call.

        Returns an attempt token (a positive int, so truthy) when the
        call may proceed, or ``0`` when it must fast-fail.
        """
        state = self.state
        if state == CLOSED:
            self._next_token += 1
            return self._next_token
        if state == HALF_OPEN and not self._probing:
            # Exactly one probe flies per half-open window.
            self._probing = True
            self._next_token += 1
            self._probe_token = self._next_token
            return self._next_token
        self.rejections += 1
        return 0

    def record_success(self) -> None:
        """A call completed: close the breaker and forget past failures.

        Even a stale success closes the breaker — a peer that answered
        is reachable, whenever the call was admitted.
        """
        self._failures = 0
        self._opened_at = None
        self._probing = False
        self._probe_token = None

    def record_failure(self, token: int) -> None:
        """A call failed: trip if at threshold or if the probe failed.

        ``token`` is the value :meth:`allow` returned for this attempt.
        Failures whose token predates the current window (admitted
        before the last trip) are stale stragglers: the trip already
        priced that peer in, so they neither restart an open window nor
        re-trip a breaker the probe has since closed.
        """
        if token < self._window_start:
            self.stale_reports += 1
            return
        if self._opened_at is not None:
            if token == self._probe_token:
                # The half-open probe failed: start a fresh open window.
                self._open()
            else:
                self.stale_reports += 1
            return
        self._failures += 1
        if self._failures >= THRESHOLD:
            self._open()

    def _open(self) -> None:
        self._opened_at = self.env.now
        self._probing = False
        self._probe_token = None
        self._failures = 0
        self._window_start = self._next_token + 1
        self.trips += 1

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state}, "
            f"trips={self.trips})"
        )
