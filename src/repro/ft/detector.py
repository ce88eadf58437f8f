"""Heartbeat/probe-based failure detector.

A single sim process probes every watched peer once per
``heartbeat_interval_s`` (optionally de-synchronized by a seeded
``jitter`` factor so large fleets do not probe in lockstep bursts).  A
peer that stops answering is first marked
**suspect** (it may be a transient blip); once it has been unreachable
for ``failure_timeout_s`` it is declared **dead** and the registered
transition callbacks fire — that is the hook the self-healing
supervisors (:mod:`repro.ft.supervisor`) use to trigger
``TaskCache.recover()`` and KV metadata rebuilds with no operator call.

A peer that answers again (node restored) transitions back to
**alive**, which likewise fires callbacks so healing after a restart is
automatic too.  Data-path code can short-circuit the probe loop by
calling :meth:`FailureDetector.report_failure` the moment an RPC to a
peer raises — detection latency then collapses from "next missed
heartbeat" to "first failed call".

Probes are pure attribute checks on the simulation's liveness model
(``target.up``) and consume no simulated network or CPU resources, so
an attached detector cannot perturb benchmark results.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Environment, Process

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: Transition callback: ``(peer_name, new_state, sim_time)``.
TransitionCallback = Callable[[str, str, float], None]


class _Watch:
    """Book-keeping for one watched peer."""

    __slots__ = ("name", "target", "state", "last_alive")

    def __init__(self, name: str, target: Any, now: float) -> None:
        self.name = name
        self.target = target
        self.state = ALIVE
        self.last_alive = now


class FailureDetector:
    """Probes registered peers and publishes alive/suspect/dead state."""

    def __init__(
        self,
        env: Environment,
        heartbeat_interval_s: float = 0.05,
        failure_timeout_s: float = 0.25,
        recorder=None,
        jitter: float = 0.0,
        seed: int = 0xBEA7,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if failure_timeout_s <= heartbeat_interval_s:
            raise ValueError("failure_timeout_s must exceed heartbeat_interval_s")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.env = env
        self.heartbeat_interval_s = heartbeat_interval_s
        self.failure_timeout_s = failure_timeout_s
        #: Probe de-synchronization: each round sleeps the interval scaled
        #: by a seeded uniform factor in ``[1 - jitter, 1 + jitter]``, so a
        #: fleet of detectors does not probe in lockstep bursts.  ``0``
        #: (the default) keeps the exact fixed-interval schedule.
        self.jitter = jitter
        self._rng = random.Random(seed)
        #: Attached observability recorder (None = disabled).
        self.recorder = recorder
        self._watches: Dict[str, _Watch] = {}
        self._callbacks: List[TransitionCallback] = []
        self._proc: Optional[Process] = None
        #: Every transition as ``(sim_time, peer, new_state)``.
        self.events: List[Tuple[float, str, str]] = []
        self._death_latency: Dict[str, float] = {}

    # ------------------------------------------------------------ registry
    def watch(self, name: str, target: Any) -> None:
        """Start probing ``target`` (anything with a boolean ``up``)."""
        if name in self._watches:
            raise ValueError(f"already watching {name!r}")
        self._watches[name] = _Watch(name, target, self.env.now)

    def unwatch(self, name: str) -> None:
        """Stop probing ``name`` (no-op if unknown)."""
        self._watches.pop(name, None)

    def watched(self) -> list[str]:
        return sorted(self._watches)

    def on_transition(self, callback: TransitionCallback) -> None:
        """Register a callback fired on every state transition."""
        self._callbacks.append(callback)

    def state(self, name: str) -> str:
        return self._watches[name].state

    def last_alive(self, name: str) -> float:
        """Sim time of the last successful probe of ``name``."""
        return self._watches[name].last_alive

    # ----------------------------------------------------------- lifecycle
    def start(self) -> Process:
        """Launch the heartbeat loop; returns its process."""
        if self._proc is not None and self._proc.is_alive:
            raise SimulationError("failure detector already running")
        self._proc = self.env.process(self._loop(), name="ft:detector")
        return self._proc

    def stop(self) -> None:
        """Stop the heartbeat loop (so a drained sim can terminate)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("detector stopped")
        self._proc = None

    def _loop(self):
        interval = self.heartbeat_interval_s
        jitter = self.jitter
        if jitter == 0.0:
            while True:
                yield self.env.timeout(interval)
                self.probe_now()
        uniform = self._rng.uniform
        while True:
            yield self.env.timeout(interval * uniform(1.0 - jitter, 1.0 + jitter))
            self.probe_now()

    # -------------------------------------------------------------- probing
    def probe_now(self) -> None:
        """One probe round over all watched peers (also used by tests)."""
        now = self.env.now
        for w in list(self._watches.values()):
            if w.target.up:
                w.last_alive = now
                if w.state != ALIVE:
                    self._transition(w, ALIVE)
            elif w.state == ALIVE:
                self._transition(w, SUSPECT)
                self._maybe_dead(w, now)
            elif w.state == SUSPECT:
                self._maybe_dead(w, now)

    def report_failure(self, name: str) -> None:
        """Data-path feedback: an RPC to ``name`` just failed.

        Immediately marks an alive peer suspect (and dead, if its grace
        window has already lapsed) instead of waiting for the next
        heartbeat round.  Unknown names are ignored — callers report
        whatever peer they talked to, watched or not.
        """
        w = self._watches.get(name)
        if w is None or w.state == DEAD:
            return
        if w.state == ALIVE:
            self._transition(w, SUSPECT)
        self._maybe_dead(w, self.env.now)

    def _maybe_dead(self, w: _Watch, now: float) -> None:
        if now - w.last_alive >= self.failure_timeout_s:
            self._transition(w, DEAD)

    def _transition(self, w: _Watch, state: str) -> None:
        w.state = state
        now = self.env.now
        self.events.append((now, w.name, state))
        if state == DEAD:
            # Detection latency: how long the peer was unreachable
            # before we declared it.
            self._death_latency[w.name] = now - w.last_alive
        rec = self.recorder
        if rec is not None:
            rec.count(f"ft_{state}", "detector")
            if state == DEAD:
                rec.record("ft_detect", "detector", now - w.last_alive,
                           actor=w.name)
        for cb in self._callbacks:
            cb(w.name, state, now)

    def detection_latency_s(self, name: str) -> Optional[float]:
        """Unreachable-to-declared-dead gap for ``name``'s most recent
        death (None if it has never been declared dead)."""
        return self._death_latency.get(name)
