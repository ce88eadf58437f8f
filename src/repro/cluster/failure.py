"""Scenario-driven chaos for cluster experiments.

The paper's failure experiments (Fig 6, Fig 11b, §4.2) kill cache
instances mid-run; :class:`ChaosSchedule` declares such adversity up
front and goes beyond clean crashes into the *hostile world*: timed
windows of slow nodes and latency spikes, flash-crowd read bursts
against one hot dataset, and arbitrary actions (a node kill) at a
given time.  ``start()`` arms
the scenarios, and every applied/reverted action lands in one ordered
log so experiments can show what the cluster was suffering at any
instant.  All timing and randomness run on the sim
clock and a seeded RNG — chaos runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.node import Node
from repro.sim.engine import Environment


class ChaosSchedule:
    """Declarative adversity: timed degradations and bursts.

    Declare scenarios with the ``slow_node`` / ``latency_spikes`` /
    ``flash_crowd`` / ``at`` builders
    (each returns ``self`` for chaining), then call :meth:`start`.  One
    sim process per scenario applies it at its scheduled time and — for
    windowed scenarios — reverts it after ``duration_s``.

    :attr:`log` records ``(time, action, target)`` for every applied and
    reverted step.
    """

    def __init__(self, env: Environment, seed: int = 0xC4A05) -> None:
        self.env = env
        self.rng = random.Random(seed)
        self.log: List[Tuple[float, str, str]] = []
        self._scenarios: List[Dict[str, Any]] = []
        self._started = False

    # ----------------------------------------------------------- builders
    def _add(self, at: float, label: str, body) -> "ChaosSchedule":
        if self._started:
            raise RuntimeError("chaos schedule already started")
        if at < 0:
            raise ValueError("scenario time must be >= 0")
        self._scenarios.append({"at": at, "label": label, "body": body})
        return self

    def slow_node(
        self, node: Node, factor: float, at: float, duration_s: float
    ) -> "ChaosSchedule":
        """A straggler: ``node``'s NIC serializes ``factor``× slower for
        ``duration_s`` starting at ``at`` (the node stays alive — no
        failure detector will save you)."""

        def body(sched: "ChaosSchedule"):
            node.degrade(slow_factor=factor)
            yield sched.env.timeout(duration_s)
            node.undegrade()

        return self._add(at, f"slow_node:{node.name}x{factor:g}", body)

    def latency_spikes(
        self,
        nodes: List[Node],
        extra_latency_s: float,
        at: float,
        duration_s: float,
        spikes: int = 3,
        spike_s: float = 0.01,
    ) -> "ChaosSchedule":
        """``spikes`` short latency storms at seeded-random instants
        inside the window, each adding ``extra_latency_s`` to every
        transfer touching ``nodes`` for ``spike_s``."""
        if spikes < 1:
            raise ValueError("spikes must be >= 1")

        def body(sched: "ChaosSchedule"):
            offsets = sorted(
                sched.rng.uniform(0.0, max(duration_s - spike_s, 0.0))
                for _ in range(spikes)
            )
            t0 = sched.env.now
            for off in offsets:
                gap = t0 + off - sched.env.now
                if gap > 0:
                    yield sched.env.timeout(gap)
                for n in nodes:
                    n.degrade(
                        slow_factor=n.nic_slow_factor,
                        extra_latency_s=extra_latency_s,
                    )
                sched.log.append((sched.env.now, "spike_on", ",".join(
                    n.name for n in nodes)))
                yield sched.env.timeout(spike_s)
                for n in nodes:
                    n.degrade(slow_factor=n.nic_slow_factor)
                sched.log.append((sched.env.now, "spike_off", ",".join(
                    n.name for n in nodes)))

        return self._add(at, f"latency_spikes:{len(nodes)}nodes", body)

    def flash_crowd(
        self,
        at: float,
        readers: Callable[[], List[Generator]],
        label: str = "flash_crowd",
    ) -> "ChaosSchedule":
        """A read burst: at ``at``, ``readers()`` is called and every
        generator it returns is launched simultaneously.  The scenario
        window closes when all readers finish."""

        def body(sched: "ChaosSchedule"):
            procs = [
                sched.env.process(gen, name=f"{label}:{i}")
                for i, gen in enumerate(readers())
            ]
            if procs:
                yield sched.env.all_of(procs)

        return self._add(at, label, body)

    def at(
        self, when: float, action: Callable[[], Optional[Generator]], label: str
    ) -> "ChaosSchedule":
        """Escape hatch: run an arbitrary action (or drive the generator
        it returns) at time ``when``."""

        def body(sched: "ChaosSchedule"):
            gen = action()
            if gen is not None:
                yield from gen

        return self._add(when, label, body)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ChaosSchedule":
        """Arm every declared scenario (idempotent per schedule)."""
        if self._started:
            raise RuntimeError("chaos schedule already started")
        self._started = True
        for sc in self._scenarios:
            self.env.process(self._run(sc), name=f"chaos:{sc['label']}")
        return self

    def _run(self, sc: Dict[str, Any]):
        delay = sc["at"] - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.log.append((self.env.now, "apply", sc["label"]))
        try:
            yield from sc["body"](self)
        finally:
            self.log.append((self.env.now, "revert", sc["label"]))
