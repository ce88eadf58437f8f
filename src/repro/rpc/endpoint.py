"""RPC endpoints: real handlers, simulated cost."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.calibration import RpcProfile
from repro.errors import NodeDownError, ReproError
from repro.cluster.network import NetworkFabric
from repro.cluster.node import Node
from repro.obs.counters import Counters
from repro.sim.engine import Environment, Event, Semaphore


@dataclass(slots=True)
class RpcStats(Counters):
    """Cumulative per-endpoint call counters."""

    calls: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    errors: int = 0
    #: Total worker-seconds spent in service (for utilization).
    busy_time: float = 0.0
    #: Vectorized admissions (one ``call_batch`` = one batch, however
    #: many calls it carried; ``calls`` still counts every call).
    batches: int = 0


class RpcEndpoint:
    """A named service bound to a node.

    ``handler(method, *args)`` executes the service's real logic and
    returns the result, or a generator the worker drives to it; ``call``
    returns that result as it is.  The response's size is the caller's
    ``response_bytes`` when given, else estimated from the result
    (:meth:`_sizeof`).  ``service_s`` — a constant, or a callable of
    ``(method, response_bytes)`` — is the server-side CPU cost per call.
    """

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        node: Node,
        name: str,
        handler: Callable[..., Any],
        service_s: float | Callable[[str, int], float] = 5e-6,
        workers: int = 16,
        profile: RpcProfile | None = None,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.node = node
        self.name = name
        self._handler = handler
        self._service_s = service_s
        self._pool = Semaphore(env, workers)
        self.profile = profile or RpcProfile()
        self.stats = RpcStats()
        #: Attached observability recorder (None = zero-cost hot path).
        self.recorder = None
        node.on_fail(self._on_node_fail)
        self._up = True

    @classmethod
    def for_capacity(
        cls,
        env: Environment,
        fabric: NetworkFabric,
        node: Node,
        name: str,
        handler: Callable[..., Any],
        qps: float,
        latency_s: float,
        profile: RpcProfile | None = None,
        extra_service: Callable[[str, int], float] | None = None,
    ) -> "RpcEndpoint":
        """An endpoint with aggregate throughput ``qps`` and unloaded
        per-call service latency ``latency_s``.

        Little's law fixes the worker count: ``workers = qps × latency``
        servers each taking ``latency`` per op give exactly ``qps``
        aggregate at saturation while an unloaded call still costs only
        ``latency`` — the property naive (workers, workers/qps) choices
        get wrong.  ``extra_service(method, nbytes)`` adds per-call cost
        (e.g. value-size terms) without changing the base capacity.
        """
        if qps <= 0 or latency_s <= 0:
            raise ValueError("qps and latency_s must be positive")
        workers = max(1, round(qps * latency_s))
        base = workers / qps

        def service(method: str, nbytes: int) -> float:
            extra = extra_service(method, nbytes) if extra_service else 0.0
            return base + extra

        return cls(
            env, fabric, node, name,
            handler=handler, service_s=service, workers=workers,
            profile=profile,
        )

    def _on_node_fail(self) -> None:
        self._up = False

    @property
    def up(self) -> bool:
        """Whether the service runs: not stopped by a node failure since
        its last :meth:`restart`, and its node alive."""
        return self._up and self.node.alive

    def restart(self) -> None:
        """Bring the service back after its node was restored.

        ``Node.restore`` models the *machine* coming back; the services
        that died with it stay down until something restarts them — a
        scripted fault scenario (``fig_faults``) or a test doing it by
        hand.
        """
        if not self.node.alive:
            raise NodeDownError(
                self.node.name, f"cannot restart endpoint {self.name!r}"
            )
        self._up = True

    def _service_time(self, method: str, nbytes: int) -> float:
        if callable(self._service_s):
            return self._service_s(method, nbytes)
        return self._service_s

    @staticmethod
    def _sizeof(value: Any) -> int:
        if value is None:
            return 16
        if isinstance(value, (bytes, bytearray, memoryview)):
            return len(value)
        if isinstance(value, str):
            return len(value) if value.isascii() else len(value.encode("utf-8"))
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], str):
            # A name list (an ``ls`` reply): its UTF-8 bytes are its
            # join's, so one join sizes it unless an item is no str.
            try:
                joined = "".join(value)
            except TypeError:
                pass
            else:
                return 16 + RpcEndpoint._sizeof(joined)
        if isinstance(value, (list, tuple, set, frozenset)):
            return 16 + sum(RpcEndpoint._sizeof(v) for v in value)
        if isinstance(value, dict):
            return 16 + sum(
                RpcEndpoint._sizeof(k) + RpcEndpoint._sizeof(v)
                for k, v in value.items()
            )
        return 32

    def call(
        self,
        client: Node,
        method: str,
        *args: Any,
        request_bytes: int = 128,
        response_bytes: Optional[int] = None,
    ) -> Generator[Event, Any, Any]:
        """Invoke ``method`` from ``client``; returns the handler's result.

        Charges, in order: client serialization, request transfer, queueing
        + service at the endpoint, response serialization, response
        transfer.  Raises :class:`NodeDownError` if the endpoint's node is
        down at dispatch or dies while the call is in flight.
        """
        if not self.up:
            raise NodeDownError(self.node.name, f"endpoint {self.name!r} down")
        prof = self.profile
        rec = self.recorder
        # Client-side marshalling.
        yield self.env.timeout(prof.per_call_s + request_bytes * prof.per_byte_s)
        yield from self.fabric.transfer(client, self.node, request_bytes)
        if not self.up:
            raise NodeDownError(self.node.name, f"endpoint {self.name!r} down")
        # Server-side queue + service; the handler's real logic runs when
        # the worker picks the request up.
        t_arrive = self.env.now if rec is not None else 0.0
        req = self._pool.acquire()
        try:
            yield req
        except BaseException:
            # Interrupted/failed while queued (or racing the grant):
            # withdraw so the slot cannot leak.
            self._pool.abandon(req)
            raise
        t_grant = self.env.now if rec is not None else 0.0
        try:
            try:
                result = self._handler(method, *args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    # Generator handler: the worker thread drives server-side
                    # simulated I/O (device reads, nested RPCs) while holding
                    # its pool slot — a blocked thread, as in a real server.
                    result = yield from result
            except ReproError:
                self.stats.errors += 1
                raise
            resp_nbytes = (
                response_bytes if response_bytes is not None else self._sizeof(result)
            )
            service = self._service_time(method, resp_nbytes)
            yield self.env.timeout(service)
            self.stats.busy_time += service
            if rec is not None:
                # Queue = arrival to worker grant; service = worker-held
                # time (handler-driven I/O + the calibrated CPU charge).
                rec.record("rpc_" + method, "queue", t_grant - t_arrive,
                           actor=self.name)
                rec.record("rpc_" + method, "service",
                           self.env.now - t_grant, actor=self.name)
        finally:
            self._pool.release(req)
        if not self.up:
            raise NodeDownError(self.node.name, f"endpoint {self.name!r} down")
        # Response marshalling + transfer back.
        yield self.env.timeout(prof.per_call_s + resp_nbytes * prof.per_byte_s)
        yield from self.fabric.transfer(self.node, client, resp_nbytes)
        self.stats.calls += 1
        self.stats.request_bytes += request_bytes
        self.stats.response_bytes += resp_nbytes
        return result

    def call_batch(
        self,
        client: Node,
        calls: "list[tuple]",
        *,
        request_bytes_each: int = 128,
        response_bytes: Optional[int] = None,
    ) -> Generator[Event, Any, list]:
        """Admit ``calls`` — ``(method, *args)`` tuples — as one batch.

        Vectorized admission: the whole batch costs one client
        marshalling charge, one request transfer, one worker-pool entry,
        one aggregated service charge and one response transfer — one
        scheduler entry per phase per *batch* instead of per call — while
        every handler still runs its real logic.  Returns the handlers'
        results in call order.  Semantically equivalent to looping
        :meth:`call` (same handlers, same counters via ``stats.calls``),
        just admitted together; ``stats.batches`` counts the admissions.

        Feeds the cache masters' chunk pulls and any fan-out that
        targets one endpoint with many small calls.
        """
        if not calls:
            return []
        if not self.up:
            raise NodeDownError(self.node.name, f"endpoint {self.name!r} down")
        n = len(calls)
        prof = self.profile
        rec = self.recorder
        # One client-side marshalling charge for the whole batch.
        yield self.env.timeout(
            prof.per_call_s + n * request_bytes_each * prof.per_byte_s
        )
        yield from self.fabric.transfer(
            client, self.node, n * request_bytes_each
        )
        if not self.up:
            raise NodeDownError(self.node.name, f"endpoint {self.name!r} down")
        t_arrive = self.env.now if rec is not None else 0.0
        req = self._pool.acquire()
        try:
            yield req
        except BaseException:
            self._pool.abandon(req)
            raise
        t_grant = self.env.now if rec is not None else 0.0
        try:
            results: list = []
            try:
                for call in calls:
                    result = self._handler(call[0], *call[1:])
                    if hasattr(result, "send") and hasattr(result, "throw"):
                        result = yield from result
                    results.append(result)
            except ReproError:
                self.stats.errors += 1
                raise
            if response_bytes is not None:
                resp_nbytes = response_bytes
                sizes = [response_bytes // n] * n
            else:
                sizes = [self._sizeof(r) for r in results]
                resp_nbytes = sum(sizes)
            # Aggregate queue/service accounting: one timeout covers the
            # batch's summed per-call service.
            service = 0.0
            for call, nbytes in zip(calls, sizes):
                service += self._service_time(call[0], nbytes)
            yield self.env.timeout(service)
            self.stats.busy_time += service
            if rec is not None:
                rec.record("rpc_batch", "queue", t_grant - t_arrive,
                           actor=self.name)
                rec.record("rpc_batch", "service",
                           self.env.now - t_grant, actor=self.name)
        finally:
            self._pool.release(req)
        if not self.up:
            raise NodeDownError(self.node.name, f"endpoint {self.name!r} down")
        yield self.env.timeout(prof.per_call_s + resp_nbytes * prof.per_byte_s)
        yield from self.fabric.transfer(self.node, client, resp_nbytes)
        self.stats.calls += n
        self.stats.batches += 1
        self.stats.request_bytes += n * request_bytes_each
        self.stats.response_bytes += resp_nbytes
        return results

    def __repr__(self) -> str:
        """The endpoint's name and its node's."""
        return f"RpcEndpoint({self.name!r} on {self.node.name!r})"
