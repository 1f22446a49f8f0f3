"""Replica sets: R serving runtimes behind one client-side load balancer.

A :class:`ReplicaSet` owns ``R`` :class:`Replica` objects, each wrapping one
started :class:`~repro.serving.runtime.ServingRuntime` (and, on model
deployments, that replica's own hot-swappable
:class:`~repro.serving.hot_swap.ModelHandle` — per-replica handles are what
make **rolling** deploys possible: one replica swaps at a time while the
balancer routes around it).  Replicas share the deployment's read-only data
plane (embedder, store, index), so adding a replica adds scheduling and
execution capacity, not data copies.

Balancing is round-robin seeded **power-of-two-choices**: each submit takes
the next two replicas in rotation and picks the one with the lower observed
load (:meth:`ServingRuntime.load` — admitted-but-unresolved requests).  P2C
keeps the tail of queue-depth imbalance exponentially smaller than random or
pure round-robin placement under bursty load, while the rotating first
choice keeps a drained set perfectly fair.

Health: a background loop probes every replica each ``health_interval_s``
(default probe: the runtime accepts traffic) and **ejects** a replica after
``eject_after`` consecutive failures — it stops receiving traffic until a
probe succeeds again.  A submit that fails with a runtime lifecycle error
also counts as a probe failure and transparently fails over to the next
healthy replica, so a killed replica loses no accepted request: requests it
accepted before dying are drained by its own shutdown, later ones are routed
elsewhere.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, default_registry, internal_errors
from repro.serving.hot_swap import ModelHandle
from repro.serving.runtime import ServingRuntime
from repro.utils.errors import (
    ConfigurationError,
    NetworkError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
)
from repro.utils.logging import get_logger

logger = get_logger("repro.net.replica")

#: A replica factory: ``factory(replica_id) -> (started runtime, handle|None)``.
ReplicaFactory = Callable[[int], Tuple[ServingRuntime, Optional[ModelHandle]]]


class Replica:
    """One serving runtime inside a :class:`ReplicaSet`."""

    def __init__(self, replica_id: int, runtime: ServingRuntime,
                 handle: Optional[ModelHandle] = None):
        self.id = replica_id
        self.runtime = runtime
        #: This replica's own hot-swappable model handle (``None`` on
        #: data-plane-only deployments).
        self.handle = handle
        self._lock = threading.Lock()
        self._accepting = True
        self._healthy = True
        self._consecutive_failures = 0

    # -- routing state -----------------------------------------------------------
    @property
    def accepting(self) -> bool:
        """True when the balancer may route new requests here (healthy and
        not administratively draining)."""
        with self._lock:
            return self._accepting and self._healthy

    @property
    def healthy(self) -> bool:
        with self._lock:
            return self._healthy

    def set_draining(self, draining: bool) -> None:
        """Administratively remove/restore this replica from rotation
        (rolling deploys drain one replica at a time)."""
        with self._lock:
            self._accepting = not draining

    def load(self) -> int:
        """Observed queue depth: requests admitted but not yet resolved."""
        return self.runtime.load()

    # -- health accounting -------------------------------------------------------
    def note_failure(self, eject_after: int) -> bool:
        """Record a probe/submit failure; returns True when this one ejected
        the replica (crossed ``eject_after`` consecutive failures)."""
        with self._lock:
            self._consecutive_failures += 1
            if self._healthy and self._consecutive_failures >= eject_after:
                self._healthy = False
                return True
            return False

    def note_success(self) -> bool:
        """Record a successful probe; returns True when it revived an
        ejected replica."""
        with self._lock:
            self._consecutive_failures = 0
            revived = not self._healthy
            self._healthy = True
            return revived

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "accepting" if self.accepting else "out-of-rotation"
        return f"Replica(id={self.id}, {state}, load={self.load()})"


class ReplicaSet:
    """R replica runtimes, balanced, health-checked, and live-resizable.

    Parameters
    ----------
    factory:
        ``factory(replica_id) -> (runtime, handle)`` builds one **started**
        replica runtime (and its own model handle, or ``None``).  Called at
        construction for the initial ``replicas`` and again by
        :meth:`scale_to` when growing.
    replicas:
        Initial replica count (>= 1).
    probe:
        Health probe ``probe(replica) -> bool``; the default reports whether
        the runtime still accepts traffic.  Exceptions count as failures.
    eject_after:
        Consecutive probe/submit failures before a replica is ejected.
    health_interval_s:
        Probe period of the background health loop; ``None`` disables the
        loop (probes then only happen at submit failures and via
        :meth:`check_health`).
    """

    def __init__(
        self,
        factory: ReplicaFactory,
        replicas: int = 2,
        probe: Optional[Callable[[Replica], bool]] = None,
        eject_after: int = 3,
        health_interval_s: Optional[float] = 0.5,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise ConfigurationError("ReplicaSet requires replicas >= 1")
        if not isinstance(eject_after, int) or isinstance(eject_after, bool) or eject_after < 1:
            raise ConfigurationError("ReplicaSet requires eject_after >= 1")
        self._factory = factory
        self._probe = probe or (lambda replica: replica.runtime.is_running)
        self._eject_after = eject_after
        self._lock = threading.Lock()
        self._replicas: List[Replica] = []
        self._next_id = 0
        self._rotation = 0
        self._closed = False
        registry = registry or default_registry()
        self._m_replicas = registry.gauge(
            "repro_replica_count", "Replicas currently in the replica set"
        )
        self._m_healthy = registry.gauge(
            "repro_replica_healthy", "1 when the replica is healthy and in rotation",
            ("replica",),
        )
        self._m_depth = registry.gauge(
            "repro_replica_queue_depth", "Observed per-replica load at pick time",
            ("replica",),
        )
        self._m_requests = registry.counter(
            "repro_replica_requests_total",
            "Requests routed to each replica (by submit outcome)",
            ("replica", "status"),
        )
        self._m_ejections = registry.counter(
            "repro_replica_ejections_total", "Replicas ejected by health accounting"
        )
        self._m_probe_errors = internal_errors(registry, "replica.probe")
        self._m_health_errors = internal_errors(registry, "replica.health_pass")
        for _ in range(replicas):
            self._add_replica_locked()
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if health_interval_s is not None:
            if health_interval_s <= 0:
                raise ConfigurationError("health_interval_s must be positive (or None)")
            self._health_thread = threading.Thread(
                target=self._health_loop, args=(float(health_interval_s),),
                name="replica-health", daemon=True,
            )
            self._health_thread.start()

    # -- construction helpers ----------------------------------------------------
    def _add_replica_locked(self) -> Replica:
        replica_id = self._next_id
        self._next_id += 1
        runtime, handle = self._factory(replica_id)
        if not isinstance(runtime, ServingRuntime) or not runtime.is_running:
            raise ConfigurationError(
                "replica factory must return a started ServingRuntime"
            )
        replica = Replica(replica_id, runtime, handle)
        with self._lock:
            self._replicas.append(replica)
            count = len(self._replicas)
        self._m_replicas.set(count)
        self._m_healthy.labels(replica=str(replica_id)).set(1)
        logger.info("replica %d added (now %d)", replica_id, count)
        return replica

    # -- introspection -----------------------------------------------------------
    @property
    def replicas(self) -> List[Replica]:
        with self._lock:
            return list(self._replicas)

    def __len__(self) -> int:
        with self._lock:
            return len(self._replicas)

    @property
    def operations(self) -> List[str]:
        with self._lock:
            if not self._replicas:
                return []
            return self._replicas[0].runtime.operations

    def total_load(self) -> int:
        return sum(replica.load() for replica in self.replicas)

    def snapshot(self) -> Dict[str, Any]:
        """Per-replica health/load plus each runtime's telemetry snapshot."""
        replicas = self.replicas
        return {
            "replicas": len(replicas),
            "healthy": sum(1 for r in replicas if r.healthy),
            "per_replica": {
                str(r.id): {
                    "healthy": r.healthy,
                    "accepting": r.accepting,
                    "load": r.load(),
                    "version": r.handle.version if r.handle is not None else None,
                    "telemetry": r.runtime.telemetry_snapshot(),
                }
                for r in replicas
            },
        }

    # -- balancing ---------------------------------------------------------------
    def _pick(self) -> List[Replica]:
        """Candidate replicas, best first: P2C over the rotating pair, then
        every other accepting replica as failover, then (last resort) the
        non-accepting ones so a fully ejected set still surfaces the real
        runtime error rather than a bare 'unavailable'."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("replica set is closed")
            replicas = list(self._replicas)
            rotation = self._rotation
            self._rotation += 1
        accepting = [r for r in replicas if r.accepting]
        if not accepting:
            return replicas
        if len(accepting) == 1:
            ordered = accepting
        else:
            first = accepting[rotation % len(accepting)]
            second = accepting[(rotation + 1) % len(accepting)]
            pair = sorted({first.id: first, second.id: second}.values(),
                          key=lambda r: r.load())
            rest = [r for r in accepting if r is not pair[0] and r not in pair]
            ordered = pair + rest
        for replica in ordered:
            self._m_depth.labels(replica=str(replica.id)).set(replica.load())
        return ordered

    def submit(self, op: str, payload: Any, trace: Optional[Any] = None,
               deadline: Optional[float] = None) -> Future:
        """Route one request to the best replica; fails over on lifecycle
        errors (closed/crashed replicas count against their health).
        ``deadline`` (a ``time.monotonic()`` instant) travels with the request
        — see :meth:`ServingRuntime.submit`.

        Raises :class:`ServiceOverloadedError` when every candidate rejected
        for depth, and :class:`NetworkError` when no replica could accept at
        all.
        """
        last_exc: Optional[BaseException] = None
        overloaded = False
        for replica in self._pick():
            try:
                future = replica.runtime.submit(op, payload, trace=trace, deadline=deadline)
            except ConfigurationError:
                raise  # unknown op: identical on every replica, not a health event
            except ServiceOverloadedError as exc:
                # Full queue is backpressure, not ill health.
                self._m_requests.labels(replica=str(replica.id), status="overloaded").inc()
                overloaded = True
                last_exc = exc
                continue
            except ServingError as exc:
                self._m_requests.labels(replica=str(replica.id), status="failed").inc()
                self._note_probe(replica, ok=False)
                last_exc = exc
                continue
            self._m_requests.labels(replica=str(replica.id), status="accepted").inc()
            return future
        if overloaded and isinstance(last_exc, ServiceOverloadedError):
            raise last_exc
        raise NetworkError(
            f"no healthy replica could accept operation {op!r}"
        ) from last_exc

    def call(self, op: str, payload: Any, timeout: Optional[float] = None) -> Any:
        return self.submit(op, payload).result(timeout=timeout)

    # -- health ------------------------------------------------------------------
    def _note_probe(self, replica: Replica, ok: bool) -> None:
        if ok:
            if replica.note_success():
                self._m_healthy.labels(replica=str(replica.id)).set(1)
                logger.info("replica %d recovered", replica.id)
        else:
            if replica.note_failure(self._eject_after):
                self._m_healthy.labels(replica=str(replica.id)).set(0)
                self._m_ejections.inc()
                logger.warning("replica %d ejected after repeated failures", replica.id)

    def check_health(self) -> Dict[int, bool]:
        """Probe every replica once; returns ``{replica_id: healthy_now}``.

        A probe that raises counts as a failed probe, and is logged and
        counted in ``repro_internal_errors_total{site="replica.probe"}``."""
        results: Dict[int, bool] = {}
        for replica in self.replicas:
            try:
                ok = bool(self._probe(replica))
            except Exception:
                logger.exception("health probe of replica %d raised", replica.id)
                self._m_probe_errors.inc()
                ok = False
            self._note_probe(replica, ok=ok)
            results[replica.id] = replica.healthy
        return results

    def _health_loop(self, interval_s: float) -> None:
        while not self._health_stop.wait(interval_s):
            if self._closed:
                return
            try:
                self.check_health()
            except Exception:  # the loop must survive any probe bug
                logger.exception("health check pass failed")
                self._m_health_errors.inc()

    # -- scaling -----------------------------------------------------------------
    def scale_to(self, n: int) -> int:
        """Grow or shrink to ``n`` replicas; returns the new count.

        Shrinking removes the newest replicas first, each drained (every
        accepted request resolves) and then shut down — scaling down never
        drops a request.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigurationError("scale_to requires an integer n >= 1")
        while True:
            with self._lock:
                if self._closed:
                    raise ServiceClosedError("replica set is closed")
                current = len(self._replicas)
                victim: Optional[Replica] = None
                if current > n:
                    victim = self._replicas.pop()
                    count = len(self._replicas)
            if victim is not None:
                self._m_replicas.set(count)
                self._retire(victim)
                continue
            if current < n:
                self._add_replica_locked()
                continue
            return current

    def _retire(self, replica: Replica) -> None:
        replica.set_draining(True)
        replica.runtime.drain(timeout=30.0)
        replica.runtime.shutdown()
        self._m_healthy.labels(replica=str(replica.id)).set(0)
        logger.info("replica %d retired", replica.id)

    # -- rolling deploys ---------------------------------------------------------
    def rolling_swap(
        self, model: Any, version: str, drain_timeout_s: float = 30.0
    ) -> List[int]:
        """Deploy ``model`` as ``version`` across all replicas, one at a time.

        For each replica in turn: take it out of rotation (the balancer
        routes around it), drain its in-flight requests (they finish on the
        old model, stamped with the old version), hot-swap its handle, and
        put it back.  At every instant at least the other replicas serve
        traffic, every response is stamped with exactly the version that
        produced it, and no accepted request is dropped or errored.  Returns
        the replica ids swapped, in order.
        """
        swapped: List[int] = []
        for replica in self.replicas:
            if replica.handle is None:
                raise ConfigurationError(
                    f"replica {replica.id} has no model handle; rolling_swap "
                    "requires a model-serving replica set"
                )
            replica.set_draining(True)
            try:
                if not replica.runtime.drain(timeout=drain_timeout_s):
                    raise NetworkError(
                        f"replica {replica.id} did not drain within "
                        f"{drain_timeout_s}s; rolling swap aborted after "
                        f"{swapped or 'no'} replicas"
                    )
                replica.handle.swap(model, version)
            finally:
                replica.set_draining(False)
            swapped.append(replica.id)
            logger.info("rolling deploy: replica %d now serving %s", replica.id, version)
        return swapped

    @property
    def versions(self) -> Dict[int, Optional[str]]:
        """Live model version per replica (``None`` for data-plane replicas)."""
        return {
            r.id: (r.handle.version if r.handle is not None else None)
            for r in self.replicas
        }

    # -- lifecycle ---------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Quiescence barrier over every replica."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        for replica in self.replicas:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not replica.runtime.drain(timeout=remaining):
                return False
        return True

    def close(self) -> None:
        """Stop the health loop and shut every replica down (drain-on-shutdown
        semantics of each runtime apply).  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            replicas = list(self._replicas)
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        for replica in replicas:
            replica.runtime.shutdown()
        self._m_replicas.set(0)

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
