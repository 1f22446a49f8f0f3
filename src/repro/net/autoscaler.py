"""Telemetry-driven autoscaling of workers and replicas.

The :class:`Autoscaler` closes the loop between the telemetry the serving
plane already emits and the two capacity knobs the network plane exposes:

* **workers per replica** — :meth:`ServingRuntime.scale_workers` grows or
  shrinks each runtime's batch-consuming thread pool live;
* **replica count** — :meth:`ReplicaSet.scale_to` adds replicas or drains
  and retires them.

Each control step reads two signals: *queue depth per replica* (mean of
:meth:`ServingRuntime.load` across in-rotation replicas — the instantaneous
backlog) and the telemetry-window *p95 latency* against ``target_p95_ms``.
Pressure on either side must persist for ``up_after`` / ``down_after``
**consecutive** steps (hysteresis) and respect per-direction cooldowns
before the scaler moves, so a single burst or lull cannot flap capacity.

Scaling is staged cheapest-first: pressure first adds workers to existing
replicas (threads are cheap; replicas carry queues, batchers and handles),
then adds replicas once every runtime is at ``max_workers``.  Scale-down
retraces in reverse — retire surplus replicas first (each drained, so no
accepted request is lost), then trim workers back toward ``min_workers``.

Every step emits ``repro_autoscaler_*`` metrics and appends to a bounded
decision history that the network benchmark turns into its scale-up /
scale-down timeline.  The clock is injectable so tests drive cooldowns
deterministically, and :meth:`step` is public so tests (and the benchmark)
can run the control law without the background thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.net.replica import ReplicaSet
from repro.observability.metrics import MetricsRegistry, default_registry, internal_errors
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger

logger = get_logger("repro.net.autoscaler")

__all__ = ["AutoscalePolicy", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Bounds, targets, and damping of the autoscaler control law.

    ``high_queue_per_replica`` / ``low_queue_per_replica`` are the scale-up
    and scale-down watermarks on mean queue depth per in-rotation replica;
    ``target_p95_ms`` (optional) adds latency pressure: a telemetry-window
    p95 above it counts as scale-up pressure even with a shallow queue.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    min_workers: int = 1
    max_workers: int = 4
    high_queue_per_replica: float = 8.0
    low_queue_per_replica: float = 1.0
    target_p95_ms: Optional[float] = None
    up_after: int = 2
    down_after: int = 3
    up_cooldown_s: float = 2.0
    down_cooldown_s: float = 10.0
    interval_s: float = 0.5
    history_size: int = 256

    def __post_init__(self) -> None:
        def _positive_int(name: str, value: Any, minimum: int = 1) -> None:
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ConfigurationError(
                    f"AutoscalePolicy.{name} must be an integer >= {minimum}, got {value!r}"
                )

        _positive_int("min_replicas", self.min_replicas)
        _positive_int("max_replicas", self.max_replicas)
        _positive_int("min_workers", self.min_workers)
        _positive_int("max_workers", self.max_workers)
        _positive_int("up_after", self.up_after)
        _positive_int("down_after", self.down_after)
        _positive_int("history_size", self.history_size)
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                "AutoscalePolicy.max_replicas must be >= min_replicas"
            )
        if self.max_workers < self.min_workers:
            raise ConfigurationError(
                "AutoscalePolicy.max_workers must be >= min_workers"
            )
        for name in ("high_queue_per_replica", "low_queue_per_replica",
                     "up_cooldown_s", "down_cooldown_s", "interval_s"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise ConfigurationError(
                    f"AutoscalePolicy.{name} must be a non-negative number, got {value!r}"
                )
        if self.interval_s <= 0:
            raise ConfigurationError("AutoscalePolicy.interval_s must be positive")
        if self.low_queue_per_replica >= self.high_queue_per_replica:
            raise ConfigurationError(
                "AutoscalePolicy.low_queue_per_replica must be below "
                "high_queue_per_replica (the hysteresis band)"
            )
        if self.target_p95_ms is not None and (
            not isinstance(self.target_p95_ms, (int, float))
            or isinstance(self.target_p95_ms, bool)
            or self.target_p95_ms <= 0
        ):
            raise ConfigurationError(
                "AutoscalePolicy.target_p95_ms must be a positive number or None"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "high_queue_per_replica": self.high_queue_per_replica,
            "low_queue_per_replica": self.low_queue_per_replica,
            "target_p95_ms": self.target_p95_ms,
            "up_after": self.up_after,
            "down_after": self.down_after,
            "up_cooldown_s": self.up_cooldown_s,
            "down_cooldown_s": self.down_cooldown_s,
            "interval_s": self.interval_s,
            "history_size": self.history_size,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AutoscalePolicy":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - field names
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown AutoscalePolicy fields: {sorted(unknown)}"
            )
        return cls(**data)


class Autoscaler:
    """Feedback controller over one :class:`ReplicaSet`.

    ``clock`` must be a monotonic float-second callable; tests inject a fake
    to step through cooldowns without sleeping.  Use :meth:`start` /
    :meth:`stop` for the background loop, or call :meth:`step` directly.
    """

    def __init__(
        self,
        replica_set: ReplicaSet,
        policy: Optional[AutoscalePolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy = policy or AutoscalePolicy()
        self._set = replica_set
        self._clock = clock
        self._lock = threading.Lock()
        self._up_streak = 0
        self._down_streak = 0
        self._last_up: Optional[float] = None
        self._last_down: Optional[float] = None
        self._history: Deque[Dict[str, Any]] = deque(maxlen=self.policy.history_size)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        registry = registry or default_registry()
        self._m_replicas = registry.gauge(
            "repro_autoscaler_replicas", "Replica count the autoscaler last observed"
        )
        self._m_workers = registry.gauge(
            "repro_autoscaler_workers", "Total workers across replicas last observed"
        )
        self._m_signal = registry.gauge(
            "repro_autoscaler_signal", "Control signals read at the last step", ("name",)
        )
        self._m_decisions = registry.counter(
            "repro_autoscaler_decisions_total",
            "Autoscaler decisions by direction", ("direction",),
        )
        self._m_step_errors = internal_errors(registry, "autoscaler.step")

    # -- signal acquisition ------------------------------------------------------
    def _read_signals(self) -> Dict[str, float]:
        replicas = self._set.replicas
        in_rotation = [r for r in replicas if r.accepting] or replicas
        total_load = sum(r.load() for r in in_rotation)
        queue_per_replica = total_load / max(1, len(in_rotation))
        p95_ms = 0.0
        for replica in in_rotation:
            snap = replica.runtime.telemetry_snapshot()
            p95_ms = max(p95_ms, float(snap.get("latency_ms", {}).get("p95_ms", 0.0)))
        workers = sum(r.runtime.num_workers for r in replicas)
        return {
            "replicas": float(len(replicas)),
            "workers": float(workers),
            "queue_per_replica": queue_per_replica,
            "p95_ms": p95_ms,
        }

    def _pressure(self, signals: Dict[str, float]) -> int:
        """+1 scale-up pressure, -1 scale-down pressure, 0 in the dead band."""
        if signals["queue_per_replica"] > self.policy.high_queue_per_replica:
            return 1
        if (self.policy.target_p95_ms is not None
                and signals["p95_ms"] > self.policy.target_p95_ms):
            return 1
        if signals["queue_per_replica"] < self.policy.low_queue_per_replica:
            return -1
        return 0

    # -- actuation ---------------------------------------------------------------
    def _scale_up(self) -> Optional[str]:
        """Cheapest capacity first: workers, then a replica.  Returns what
        moved (or None at the ceiling)."""
        for replica in self._set.replicas:
            if replica.runtime.num_workers < self.policy.max_workers:
                new = replica.runtime.scale_workers(replica.runtime.num_workers + 1)
                return f"workers(replica={replica.id})->{new}"
        if len(self._set) < self.policy.max_replicas:
            new_count = self._set.scale_to(len(self._set) + 1)
            return f"replicas->{new_count}"
        return None

    def _scale_down(self) -> Optional[str]:
        """Reverse of :meth:`_scale_up`: surplus replicas first, then workers."""
        if len(self._set) > self.policy.min_replicas:
            new_count = self._set.scale_to(len(self._set) - 1)
            return f"replicas->{new_count}"
        for replica in self._set.replicas:
            if replica.runtime.num_workers > self.policy.min_workers:
                new = replica.runtime.scale_workers(replica.runtime.num_workers - 1)
                return f"workers(replica={replica.id})->{new}"
        return None

    # -- the control step --------------------------------------------------------
    def step(self) -> Dict[str, Any]:
        """Run one control iteration; returns the decision record (also
        appended to :attr:`history`)."""
        with self._lock:
            now = self._clock()
            signals = self._read_signals()
            pressure = self._pressure(signals)
            self._up_streak = self._up_streak + 1 if pressure > 0 else 0
            self._down_streak = self._down_streak + 1 if pressure < 0 else 0
            direction = "hold"
            action: Optional[str] = None
            if (self._up_streak >= self.policy.up_after
                    and (self._last_up is None
                         or now - self._last_up >= self.policy.up_cooldown_s)):
                action = self._scale_up()
                if action is not None:
                    direction = "up"
                    self._last_up = now
                    self._up_streak = 0
            elif (self._down_streak >= self.policy.down_after
                    and (self._last_down is None
                         or now - self._last_down >= self.policy.down_cooldown_s)):
                action = self._scale_down()
                if action is not None:
                    direction = "down"
                    self._last_down = now
                    self._down_streak = 0
            after = {
                "replicas": len(self._set),
                "workers": sum(r.runtime.num_workers for r in self._set.replicas),
            }
            decision = {
                "t": now,
                "signals": signals,
                "pressure": pressure,
                "direction": direction,
                "action": action,
                **after,
            }
            self._history.append(decision)
        self._m_replicas.set(after["replicas"])
        self._m_workers.set(after["workers"])
        for name in ("queue_per_replica", "p95_ms"):
            self._m_signal.labels(name=name).set(signals[name])
        self._m_decisions.labels(direction=direction).inc()
        if direction != "hold":
            logger.info("autoscaler %s: %s (queue/replica=%.2f p95=%.1fms)",
                        direction, action, signals["queue_per_replica"],
                        signals["p95_ms"])
        return decision

    @property
    def history(self) -> List[Dict[str, Any]]:
        """Bounded record of recent decisions, oldest first."""
        with self._lock:
            return list(self._history)

    # -- background loop ---------------------------------------------------------
    def start(self) -> "Autoscaler":
        if self._thread is not None:
            raise ConfigurationError("autoscaler already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="autoscaler", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.policy.interval_s):
            try:
                self.step()
            except Exception:  # keep the control loop alive through any one bad step
                logger.exception("autoscaler step failed")
                self._m_step_errors.inc()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
