"""Live telemetry of the serving runtime.

Records, thread-safely and with bounded memory, the signals that matter when
tuning the micro-batching policy:

* **queue depth** — sampled at every admission; rising depth means the
  handlers cannot keep up and ``max_queue_depth`` rejections are near;
* **batch-size distribution** — whether the scheduler actually coalesces
  (all-ones means a worker was free whenever a request arrived: traffic is
  light for the worker count), kept **per operation** so multi-op runtimes
  don't blend distributions;
* **latency / throughput** — per-request admission-to-completion latency
  (p50/p95/p99 over sliding reservoirs, global and per-op) and completed
  requests per second.

:meth:`ServingTelemetry.snapshot` returns a plain dict so the numbers can be
printed, asserted on in benchmarks, or serialised to ``BENCH_*.json``.

Every recording is **also emitted into a metrics registry**
(:mod:`repro.observability.metrics`; the process-global default unless one
is injected) under the ``repro_*`` naming scheme — ``repro_requests_total``,
``repro_request_latency_seconds``, ``repro_batch_size``,
``repro_batch_wait_seconds``, ``repro_queue_depth``, ``repro_serving_knob``
— so a Prometheus scrape of the registry sees every runtime in the process.
The registry's counters are cumulative (never reset — the Prometheus
contract); :meth:`snapshot` is the *windowed* view, and :meth:`reset` (called
automatically when a telemetry object is re-used across a runtime restart)
restarts the window so ``throughput_rps`` is always computed against the
uptime that actually produced the counted completions.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict, deque
from typing import Any, Deque, Dict, Optional, Sequence

from repro.observability.metrics import MetricsRegistry, default_registry
from repro.utils.stats import latency_summary

#: Batch-size histogram buckets (requests per micro-batch a worker took).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class ServingTelemetry:
    """Thread-safe counters and reservoirs for one serving runtime.

    Parameters
    ----------
    latency_reservoir:
        How many of the most recent per-request latencies are kept for the
        *global* percentile summary; older samples fall out of the sliding
        window so memory stays bounded under sustained traffic.
    per_op_reservoir:
        Reservoir size of each operation's own latency window (one bounded
        deque per op, so one chatty operation cannot evict another op's
        samples from its summary).
    registry:
        The :class:`~repro.observability.metrics.MetricsRegistry` to emit
        into; the process-global default registry when omitted.
    """

    def __init__(
        self,
        latency_reservoir: int = 8192,
        per_op_reservoir: int = 2048,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._lock = threading.Lock()
        self._latency_reservoir = int(latency_reservoir)
        self._per_op_reservoir = int(per_op_reservoir)
        self._latencies: Deque[float] = deque(maxlen=self._latency_reservoir)
        self._op_latencies: Dict[str, Deque[float]] = {}
        self._batch_sizes: Dict[str, Counter] = defaultdict(Counter)
        self._batch_wait_sum: Dict[str, float] = defaultdict(float)
        self._batch_wait_max: Dict[str, float] = defaultdict(float)
        self._depth_sum = 0
        self._depth_count = 0
        self._depth_max = 0
        self._depth_last = 0
        self._accepted: Counter = Counter()
        self._completed: Counter = Counter()
        self._failed: Counter = Counter()
        self._rejected: Counter = Counter()
        # Cumulative across reset()/restart — admission rejections otherwise
        # surface only as ServiceOverloadedError on the client side, so a
        # restarted window would erase the evidence of past overload.
        self._rejected_total: Counter = Counter()
        self._knob_values: Dict[str, Any] = {}
        self._knob_changes: Counter = Counter()
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        # -- the shared metrics plane (cumulative; survives reset()) -------------
        registry = registry or default_registry()
        self.registry = registry
        self._m_requests = registry.counter(
            "repro_requests_total",
            "Serving requests by operation and status "
            "(accepted/completed/failed/rejected)",
            ("op", "status"),
        )
        self._m_latency = registry.histogram(
            "repro_request_latency_seconds",
            "Admission-to-completion latency of served requests",
            ("op",),
        )
        self._m_batch_size = registry.histogram(
            "repro_batch_size",
            "Requests per micro-batch taken by a worker",
            ("op",),
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self._m_batch_wait = registry.histogram(
            "repro_batch_wait_seconds",
            "Queue wait of the head request of each micro-batch at worker pickup",
            ("op",),
        )
        self._m_depth = registry.gauge(
            "repro_queue_depth", "Operation queue depth sampled at admission", ("op",)
        )
        self._m_knob = registry.gauge(
            "repro_serving_knob", "Current value of a live serving knob", ("knob",)
        )

    # -- lifecycle ---------------------------------------------------------------
    def _reset_locked(self) -> None:
        self._latencies = deque(maxlen=self._latency_reservoir)
        self._op_latencies = {}
        self._batch_sizes = defaultdict(Counter)
        self._batch_wait_sum = defaultdict(float)
        self._batch_wait_max = defaultdict(float)
        self._depth_sum = 0
        self._depth_count = 0
        self._depth_max = 0
        self._depth_last = 0
        self._accepted = Counter()
        self._completed = Counter()
        self._failed = Counter()
        self._rejected = Counter()
        self._knob_values = {}
        self._knob_changes = Counter()
        self._started_at = None
        self._stopped_at = None

    def reset(self) -> None:
        """Zero the snapshot window: counters, reservoirs, and the uptime
        clock.  The shared metrics registry is deliberately untouched —
        Prometheus counters are cumulative by contract."""
        with self._lock:
            self._reset_locked()

    def mark_started(self) -> None:
        """Start (or restart) the uptime window.

        A telemetry object re-used across a runtime restart resets first:
        otherwise the stale completion counters would be divided by the new
        uptime window and ``throughput_rps`` would report nonsense.
        """
        with self._lock:
            if self._started_at is not None:
                self._reset_locked()
            self._started_at = time.monotonic()
            self._stopped_at = None

    def mark_stopped(self) -> None:
        with self._lock:
            self._stopped_at = time.monotonic()

    # -- recording ---------------------------------------------------------------
    def record_admission(self, op: str, depth: int) -> None:
        """An accepted request, with its operation queue's depth after admit."""
        with self._lock:
            self._accepted[op] += 1
            self._depth_sum += depth
            self._depth_count += 1
            self._depth_last = depth
            if depth > self._depth_max:
                self._depth_max = depth
        self._m_requests.labels(op=op, status="accepted").inc()
        self._m_depth.labels(op=op).set(depth)

    def record_rejection(self, op: str) -> None:
        with self._lock:
            self._rejected[op] += 1
            self._rejected_total[op] += 1
        self._m_requests.labels(op=op, status="rejected").inc()

    def record_batch(self, op: str, size: int, wait_s: float) -> None:
        """A batch a worker took: its size and how long its head request
        queued, attributed to the operation that produced it."""
        with self._lock:
            self._batch_sizes[op][size] += 1
            self._batch_wait_sum[op] += wait_s
            if wait_s > self._batch_wait_max[op]:
                self._batch_wait_max[op] = wait_s
        self._m_batch_size.labels(op=op).observe(size)
        self._m_batch_wait.labels(op=op).observe(wait_s)

    def record_completion(self, op: str, latency_s: float, failed: bool = False) -> None:
        """One request resolved, ``latency_s`` after its admission."""
        self.record_completions(op, (latency_s,), failed=failed)

    def record_completions(
        self, op: str, latencies_s: Sequence[float], failed: bool = False
    ) -> None:
        """A whole batch resolved — one lock acquisition for all its requests.

        ``failed=True`` marks requests whose handler raised (their futures
        carry the exception); they still count as completed for throughput
        and quiescence, but surface separately so a broken handler cannot
        masquerade as a healthy service.
        """
        with self._lock:
            self._completed[op] += len(latencies_s)
            if failed:
                self._failed[op] += len(latencies_s)
            self._latencies.extend(latencies_s)
            reservoir = self._op_latencies.get(op)
            if reservoir is None:
                reservoir = self._op_latencies.setdefault(
                    op, deque(maxlen=self._per_op_reservoir)
                )
            reservoir.extend(latencies_s)
        self._m_requests.labels(op=op, status="completed").inc(len(latencies_s))
        if failed:
            self._m_requests.labels(op=op, status="failed").inc(len(latencies_s))
        latency_child = self._m_latency.labels(op=op)
        for latency in latencies_s:
            latency_child.observe(latency)

    def record_knob(self, name: str, value: Any, changed: bool = False) -> None:
        """The current value of a live serving knob (e.g. ``n_probe``).

        ``changed=True`` marks an actual live retune (vs the initial value
        recorded at knob registration), so the snapshot can report how often
        each knob moved — the signal autoscaling experiments chart against
        latency.
        """
        with self._lock:
            self._knob_values[name] = value
            if changed:
                self._knob_changes[name] += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self._m_knob.labels(knob=name).set(value)

    # -- reporting ---------------------------------------------------------------
    @staticmethod
    def _batch_section(sizes: Counter, wait_sum: float, wait_max: float) -> Dict[str, Any]:
        n_batches = sum(sizes.values())
        batched_requests = sum(size * count for size, count in sizes.items())
        return {
            "batches": n_batches,
            "mean": batched_requests / n_batches if n_batches else 0.0,
            "max": max(sizes) if sizes else 0,
            "histogram": {size: sizes[size] for size in sorted(sizes)},
            "mean_wait_ms": (wait_sum / n_batches * 1e3) if n_batches else 0.0,
            "max_wait_ms": wait_max * 1e3,
        }

    def snapshot(self) -> Dict[str, Any]:
        """A point-in-time view of the runtime's health as a plain dict.

        The top-level ``batch_size`` and ``latency_ms`` sections aggregate
        across operations (unchanged shape from earlier releases); each
        ``per_op`` entry additionally carries its own ``batch_size`` and
        ``latency_ms`` sections, so multi-op runtimes can be tuned per
        operation instead of against a blended distribution.
        """
        with self._lock:
            now = self._stopped_at if self._stopped_at is not None else time.monotonic()
            uptime = (now - self._started_at) if self._started_at is not None else 0.0
            accepted = sum(self._accepted.values())
            completed = sum(self._completed.values())
            rejected = sum(self._rejected.values())
            failed = sum(self._failed.values())
            all_sizes: Counter = Counter()
            for sizes in self._batch_sizes.values():
                all_sizes.update(sizes)
            total_wait = sum(self._batch_wait_sum.values())
            max_wait = max(self._batch_wait_max.values(), default=0.0)
            ops = sorted(
                set(self._accepted) | set(self._completed)
                | set(self._rejected) | set(self._failed) | set(self._batch_sizes)
            )
            per_op = {
                op: {
                    "accepted": self._accepted[op],
                    "completed": self._completed[op],
                    "failed": self._failed[op],
                    "rejected": self._rejected[op],
                    "batch_size": self._batch_section(
                        self._batch_sizes.get(op, Counter()),
                        self._batch_wait_sum.get(op, 0.0),
                        self._batch_wait_max.get(op, 0.0),
                    ),
                    "latency_ms": latency_summary(self._op_latencies.get(op, ())),
                }
                for op in ops
            }
            return {
                "uptime_s": uptime,
                "accepted": accepted,
                "completed": completed,
                "rejected": rejected,
                # Lifetime rejections (survives reset()/mark_started), so a
                # restarted window cannot hide past admission pressure.
                "rejected_total": sum(self._rejected_total.values()),
                "failed": failed,
                "in_flight": accepted - completed,
                "throughput_rps": completed / uptime if uptime > 0 else 0.0,
                "latency_ms": latency_summary(self._latencies),
                "batch_size": self._batch_section(all_sizes, total_wait, max_wait),
                "queue_depth": {
                    "mean": self._depth_sum / self._depth_count if self._depth_count else 0.0,
                    "max": self._depth_max,
                    "last": self._depth_last,
                },
                "knobs": {
                    name: {"value": self._knob_values[name],
                           "changes": self._knob_changes[name]}
                    for name in sorted(self._knob_values)
                },
                "per_op": per_op,
            }

    def format_snapshot(self) -> str:
        """The snapshot rendered as a short human-readable block."""
        snap = self.snapshot()
        lat, batch, depth = snap["latency_ms"], snap["batch_size"], snap["queue_depth"]
        lines = [
            f"serving telemetry ({snap['uptime_s']:.2f}s up)",
            f"  requests   accepted={snap['accepted']} completed={snap['completed']} "
            f"rejected={snap['rejected']} (lifetime {snap['rejected_total']}) "
            f"failed={snap['failed']} in_flight={snap['in_flight']}",
            f"  throughput {snap['throughput_rps']:.1f} req/s",
            f"  latency    p50={lat['p50_ms']:.2f}ms p95={lat['p95_ms']:.2f}ms "
            f"p99={lat['p99_ms']:.2f}ms max={lat['max_ms']:.2f}ms",
            f"  batches    n={batch['batches']} mean_size={batch['mean']:.1f} "
            f"max_size={batch['max']} mean_wait={batch['mean_wait_ms']:.2f}ms",
            f"  queue      mean_depth={depth['mean']:.1f} max_depth={depth['max']}",
        ]
        for op, counts in snap["per_op"].items():
            op_lat = counts["latency_ms"]
            lines.append(
                f"  op {op:28s} accepted={counts['accepted']} "
                f"completed={counts['completed']} failed={counts['failed']} "
                f"rejected={counts['rejected']} p95={op_lat['p95_ms']:.2f}ms"
            )
        return "\n".join(lines)
