"""Concurrent serving runtime: lifecycle, scheduling, execution, observability.

The runtime turns *concurrent single-request traffic* into *batched
execution*.  Each configured operation maps to a **batch handler** — a
callable taking a list of payloads and returning one result per payload
(e.g. the ``*_batch`` plane functions of
:class:`~repro.core.planes.FairDMSService`).  Clients submit single payloads
and get back a :class:`concurrent.futures.Future`; the runtime coalesces
them with a dynamic micro-batching scheduler and executes whole batches on a
worker pool.

Architecture — two thread groups around one set of queues::

    client threads ──submit()──▶ per-op MicroBatcher   (bounded; admission control)
    worker threads ──take()──▶ handler(batch) ──▶ resolve futures, telemetry, observers

Scheduling is pull-based and work-conserving: a worker that is free takes
whatever its next operation has queued, up to ``max_batch_size``, *now*.
While every worker is busy, requests accumulate — the only time a batch can
form — and the batch is cut when a worker asks for it.  Workers rotate over
the operations, so a saturated operation cannot starve another.

Lifecycle: :meth:`ServingRuntime.start` → traffic → :meth:`ServingRuntime.drain`
(optional quiescence barrier) → :meth:`ServingRuntime.shutdown` (stops
admission, executes everything already accepted, then joins all threads — an
accepted request is never dropped).  The runtime is also a context manager.

Per-operation **observers** receive results in *arrival order* regardless of
which worker finished which batch first (via
:class:`~repro.monitoring.triggers.ArrivalOrderFeed`), so order-sensitive
consumers such as :meth:`~repro.monitoring.triggers.ThresholdTrigger.observe_many`
see exactly the stream a serial deployment would have produced.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.monitoring.triggers import ArrivalOrderFeed
from repro.observability.metrics import default_registry, internal_errors
from repro.observability.tracing import Span, Tracer
from repro.serving.batcher import BatchingPolicy, MicroBatcher, Request
from repro.serving.telemetry import ServingTelemetry
from repro.utils.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceClosedError,
    ServingError,
)
from repro.utils.logging import get_logger

logger = get_logger("repro.serving.runtime")

#: A batch handler: list of payloads in, one result per payload out, in order.
Handler = Callable[[List[Any]], Sequence[Any]]


class ServingRuntime:
    """Serve single-sample requests through dynamic micro-batching.

    Parameters
    ----------
    handlers:
        ``{op_name: batch_handler}``.  A handler receives the payloads of one
        micro-batch (1..max_batch_size items, FIFO within the batch) and must
        return exactly one result per payload, in order.  A handler exception
        fails every request of that batch (the exception propagates through
        each request's future).
    policy:
        The :class:`~repro.serving.batcher.BatchingPolicy`; defaults apply
        when omitted.  The ``max_queue_depth`` admission bound is enforced
        per operation.
    num_workers:
        Worker threads executing batches.  With more than one worker,
        batches of the same operation may *complete* out of order; per-request
        futures are unaffected, and observers still see arrival order.
    telemetry:
        A :class:`~repro.serving.telemetry.ServingTelemetry` to record into;
        a fresh one is created when omitted (exposed as ``.telemetry``).
    observers:
        ``{op_name: callback}``; the callback receives lists of results in
        arrival order (consecutive runs, each list non-empty) — e.g. a
        certainty trigger's ``observe_many``.  Results of failed requests are
        skipped without stalling the stream.
    tracer:
        A :class:`~repro.observability.tracing.Tracer` to sample request
        traces into.  ``None`` (the default) disables tracing entirely — the
        hot path takes zero extra branches beyond one ``is None`` check per
        submit, which is what keeps the disabled-path overhead negligible.
        When set, each sampled request's trace carries the spans
        ``serving.admission`` (admission → worker pickup: the true queue
        wait), ``serving.batch`` (handler execution, with the handler's own
        ``trace_span`` instrumentation — index scans, model predicts —
        grafted underneath), and ``serving.completion`` (execution end →
        futures resolved).
    """

    def __init__(
        self,
        handlers: Dict[str, Handler],
        policy: Optional[BatchingPolicy] = None,
        num_workers: int = 2,
        telemetry: Optional[ServingTelemetry] = None,
        observers: Optional[Dict[str, Callable[[List[Any]], Any]]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not handlers:
            raise ConfigurationError("at least one operation handler is required")
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        unknown = set(observers or {}) - set(handlers)
        if unknown:
            raise ConfigurationError(f"observers for unknown operations: {sorted(unknown)}")
        self.policy = policy or BatchingPolicy()
        self.telemetry = telemetry or ServingTelemetry()
        self.tracer = tracer
        self._handlers = dict(handlers)
        self._ops = sorted(self._handlers)
        # The one condition idle workers wait on.  Every batcher shares it, so
        # a submit to any operation wakes a worker, and the worker-pool state
        # below changes under the same lock the queues do.
        self._cond = threading.Condition()
        self._batchers = {op: MicroBatcher(self.policy, self._cond) for op in self._ops}
        self._rotation: Deque[str] = deque(self._ops)  # next op to serve first
        self._feeds = {
            op: ArrivalOrderFeed(callback) for op, callback in (observers or {}).items()
        }
        self._knob_lock = threading.Lock()
        self._knobs: Dict[str, Dict[str, Optional[Callable[..., Any]]]] = {}
        self._stats_providers: Dict[str, Callable[[], Any]] = {}
        # The pool size wanted, and the live worker threads.  A worker that
        # finds more threads than wanted when it is next between batches
        # retires (see scale_workers).
        self._num_workers = num_workers
        self._workers: List[threading.Thread] = []
        self._quiesce = threading.Condition()
        self._completed = 0
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "ServingRuntime":
        """Spawn the worker threads; idempotent-unsafe (once only)."""
        with self._cond:
            if self._started:
                raise ServingError("ServingRuntime already started")
            if self._closed:
                raise ServingError("ServingRuntime was shut down; create a new one")
            self._started = True
            self.telemetry.mark_started()
            for _ in range(self._num_workers):
                self._spawn_worker()
        logger.info(
            "serving runtime started: ops=%s workers=%d policy=%s",
            self._ops, self._num_workers, self.policy,
        )
        return self

    def _spawn_worker(self) -> None:
        """Start one worker thread (caller holds ``self._cond``).  Daemon, so
        a runtime left running cannot hang interpreter exit."""
        thread = threading.Thread(
            target=self._work_loop, name="serving-worker", daemon=True
        )
        self._workers.append(thread)
        thread.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every request accepted so far has resolved.

        Returns ``False`` when ``timeout`` (seconds) expired first.  The
        runtime keeps accepting traffic; this is a quiescence barrier, not a
        shutdown.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Admissions are counted by the batchers, so the submit hot path
        # never touches this condition variable.  The
        # target is snapshotted once: requests accepted *after* drain() was
        # called do not extend the wait.
        target = sum(b.admitted for b in self._batchers.values())
        with self._quiesce:
            while self._completed < target:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._quiesce.wait(timeout=remaining)
        return True

    def shutdown(self) -> None:
        """Stop admission, execute everything accepted, stop all threads.

        Every request admitted before shutdown resolves (drain-on-shutdown);
        later submissions raise :class:`ServiceClosedError`.  Idempotent.
        """
        with self._cond:
            if self._closed or not self._started:
                self._closed = True
                return
            # Closing the batchers under the workers' own lock is what makes a
            # racing submit all-or-nothing: it is either queued before this
            # point (and a worker will find it) or raises ServiceClosedError.
            self._closed = True
            for batcher in self._batchers.values():
                batcher.close()
            workers = list(self._workers)
        for thread in workers:
            thread.join()
        self.telemetry.mark_stopped()
        logger.info("serving runtime stopped: %d requests served", self._completed)

    def __enter__(self) -> "ServingRuntime":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- client API --------------------------------------------------------------
    def submit(
        self, op: str, payload: Any, trace: Optional[Span] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Enqueue one request; returns the future of its result.

        Raises :class:`ServiceOverloadedError` when the operation's queue is
        at ``max_queue_depth`` and :class:`ServiceClosedError` when the
        runtime is not accepting traffic.  ``trace`` lets a caller that
        already opened this request's root span (e.g. the network server,
        which times the transport phases too) hand it in instead of sampling
        a fresh root; the runtime's lifecycle spans are then recorded under
        the caller's root.  Ignored when the runtime has no tracer.
        ``deadline`` is a ``time.monotonic()`` instant: if it has passed by
        the time a worker picks the request up, the future fails with
        :class:`DeadlineExceededError` and the handler is not run for it.
        """
        if op not in self._handlers:
            raise ConfigurationError(f"unknown operation {op!r}; have {self._ops}")
        if not self._started or self._closed:
            raise ServiceClosedError("serving runtime is not accepting requests")
        request = Request(op=op, payload=payload, deadline=deadline)
        if self.tracer is not None:
            # None when this root lost the sampling draw — the request then
            # travels with no tracing state at all.
            request.trace = trace if trace is not None \
                else self.tracer.start_trace("serving.request", op=op)
        try:
            depth = self._batchers[op].submit(request)
        except ServingError as exc:
            if not isinstance(exc, ServiceClosedError):
                self.telemetry.record_rejection(op)
            if request.trace is not None:
                request.trace.set_attribute("rejected", True)
                self.tracer.end(request.trace, status="error")
            raise
        self.telemetry.record_admission(op, depth)
        if request.trace is not None:
            request.trace.set_attribute("queue_depth", depth)
        return request.future

    def call(self, op: str, payload: Any, timeout: Optional[float] = None) -> Any:
        """Submit and block for the result (the closed-loop client pattern)."""
        return self.submit(op, payload).result(timeout=timeout)

    # -- live reconfiguration ----------------------------------------------------
    def swap_handler(self, op: str, handler: Handler) -> None:
        """Atomically replace the batch handler of a live operation.

        Batches are dispatched against the handler installed at execution
        time (one atomic read per batch), so a batch already *executing*
        finishes on the handler it snapshotted, while batches that start
        executing after the swap — including requests still queued — see the
        replacement.  No accepted request is dropped or errored by the swap.

        For *model* swaps prefer a fixed handler over a
        :class:`~repro.serving.hot_swap.ModelHandle`
        (:func:`~repro.serving.hot_swap.versioned_handler`), which also stamps
        each response with the version that served it.
        """
        if op not in self._handlers:
            raise ConfigurationError(f"unknown operation {op!r}; have {self._ops}")
        self._handlers[op] = handler
        logger.info("handler for operation %r swapped", op)

    @property
    def operations(self) -> List[str]:
        return list(self._ops)

    @property
    def num_workers(self) -> int:
        """Worker threads executing batches (live-scalable)."""
        with self._cond:
            return self._num_workers

    def load(self) -> int:
        """Requests admitted but not yet resolved (queued or executing).

        The load-balancing signal of the network plane's power-of-two-choices
        replica picker; cheap enough to call per request (two lock reads, no
        snapshot construction).  Slightly racy by design — admissions and
        completions proceed concurrently — which only ever perturbs a
        balancing hint.
        """
        with self._quiesce:
            completed = self._completed
        admitted = sum(b.admitted for b in self._batchers.values())
        return max(0, admitted - completed)

    def scale_workers(self, n: int) -> int:
        """Grow or shrink the batch-executing worker pool of a live runtime.

        Growing spawns extra worker threads immediately.  Shrinking asks the
        surplus workers to retire: each exits when it is next between
        batches, so a batch already taken always finishes and the remaining
        workers (at least one) serve everything still queued — the pool never
        shrinks by abandoning work.  Returns the new worker count.  This is
        the autoscaler's intra-replica axis; replica count is the other one
        (:class:`repro.net.ReplicaSet`).
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigurationError("scale_workers requires an integer n >= 1")
        with self._cond:
            if not self._started or self._closed:
                raise ServingError("scale_workers requires a running runtime")
            current = self._num_workers
            self._num_workers = n
            # Surplus workers that have not retired yet count towards n.
            for _ in range(n - len(self._workers)):
                self._spawn_worker()
            if n < current:
                self._cond.notify_all()  # idle surplus workers retire now
        if n != current:
            logger.info("serving worker pool scaled %d -> %d", current, n)
        return n

    # -- live knobs --------------------------------------------------------------
    def register_knob(
        self,
        name: str,
        setter: Callable[[Any], Any],
        getter: Optional[Callable[[], Any]] = None,
        overwrite: bool = False,
    ) -> None:
        """Expose a live tunable of the serving stack (e.g. the IVF index's
        ``n_probe``) through this runtime.

        ``setter`` must apply the value **atomically** with respect to
        in-flight batches — the swap-handler discipline: batches already
        executing finish with the value they snapshotted, later batches see
        the new one, and no request is dropped either way.  The knob's
        current value (from ``getter`` when given, else unknown until the
        first :meth:`set_knob`) is reported in :meth:`telemetry_snapshot`.
        """
        if not callable(setter):
            raise ConfigurationError(f"knob {name!r} requires a callable setter")
        with self._knob_lock:
            if name in self._knobs and not overwrite:
                raise ConfigurationError(
                    f"knob {name!r} is already registered; pass overwrite=True"
                )
            self._knobs[name] = {"setter": setter, "getter": getter}
        if getter is not None:
            try:
                self.telemetry.record_knob(name, getter())
            except Exception:  # a broken getter must not break registration
                logger.exception("knob %r getter failed at registration", name)
                internal_errors(default_registry(), "runtime.knob_getter").inc()

    def set_knob(self, name: str, value: Any) -> Any:
        """Apply a live knob without stopping traffic; returns the value now
        in effect (the setter's return value when it provides one)."""
        with self._knob_lock:
            try:
                knob = self._knobs[name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown knob {name!r}; have {sorted(self._knobs)}"
                ) from None
        applied = knob["setter"](value)
        effective = applied if applied is not None else value
        self.telemetry.record_knob(name, effective, changed=True)
        logger.info("knob %r set to %r", name, effective)
        return effective

    @property
    def knobs(self) -> List[str]:
        """Names of the registered live knobs."""
        with self._knob_lock:
            return sorted(self._knobs)

    def register_stats_provider(self, name: str, provider: Callable[[], Any]) -> None:
        """Merge ``provider()``'s dict into every :meth:`telemetry_snapshot`
        under ``name`` — how deployment-level signals (index scan counters)
        ride along with the runtime's own telemetry."""
        if not callable(provider):
            raise ConfigurationError(f"stats provider {name!r} must be callable")
        with self._knob_lock:
            self._stats_providers[name] = provider

    # -- observability -----------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True between :meth:`start` and :meth:`shutdown`."""
        return self._started and not self._closed

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """``runtime.telemetry.snapshot()`` plus registered stats providers —
        the one-call health view facades aggregate (see
        ``Deployment.snapshot``).  Live knob values appear under ``"knobs"``;
        each provider's output under its registered name."""
        snap = self.telemetry.snapshot()
        with self._knob_lock:
            providers = dict(self._stats_providers)
        for name, provider in providers.items():
            try:
                snap[name] = provider()
            except Exception:  # a broken provider must not hide the snapshot
                logger.exception("stats provider %r failed", name)
                internal_errors(default_registry(), "runtime.stats_provider").inc()
                snap[name] = None
        return snap

    # -- internal threads --------------------------------------------------------
    def _next_batch(self) -> Optional[Tuple[str, List[Request]]]:
        """Block until some operation has requests queued and take them;
        ``None`` tells the calling worker to exit."""
        with self._cond:
            while True:
                if len(self._workers) > self._num_workers:
                    self._workers.remove(threading.current_thread())
                    return None
                # Serve the operations in rotation: whichever op this pickup
                # takes from goes to the back, so one saturated op cannot
                # starve the others.
                for _ in self._ops:
                    op = self._rotation[0]
                    self._rotation.rotate(-1)
                    batch = self._batchers[op].take()
                    if batch:
                        return op, batch
                # Every queue is empty.  Exit only once they are also closed
                # (shutdown closes them under this lock): a request admitted
                # before the close was found by the scan above.
                if self._closed:
                    return None
                self._cond.wait()

    def _work_loop(self) -> None:
        while True:
            taken = self._next_batch()
            if taken is None:
                return
            op, batch = taken
            try:
                picked_at = time.monotonic()
                self.telemetry.record_batch(
                    op, len(batch), picked_at - batch[0].admitted_at
                )
                live = self._fail_expired(op, batch, picked_at)
                if live:
                    self._execute(op, live, picked_at)
            except Exception as exc:
                # A bug in the runtime's own bookkeeping (handler errors reach
                # the futures inside _execute).  A thread has no caller to
                # raise to, and dying would strand everything still queued:
                # say so, fail what this batch left unresolved, keep serving.
                logger.exception("serving worker hit an internal error; continuing")
                internal_errors(default_registry(), "runtime.worker").inc()
                for request in batch:
                    if not request.future.done() \
                            and request.future.set_running_or_notify_cancel():
                        request.future.set_exception(exc)
            finally:
                self._note_completed(len(batch))

    def _fail_expired(
        self, op: str, batch: List[Request], now: float
    ) -> List[Request]:
        """Fail the requests whose deadline passed while they queued with
        :class:`DeadlineExceededError` — no handler slot is spent on an answer
        nobody is waiting for — and return the rest of the batch."""
        live = [r for r in batch if r.deadline is None or r.deadline > now]
        if len(live) == len(batch):
            return batch
        expired = [r for r in batch if r.deadline is not None and r.deadline <= now]
        self._fail(op, expired, DeadlineExceededError(
            f"deadline of {op!r} request expired while it was queued"
        ))
        for request in expired:
            if request.trace is not None:
                self.tracer.record_span(
                    "serving.admission", request.trace, request.admitted_at, now
                )
                request.trace.set_attribute("deadline_exceeded", True)
                self.tracer.end(request.trace, status="error")
        return live

    def _fail(self, op: str, requests: List[Request], exc: BaseException) -> None:
        """Deliver ``exc`` through every request's future, skip the requests
        in the arrival-order feed, and count them as failed completions."""
        feed = self._feeds.get(op)
        if feed is not None:
            try:
                feed.discard([request.seq for request in requests])
            except Exception:  # the sink may fire on newly consecutive results
                logger.exception("observer for operation %r failed on discard", op)
                internal_errors(default_registry(), "runtime.observer_discard").inc()
        for request in requests:
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(exc)
        now = time.monotonic()
        self.telemetry.record_completions(
            op, [now - request.admitted_at for request in requests], failed=True
        )

    def _execute(self, op: str, batch: List[Request], picked_at: float) -> None:
        feed = self._feeds.get(op)
        # Snapshot the handler once: a concurrent swap_handler() can never
        # split one batch across two handlers.
        handler = self._handlers[op]
        # A batch mixes sampled and unsampled requests; the handler runs once,
        # under a capture root, and the captured span tree (index scans, model
        # predicts) is grafted into every sampled request's trace afterwards.
        traced = (
            [request for request in batch if request.trace is not None]
            if self.tracer is not None else []
        )
        captured = None
        try:
            if traced:
                with self.tracer.capture(f"batch.{op}") as captured:
                    results = handler([request.payload for request in batch])
            else:
                results = handler([request.payload for request in batch])
            if results is None or len(results) != len(batch):
                got = "None" if results is None else str(len(results))
                raise ServingError(
                    f"handler for {op!r} returned {got} results for a batch of {len(batch)}"
                )
        except BaseException as exc:  # noqa: BLE001 — must reach the futures
            self._fail(op, batch, exc)
            self._finish_traces(traced, len(batch), picked_at, captured, failed=True)
            return
        if feed is not None:
            try:
                feed.push_many(
                    [(request.seq, result) for request, result in zip(batch, results)]
                )
            except Exception:  # an observer failure must not lose the batch's futures
                logger.exception("observer for operation %r failed", op)
                internal_errors(default_registry(), "runtime.observer").inc()
        # Resolve every future first — client wakeups start immediately —
        # then record the whole batch's telemetry under one lock acquisition.
        for request, result in zip(batch, results):
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(result)
        now = time.monotonic()
        self.telemetry.record_completions(
            op, [now - request.admitted_at for request in batch]
        )
        self._finish_traces(traced, len(batch), picked_at, captured)

    def _finish_traces(
        self,
        traced: List[Request],
        batch_size: int,
        picked_at: float,
        captured: Optional[Any],
        failed: bool = False,
    ) -> None:
        """Materialise each sampled request's span tree from the batch's
        lifecycle timestamps: queue wait until a worker picked the batch up,
        handler execution (with the captured handler-internal spans grafted
        under it), and future resolution."""
        if not traced:
            return
        tracer = self.tracer
        resolved_at = time.monotonic()
        status = "error" if failed else "ok"
        for request in traced:
            root: Span = request.trace
            tracer.record_span(
                "serving.admission", root, request.admitted_at, picked_at
            )
            batch_span = tracer.record_span(
                "serving.batch", root, picked_at, resolved_at,
                status=status, batch_size=batch_size,
            )
            if captured is not None:
                tracer.graft(captured, batch_span)
            tracer.record_span(
                "serving.completion", root, resolved_at, time.monotonic()
            )
            tracer.end(root, status=status)

    def _note_completed(self, n: int) -> None:
        with self._quiesce:
            self._completed += n
            self._quiesce.notify_all()
