"""The ``Executor`` seam: one interface over inline / thread / process compute.

Every CPU-bound plane that fans out (pseudo-Voigt peak fitting, batched
embedding) calls this seam instead of hand-rolling thread pools, so the
backend is a deployment decision — ``ExecutorSpec`` on ``SystemSpec`` picks
it by registry name, and call sites never change.

Two calling shapes:

* :meth:`Executor.map` — stateless fan-out: ``fn(item)`` per item, results in
  input order, with ``chunk=True`` ceil-division chunking and
  cancel-and-reraise on the first error (``KeyboardInterrupt`` included).
* :meth:`Executor.open_session` — stateful fan-out for hot loops: a
  :class:`Session` pins per-worker state (built once by ``setup``) and a set
  of named shared ndarrays, then ``session.map(fn, items)`` calls
  ``fn(ctx, item)`` with :class:`WorkerContext` giving each task its worker's
  state and array views.  The process backend maps the arrays into
  ``multiprocessing.shared_memory`` so only task metadata is pickled.

Observability: each ``map`` emits one ``executor.task`` trace span and feeds
the ``repro_executor_*`` metrics family (task counter, queue-depth and
utilization gauges, per-task busy-time histogram) — all labeled by executor
kind.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.observability.metrics import default_registry
from repro.observability.tracing import trace_span
from repro.utils.errors import ComputeError, ConfigurationError


class WorkerContext:
    """What a session task sees: who am I, my state, the shared arrays."""

    __slots__ = ("worker_id", "arrays", "state")

    def __init__(self, worker_id: int, arrays: Mapping[str, np.ndarray], state: Any = None):
        self.worker_id = worker_id
        self.arrays = arrays
        self.state = state


class Session:
    """A stateful fan-out scope: per-worker state + named shared arrays.

    Obtained from :meth:`Executor.open_session`; close it (or close the
    executor) to release per-worker state and shared-memory segments.
    """

    def __init__(self, executor: "Executor", arrays: Mapping[str, np.ndarray]):
        self._executor = executor
        self.arrays: Mapping[str, np.ndarray] = arrays
        self._closed = False

    def map(self, fn: Callable[[WorkerContext, Any], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn(ctx, item)`` per item; results in input order."""
        if self._closed:
            raise ComputeError("session is closed")
        items = list(items)
        if not items:
            return []
        return self._executor._session_map(self, fn, items)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._executor._close_session(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def chunk_items(items: List[Any], max_workers: int) -> List[List[Any]]:
    """Ceil-division contiguous chunking: 9 items / 4 workers → chunks of 3,
    i.e. ceil(9/4) per chunk, so there are never more chunks than workers."""
    n = -(-len(items) // max(1, max_workers))
    return [items[i : i + n] for i in range(0, len(items), n)]


class Executor:
    """Abstract compute backend.  Subclasses implement ``_run_map`` (stateless)
    and the session hooks; everything observable lives here."""

    kind: str = "abstract"

    def __init__(self, max_workers: int = 1):
        if not isinstance(max_workers, int) or isinstance(max_workers, bool) or max_workers < 1:
            raise ConfigurationError("max_workers must be an integer >= 1")
        self.max_workers = max_workers
        self._closed = False
        self._sessions: List[Session] = []
        self._tasks_completed = 0
        self._busy_seconds = 0.0

    # -- public surface ----------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], chunk: bool = False) -> List[Any]:
        """Apply ``fn`` to every item; results in input order.  With
        ``chunk=True``, ``fn`` receives contiguous chunks instead (see
        :func:`chunk_items`)."""
        self._require_open()
        items = list(items)
        if chunk and items:
            items = chunk_items(items, self.max_workers)
        if not items:
            return []
        with trace_span("executor.task", kind=self.kind, tasks=len(items)):
            started = perf_counter()
            results, busy = self._run_map(fn, items)
            self._observe(len(items), busy, perf_counter() - started)
        return results

    def open_session(
        self,
        setup: Optional[Callable[..., Any]] = None,
        setup_args: Tuple[Any, ...] = (),
        shared: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Session:
        """Open a stateful fan-out scope.

        ``setup(ctx, *setup_args)`` runs once per worker (its return value
        becomes ``ctx.state`` for that worker's tasks); ``shared`` arrays are
        made visible to every worker as ``ctx.arrays`` — by reference for
        inline/thread backends, through shared-memory segments for the
        process backend.  For the process backend, ``setup``, its args, and
        every ``fn`` passed to ``session.map`` must be picklable (module-level
        functions).
        """
        self._require_open()
        session = self._open_session(setup, tuple(setup_args), dict(shared or {}))
        self._sessions.append(session)
        return session

    def close(self) -> None:
        """Release workers, sessions, and shared memory.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for session in list(self._sessions):
            session.close()
        self._shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> Dict[str, Any]:
        """Cumulative parent-observed work: task count and busy seconds (sum
        of per-task compute time inside workers, excluding dispatch)."""
        return {
            "kind": self.kind,
            "max_workers": self.max_workers,
            "tasks_completed": self._tasks_completed,
            "busy_seconds": self._busy_seconds,
        }

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}(max_workers={self.max_workers}, {state})"

    # -- subclass hooks ----------------------------------------------------------
    def _run_map(self, fn, items) -> Tuple[List[Any], float]:
        raise NotImplementedError

    def _open_session(self, setup, setup_args, shared) -> Session:
        raise NotImplementedError

    def _session_map(self, session: Session, fn, items) -> List[Any]:
        raise NotImplementedError

    def _close_session(self, session: Session) -> None:
        if session in self._sessions:
            self._sessions.remove(session)

    def _shutdown(self) -> None:
        pass

    # -- shared plumbing ---------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ComputeError(f"{self.kind} executor is closed")

    def _observe(self, tasks: int, busy_seconds: float, wall_seconds: float) -> None:
        self._tasks_completed += tasks
        self._busy_seconds += busy_seconds
        registry = default_registry()
        registry.counter(
            "repro_executor_tasks_total", "Tasks completed by the compute plane", ("kind",)
        ).labels(kind=self.kind).inc(tasks)
        registry.histogram(
            "repro_executor_task_seconds", "Per-task busy time inside workers", ("kind",)
        ).labels(kind=self.kind).observe(busy_seconds / max(1, tasks))
        denominator = max(wall_seconds, 1e-9) * self.max_workers
        registry.gauge(
            "repro_executor_utilization",
            "Busy fraction of the worker pool over the last fan-out",
            ("kind",),
        ).labels(kind=self.kind).set(min(1.0, busy_seconds / denominator))
        registry.gauge(
            "repro_executor_workers", "Configured worker count", ("kind",)
        ).labels(kind=self.kind).set(self.max_workers)

    def _set_queue_depth(self, depth: int) -> None:
        default_registry().gauge(
            "repro_executor_queue_depth", "Tasks dispatched but not yet completed", ("kind",)
        ).labels(kind=self.kind).set(depth)


def _timed_call(fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
    """``fn(*args)`` and the CPU seconds the calling thread spent on it — the
    process workers' measure: a task's wall clock would also count the time
    a sibling thread held the GIL."""
    started = thread_time()
    return fn(*args), thread_time() - started


class InlineExecutor(Executor):
    """Serial reference backend: everything runs in the caller's thread.

    Useful as the parity baseline in tests (same code path as the parallel
    backends, no concurrency) and as the spec default: a deployment without
    an ``executor`` section behaves exactly like one with ``kind="inline"``.
    """

    kind = "inline"

    def __init__(self, max_workers: int = 1):
        super().__init__(max_workers=max_workers)

    def _run_map(self, fn, items):
        results, busy = [], 0.0
        for item in items:
            value, seconds = _timed_call(fn, item)
            results.append(value)
            busy += seconds
        return results, busy

    def _open_session(self, setup, setup_args, shared):
        ctx = WorkerContext(0, shared)
        if setup is not None:
            ctx.state = setup(ctx, *setup_args)
        session = Session(self, shared)
        session._contexts = [ctx]  # type: ignore[attr-defined]
        return session

    def _session_map(self, session, fn, items):
        ctx = session._contexts[0]  # type: ignore[attr-defined]
        with trace_span("executor.task", kind=self.kind, tasks=len(items), session=True):
            started = perf_counter()
            results, busy = [], 0.0
            for item in items:
                value, seconds = _timed_call(fn, ctx, item)
                results.append(value)
                busy += seconds
            self._observe(len(items), busy, perf_counter() - started)
        return results


class ThreadExecutor(Executor):
    """Thread-pool backend: shares the caller's address space, so nothing is
    pickled and shared arrays are plain references.  Best for workloads that
    release the GIL (large-matrix numpy ops, ``least_squares``); pure-Python
    inner loops want the process backend instead."""

    kind = "thread"

    def __init__(self, max_workers: int = 4):
        super().__init__(max_workers=max_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    def _collect(self, futures: List[Any]) -> List[Any]:
        """Gather in submission order; on any error — KeyboardInterrupt
        included — cancel what has not started and re-raise."""
        results = []
        try:
            for future in futures:
                results.append(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def _run_map(self, fn, items):
        pool = self._ensure_pool()
        futures = [pool.submit(_timed_call, fn, item) for item in items]
        pairs = self._collect(futures)
        return [value for value, _ in pairs], sum(seconds for _, seconds in pairs)

    def _open_session(self, setup, setup_args, shared):
        contexts = []
        for worker_id in range(self.max_workers):
            ctx = WorkerContext(worker_id, shared)
            if setup is not None:
                ctx.state = setup(ctx, *setup_args)
            contexts.append(ctx)
        session = Session(self, shared)
        session._contexts = contexts  # type: ignore[attr-defined]
        return session

    def _session_map(self, session, fn, items):
        contexts = session._contexts  # type: ignore[attr-defined]
        workers = len(contexts)
        # Round-robin items onto contexts, one runner per context: a context
        # (usually holding a non-thread-safe model replica) never executes
        # two tasks concurrently.
        assignments: List[List[Tuple[int, Any]]] = [[] for _ in range(workers)]
        for index, item in enumerate(items):
            assignments[index % workers].append((index, item))

        def run_slice(ctx: WorkerContext, indexed: List[Tuple[int, Any]]):
            out = []
            for index, item in indexed:
                value, seconds = _timed_call(fn, ctx, item)
                out.append((index, value, seconds))
            return out

        with trace_span("executor.task", kind=self.kind, tasks=len(items), session=True):
            started = perf_counter()
            pool = self._ensure_pool()
            futures = [
                pool.submit(run_slice, ctx, indexed)
                for ctx, indexed in zip(contexts, assignments)
                if indexed
            ]
            slices = self._collect(futures)
            results: List[Any] = [None] * len(items)
            busy = 0.0
            for triples in slices:
                for index, value, seconds in triples:
                    results[index] = value
                    busy += seconds
            self._observe(len(items), busy, perf_counter() - started)
        return results

    def _shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
