"""Process-pool executor: true parallelism across interpreters.

Workers are long-lived daemon processes fed over per-worker task queues; a
single shared result queue carries outcomes back.  Bulk data never rides the
queues — sessions map their arrays into ``multiprocessing.shared_memory``
segments (see :mod:`repro.compute.shm`) and workers attach zero-copy views,
so a task message is just ``(function reference, item metadata)``.

Wire discipline:

* Everything crossing a queue is pre-pickled to bytes in the *sending*
  thread.  ``multiprocessing.Queue`` otherwise pickles in a background feeder
  thread, where an unpicklable task silently strands the receiver — here it
  surfaces synchronously as a :class:`ComputeError`.
* Every dispatch carries a monotonically increasing call id; results from an
  aborted earlier call (e.g. after a task error) are recognised and dropped
  instead of corrupting the next fan-out.
* The parent polls worker liveness while waiting.  A worker that dies without
  reporting (segfault, SIGKILL, ``os._exit``) raises
  :class:`~repro.utils.errors.WorkerCrashError`, the pool is torn down
  immediately, and the executor is left in a broken state — shared-memory
  segments are still unlinked by ``close()``, so crashes cannot leak
  ``/dev/shm`` entries.

The pool starts lazily on first use: constructing a ``ProcessExecutor`` (as
spec validation does) spawns nothing.  The default start method is ``fork``
where available (workers inherit loaded modules; cheap on Linux), falling
back to ``spawn`` (macOS default, which re-imports ``repro`` in each worker —
one more reason task functions must be module-level).
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import queue as queue_module
import traceback
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional, Tuple

from repro.compute.executor import Executor, Session, WorkerContext, trace_span
from repro.compute.shm import ShmArena, arena_from_arrays, attach_array
from repro.observability.metrics import default_registry, internal_errors
from repro.utils.errors import ComputeError, WorkerCrashError
from repro.utils.logging import get_logger

logger = get_logger("repro.compute.process")

_POLL_SECONDS = 0.05

#: Reserved call id for worker-side message-decode failures (no real call id
#: is recoverable from an undecodable message).
_DECODE_ERROR_ID = -1


def _dumps(payload: Any, what: str) -> bytes:
    try:
        return pickle.dumps(payload)
    except Exception as exc:
        raise ComputeError(f"{what} is not picklable: {exc!r}") from exc


def _exc_payload(exc: BaseException) -> Tuple[Optional[bytes], str, str]:
    try:
        blob: Optional[bytes] = pickle.dumps(exc)
    except Exception:
        blob = None
    return blob, repr(exc), traceback.format_exc()


def _rebuild_exception(payload: Tuple[Optional[bytes], str, str]) -> BaseException:
    blob, rep, tb = payload
    if blob is not None:
        try:
            exc = pickle.loads(blob)
            exc.__cause__ = ComputeError(f"worker traceback:\n{tb}")
            return exc
        except Exception:
            # Pickles in the worker but not back here, e.g. an exception
            # whose __init__ takes more than its args: the type is lost.
            logger.warning("worker exception %s could not be unpickled; "
                           "raising it as ComputeError", rep, exc_info=True)
            internal_errors(default_registry(), "executor.rebuild").inc()
    return ComputeError(f"worker task failed: {rep}\n{tb}")


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker loop: attach sessions, run tasks, report (call_id, index,
    status, pickled payload, busy CPU seconds) tuples.

    Busy time is measured with ``thread_time`` (the worker loop is the
    process's only compute thread), not wall-clock: on a machine with fewer
    cores than workers a task's wall-clock includes time spent preempted by
    sibling workers, which would double-count shared-core contention in the
    executor's utilization stats and in any cost model built on them."""
    sessions: Dict[int, Tuple[WorkerContext, list]] = {}

    def reply(cid, index, status, value, seconds):
        try:
            blob = pickle.dumps(value)
        except Exception as exc:
            status, blob = "err", pickle.dumps(_exc_payload(exc))
        result_queue.put((cid, index, status, blob, seconds))

    try:
        while True:
            try:
                blob = task_queue.get()
            except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
                break
            try:
                message = pickle.loads(blob)
            except Exception as exc:
                # A message that only fails to decode child-side (e.g. a fn
                # defined after the pool forked).  No call id is recoverable,
                # so reply on the reserved id — the parent treats it as fatal
                # for whatever dispatch is in flight — and stay alive.
                reply(_DECODE_ERROR_ID, -1, "err", _exc_payload(exc), 0.0)
                continue
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "open_session":
                _, cid, sid, setup, setup_args, specs = message
                try:
                    handles, arrays = [], {}
                    for name, spec in specs.items():
                        shm, array = attach_array(spec)
                        handles.append(shm)
                        arrays[name] = array
                    ctx = WorkerContext(worker_id, arrays)
                    if setup is not None:
                        ctx.state = setup(ctx, *setup_args)
                    sessions[sid] = (ctx, handles)
                    reply(cid, worker_id, "ok", None, 0.0)
                except BaseException as exc:
                    reply(cid, worker_id, "err", _exc_payload(exc), 0.0)
            elif kind == "close_session":
                _, cid, sid = message
                entry = sessions.pop(sid, None)
                if entry is not None:
                    for shm in entry[1]:
                        try:
                            shm.close()
                        except Exception:  # pragma: no cover
                            pass
                reply(cid, worker_id, "ok", None, 0.0)
            elif kind == "tasks":
                _, cid, sid, fn, indexed = message
                ctx = None
                if sid is not None:
                    if sid not in sessions:
                        reply(cid, indexed[0][0], "err",
                              _exc_payload(ComputeError(f"unknown session {sid}")), 0.0)
                        continue
                    ctx = sessions[sid][0]
                for index, item in indexed:
                    try:
                        started = thread_time()
                        value = fn(item) if ctx is None else fn(ctx, item)
                        reply(cid, index, "ok", value, thread_time() - started)
                    except BaseException as exc:
                        reply(cid, index, "err", _exc_payload(exc), 0.0)
                        break  # remaining items of this dispatch are moot
    finally:
        for _ctx, handles in sessions.values():
            for shm in handles:
                try:
                    shm.close()
                except Exception:  # pragma: no cover
                    pass


class _ProcessSession(Session):
    def __init__(self, executor: "ProcessExecutor", arena: ShmArena, sid: int):
        super().__init__(executor, arena.arrays())
        self._arena = arena
        self._sid = sid


class ProcessExecutor(Executor):
    """The GIL-escaping backend.  See module docstring for the protocol."""

    kind = "process"

    def __init__(self, max_workers: int = 2, start_method: Optional[str] = None):
        super().__init__(max_workers=max_workers)
        self._requested_start_method = start_method
        self._mp_ctx = None
        self._procs: List[Any] = []
        self._task_queues: List[Any] = []
        self._result_queue: Optional[Any] = None
        self._started = False
        self._broken = False
        self._call_counter = 0
        self._session_counter = 0

    # -- lifecycle ---------------------------------------------------------------
    @property
    def start_method(self) -> str:
        if self._requested_start_method is not None:
            return self._requested_start_method
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

    def _ensure_started(self) -> None:
        if self._broken:
            raise ComputeError("process executor is broken (a worker crashed); create a new one")
        if self._started:
            return
        self._mp_ctx = multiprocessing.get_context(self.start_method)
        self._result_queue = self._mp_ctx.Queue()
        for worker_id in range(self.max_workers):
            task_queue = self._mp_ctx.Queue()
            proc = self._mp_ctx.Process(
                target=_worker_main,
                args=(worker_id, task_queue, self._result_queue),
                daemon=True,
                name=f"repro-exec-{worker_id}",
            )
            proc.start()
            self._task_queues.append(task_queue)
            self._procs.append(proc)
        self._started = True
        atexit.register(self.close)

    def _next_call_id(self) -> int:
        self._call_counter += 1
        return self._call_counter

    def _send(self, worker_id: int, message: Tuple[Any, ...], what: str) -> None:
        self._task_queues[worker_id].put(_dumps(message, what))

    # -- crash handling ----------------------------------------------------------
    def _abort(self, reason: str) -> "WorkerCrashError":
        """Terminate the pool and mark the executor unusable.  Shared-memory
        arenas are NOT touched here — ``close()`` (or the session/context
        manager unwinding past the raised error) unlinks them."""
        self._broken = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=2.0)
        self._set_queue_depth(0)
        return WorkerCrashError(reason)

    def _check_workers(self) -> None:
        for proc in self._procs:
            if not proc.is_alive():
                raise self._abort(
                    f"worker {proc.name} died with exit code {proc.exitcode} "
                    "before reporting a result"
                )

    def _collect(self, call_id: int, expected: List[int]) -> Tuple[Dict[int, Any], float]:
        remaining = set(expected)
        results: Dict[int, Any] = {}
        busy = 0.0
        while remaining:
            self._set_queue_depth(len(remaining))
            try:
                cid, index, status, blob, seconds = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                self._check_workers()
                continue
            if cid == _DECODE_ERROR_ID:
                self._set_queue_depth(0)
                raise _rebuild_exception(pickle.loads(blob))
            if cid != call_id:
                continue  # stale result from an aborted earlier dispatch
            if status == "err":
                self._set_queue_depth(0)
                raise _rebuild_exception(pickle.loads(blob))
            results[index] = pickle.loads(blob)
            busy += seconds
            remaining.discard(index)
        self._set_queue_depth(0)
        return results, busy

    # -- stateless map -----------------------------------------------------------
    def _dispatch(self, sid: Optional[int], fn, items: List[Any]) -> Tuple[List[Any], float]:
        self._ensure_started()
        call_id = self._next_call_id()
        assignments: List[List[Tuple[int, Any]]] = [[] for _ in range(self.max_workers)]
        for index, item in enumerate(items):
            assignments[index % self.max_workers].append((index, item))
        for worker_id, indexed in enumerate(assignments):
            if indexed:
                self._send(worker_id, ("tasks", call_id, sid, fn, indexed),
                           f"task function {getattr(fn, '__name__', fn)!r} (or an item)")
        results, busy = self._collect(call_id, list(range(len(items))))
        return [results[i] for i in range(len(items))], busy

    def _run_map(self, fn, items):
        return self._dispatch(None, fn, items)

    # -- sessions ----------------------------------------------------------------
    def _open_session(self, setup, setup_args, shared):
        self._ensure_started()
        arena = arena_from_arrays(shared)
        try:
            self._session_counter += 1
            sid = self._session_counter
            call_id = self._next_call_id()
            message = ("open_session", call_id, sid, setup, setup_args, arena.specs())
            for worker_id in range(self.max_workers):
                self._send(worker_id, message, "session setup")
            self._collect(call_id, list(range(self.max_workers)))
            return _ProcessSession(self, arena, sid)
        except BaseException:
            arena.close()
            raise

    def _session_map(self, session, fn, items):
        with trace_span("executor.task", kind=self.kind, tasks=len(items), session=True):
            started = perf_counter()
            results, busy = self._dispatch(session._sid, fn, items)
            self._observe(len(items), busy, perf_counter() - started)
        return results

    def _close_session(self, session) -> None:
        super()._close_session(session)
        try:
            if self._started and not self._broken:
                call_id = self._next_call_id()
                for worker_id in range(self.max_workers):
                    self._send(worker_id, ("close_session", call_id, session._sid), "session close")
                self._collect(call_id, list(range(self.max_workers)))
        except ComputeError:
            pass  # tearing down anyway; _abort already reclaimed the pool
        finally:
            session._arena.close()

    # -- shutdown ----------------------------------------------------------------
    def _shutdown(self) -> None:
        if not self._started:
            return
        atexit.unregister(self.close)
        if not self._broken:
            for worker_id in range(self.max_workers):
                try:
                    self._send(worker_id, ("shutdown",), "shutdown")
                except Exception:
                    logger.warning("sending shutdown to worker %d failed", worker_id,
                                   exc_info=True)
                    internal_errors(default_registry(), "executor.shutdown").inc()
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - slow shutdown fallback
                proc.terminate()
                proc.join(timeout=2.0)
        for q in [*self._task_queues, self._result_queue]:
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._procs, self._task_queues, self._result_queue = [], [], None
