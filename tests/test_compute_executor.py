"""Tests for the repro.compute Executor seam (inline / thread / process).

Covers the satellite checklist explicitly: map parity across backends,
chunking semantics, typed error propagation out of workers, worker crashes
mid-dispatch surfacing as ``WorkerCrashError`` without deadlocking, and
shared-memory segments never outliving the executor — under normal exit,
exception unwinding, and SIGKILLed workers.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import create_component
from repro.compute import (
    ArraySpec,
    InlineExecutor,
    ProcessExecutor,
    ShmArena,
    ThreadExecutor,
    arena_from_arrays,
    attach_array,
    chunk_items,
)
from repro.observability.metrics import default_registry, internal_errors
from repro.utils.errors import ComputeError, ConfigurationError, WorkerCrashError

ALL_KINDS = ["inline", "thread", "process"]

_has_dev_shm = Path("/dev/shm").is_dir()


def _shm_count() -> int:
    return len(list(Path("/dev/shm").iterdir()))


def _make(kind: str, workers: int = 2):
    return create_component("executor", kind, max_workers=workers)


# -- module-level task functions (the process backend pickles by reference) ---
def _double(x):
    return 2 * x


def _sum_chunk(chunk):
    return sum(chunk)


def _boom_on_three(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _exit_hard(x):
    if x == 1:
        os._exit(13)
    return x


def _setup_state(ctx, base):
    return base + ctx.worker_id


def _ctx_echo(ctx, item):
    return (ctx.worker_id, ctx.state, item)


def _read_cell(ctx, i):
    return float(ctx.arrays["data"][i])


def _write_slot(ctx, slot):
    ctx.arrays["out"][slot] = slot + 1.0
    return slot


def _session_exit_hard(ctx, item):
    os._exit(13)


class _TwoArgError(Exception):
    """Pickles in the worker, but ``pickle.loads`` calls ``__init__(*args)``
    with one argument, so it cannot be rebuilt in the parent."""

    def __init__(self, a, b):
        super().__init__(a)
        self.b = b


def _raise_two_arg(x):
    raise _TwoArgError("x", x)


# ---------------------------------------------------------------------------------
# map parity across backends
# ---------------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_map_preserves_order_across_backends(kind):
    with _make(kind) as ex:
        assert ex.map(_double, list(range(17))) == [2 * i for i in range(17)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_map_chunked_matches_thread_map_rule(kind):
    items = list(range(9))
    with _make(kind, workers=4) as ex:
        results = ex.map(_sum_chunk, items, chunk=True)
    # ceil(9/4) = 3 per chunk -> [0+1+2, 3+4+5, 6+7+8]
    assert results == [3, 12, 21]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_map_empty_items(kind):
    with _make(kind) as ex:
        assert ex.map(_double, []) == []


def test_chunk_items_ceil_division():
    assert chunk_items(list(range(9)), 4) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert chunk_items([1], 4) == [[1]]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_task_errors_propagate_with_original_type(kind):
    with _make(kind) as ex:
        with pytest.raises(ValueError, match="boom on 3"):
            ex.map(_boom_on_three, list(range(6)))
        # The executor survives a task error; the next fan-out is clean.
        assert ex.map(_double, [1, 2]) == [2, 4]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_executor_rejects_work(kind):
    ex = _make(kind)
    ex.map(_double, [1])
    ex.close()
    ex.close()  # idempotent
    with pytest.raises(ComputeError, match="closed"):
        ex.map(_double, [1])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stats_and_metrics_accumulate(kind):
    counter = default_registry().counter(
        "repro_executor_tasks_total", "Tasks completed by the compute plane", ("kind",)
    ).labels(kind=kind)
    before = counter.value
    with _make(kind) as ex:
        ex.map(_double, list(range(5)))
        stats = ex.stats
    assert stats["kind"] == kind and stats["max_workers"] == 2
    assert stats["tasks_completed"] == 5
    assert stats["busy_seconds"] >= 0.0
    assert counter.value == before + 5


def test_thread_executor_map_propagates_keyboard_interrupt_from_a_worker():
    def boom(x):
        if x == 3:
            raise KeyboardInterrupt
        return x

    with ThreadExecutor(max_workers=4) as ex:
        with pytest.raises(KeyboardInterrupt):
            ex.map(boom, list(range(8)))


def test_thread_executor_chunked_map_propagates_keyboard_interrupt():
    def boom(chunk):
        raise KeyboardInterrupt

    with ThreadExecutor(max_workers=4) as ex:
        with pytest.raises(KeyboardInterrupt):
            ex.map(boom, list(range(8)), chunk=True)


def test_thread_executor_chunked_map_produces_at_most_max_workers_chunks():
    for n_items, workers in [(1, 4), (4, 4), (5, 4), (8, 4), (9, 4), (17, 4), (100, 7), (3, 8)]:
        with ThreadExecutor(max_workers=workers) as ex:
            chunks = ex.map(list, list(range(n_items)), chunk=True)
        assert len(chunks) <= workers
        assert all(chunks)  # no empty chunks
        assert [x for c in chunks for x in c] == list(range(n_items))


def test_thread_executor_map_runs_on_pool_threads():
    seen = set()

    def record(x):
        seen.add(threading.get_ident())
        time.sleep(0.01)
        return x

    with ThreadExecutor(max_workers=4) as ex:
        assert ex.map(record, list(range(8))) == list(range(8))
    assert len(seen) >= 2
    assert threading.get_ident() not in seen


def test_single_worker_thread_executor_map_preserves_order():
    with ThreadExecutor(max_workers=1) as ex:
        assert ex.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert ex.map(sum, [1, 2, 3], chunk=True) == [6]


def test_max_workers_validated():
    with pytest.raises(ConfigurationError, match="max_workers"):
        InlineExecutor(max_workers=0)
    with pytest.raises(ConfigurationError, match="max_workers"):
        ThreadExecutor(max_workers=-2)


def test_registry_lists_executor_backends():
    from repro.api.registry import available_components

    assert set(available_components("executor")) == {"inline", "thread", "process"}


# ---------------------------------------------------------------------------------
# sessions: per-worker state + shared arrays
# ---------------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_session_state_is_per_worker(kind):
    with _make(kind, workers=2) as ex:
        with ex.open_session(setup=_setup_state, setup_args=(100,)) as session:
            results = session.map(_ctx_echo, list(range(8)))
    assert [item for _w, _s, item in results] == list(range(8))
    for worker_id, state, _item in results:
        assert state == 100 + worker_id


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_session_workers_see_shared_arrays(kind):
    data = np.arange(10, dtype=np.float64) * 1.5
    with _make(kind, workers=2) as ex:
        with ex.open_session(shared={"data": data}) as session:
            got = session.map(_read_cell, list(range(10)))
    assert got == list(data)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_session_worker_writes_land_in_parent_view(kind):
    out = np.zeros(6, dtype=np.float64)
    with _make(kind, workers=2) as ex:
        with ex.open_session(shared={"out": out}) as session:
            session.map(_write_slot, list(range(6)))
            # the parent reads through session.arrays: shm-backed for the
            # process backend, the very same ndarray for inline/thread.
            np.testing.assert_array_equal(
                session.arrays["out"], np.arange(1.0, 7.0)
            )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_closed_session_rejects_map(kind):
    with _make(kind) as ex:
        session = ex.open_session()
        session.close()
        with pytest.raises(ComputeError, match="session is closed"):
            session.map(_ctx_echo, [1])


# ---------------------------------------------------------------------------------
# worker crashes: typed error, no deadlock, no leaked shm
# ---------------------------------------------------------------------------------
def test_worker_hard_exit_raises_worker_crash_error():
    with ProcessExecutor(max_workers=2) as ex:
        with pytest.raises(WorkerCrashError, match="exit code 13"):
            ex.map(_exit_hard, [0, 1])
        # the pool is torn down and unusable; close() is still clean.
        with pytest.raises(ComputeError, match="broken"):
            ex.map(_double, [1])


def test_sigkilled_worker_raises_worker_crash_error():
    ex = ProcessExecutor(max_workers=2)
    try:
        ex.map(_double, [1, 2])  # forces pool start
        os.kill(ex._procs[0].pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashError):
            ex.map(_double, list(range(4)))
    finally:
        ex.close()


@pytest.mark.skipif(not _has_dev_shm, reason="requires /dev/shm")
def test_shm_released_on_normal_session_exit():
    before = _shm_count()
    with ProcessExecutor(max_workers=2) as ex:
        with ex.open_session(shared={"data": np.ones(128)}) as session:
            session.map(_read_cell, [0, 1])
        assert _shm_count() == before  # released at session close already
    assert _shm_count() == before


@pytest.mark.skipif(not _has_dev_shm, reason="requires /dev/shm")
def test_shm_released_when_exception_unwinds_session():
    before = _shm_count()
    with pytest.raises(RuntimeError, match="mid-session"):
        with ProcessExecutor(max_workers=2) as ex:
            with ex.open_session(shared={"data": np.ones(128)}):
                raise RuntimeError("mid-session")
    assert _shm_count() == before


@pytest.mark.skipif(not _has_dev_shm, reason="requires /dev/shm")
def test_shm_released_after_worker_sigkill():
    before = _shm_count()
    ex = ProcessExecutor(max_workers=2)
    try:
        session = ex.open_session(shared={"data": np.ones(128)})
        with pytest.raises(WorkerCrashError):
            session.map(_session_exit_hard, [0, 1])
    finally:
        ex.close()
    assert _shm_count() == before


def test_unpicklable_task_function_is_a_typed_error():
    with ProcessExecutor(max_workers=2) as ex:
        with pytest.raises(ComputeError, match="not picklable"):
            ex.map(lambda x: x, [1, 2])
        # decode-side failure does not kill the pool either
        assert ex.map(_double, [3]) == [6]


# ---------------------------------------------------------------------------------
# swallowed failures are logged and counted
# ---------------------------------------------------------------------------------
def _capture(name):
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logging.getLogger(name).addHandler(handler)
    return records, handler


def test_a_worker_exception_that_cannot_be_unpickled_is_counted_and_logged():
    errors = internal_errors(default_registry(), "executor.rebuild")
    before = errors.value
    records, handler = _capture("repro.compute.process")
    try:
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ComputeError, match=r"worker task failed: _TwoArgError\('x'"):
                ex.map(_raise_two_arg, [1])
            assert ex.map(_double, [3]) == [6]
    finally:
        logging.getLogger("repro.compute.process").removeHandler(handler)
    assert errors.value == before + 1
    (record,) = [r for r in records if "could not be unpickled" in r.getMessage()]
    assert record.exc_info is not None


def test_a_failed_shutdown_send_is_counted_and_logged_and_close_still_reaps_workers():
    errors = internal_errors(default_registry(), "executor.shutdown")
    before = errors.value
    records, handler = _capture("repro.compute.process")
    ex = ProcessExecutor(max_workers=2)
    try:
        ex.map(_double, [1, 2])  # forces pool start
        procs = list(ex._procs)
        real_send = ex._send

        def raising_send(worker_id, message, what):
            real_send(worker_id, message, what)  # the worker still exits; only the call raises
            raise ComputeError("queue closed")

        ex._send = raising_send
        ex.close()
    finally:
        logging.getLogger("repro.compute.process").removeHandler(handler)
    assert not any(proc.is_alive() for proc in procs)
    assert errors.value == before + 2
    failed = [r for r in records if "sending shutdown" in r.getMessage()]
    assert len(failed) == 2 and all(r.exc_info is not None for r in failed)


# ---------------------------------------------------------------------------------
# shm arena primitives
# ---------------------------------------------------------------------------------
@pytest.mark.skipif(not _has_dev_shm, reason="requires /dev/shm")
def test_arena_create_attach_and_close():
    before = _shm_count()
    arena = arena_from_arrays({"v": np.arange(4, dtype=np.float32)})
    try:
        spec = arena.specs()["v"]
        assert isinstance(spec, ArraySpec)
        shm, view = attach_array(spec)
        np.testing.assert_array_equal(view, np.arange(4, dtype=np.float32))
        view[0] = 9.0
        assert arena.array("v")[0] == 9.0
        shm.close()
    finally:
        arena.close()
        arena.close()  # idempotent
    assert _shm_count() == before
    with pytest.raises(ComputeError, match="is gone"):
        attach_array(spec)


def test_arena_rejects_use_after_close_and_duplicates():
    arena = ShmArena()
    try:
        arena.create("a", (2,), np.float64)
        with pytest.raises(ComputeError, match="already holds"):
            arena.create("a", (2,), np.float64)
    finally:
        arena.close()
    with pytest.raises(ComputeError, match="closed"):
        arena.create("b", (2,), np.float64)
