"""Tests for repro.utils.timing and repro.utils.parallel."""

import threading
import time

import pytest

from repro.utils.parallel import thread_map
from repro.utils.timing import RateMeter, StopWatch, Timer, timed


# -- Timer ---------------------------------------------------------------------
def test_timer_context_manager_measures_elapsed():
    with Timer() as t:
        time.sleep(0.01)
    assert t.elapsed >= 0.005


def test_timer_start_stop():
    t = Timer().start()
    time.sleep(0.005)
    elapsed = t.stop()
    assert elapsed > 0
    assert t.elapsed == elapsed


def test_timer_stop_without_start_raises():
    with pytest.raises(RuntimeError):
        Timer().stop()


# -- StopWatch -------------------------------------------------------------------
def test_stopwatch_accumulates_named_segments():
    sw = StopWatch()
    with sw.measure("label"):
        time.sleep(0.005)
    with sw.measure("label"):
        time.sleep(0.005)
    with sw.measure("train"):
        pass
    assert sw.get("label") >= 0.008
    assert sw.counts["label"] == 2
    assert sw.total() == pytest.approx(sw.get("label") + sw.get("train"))


def test_stopwatch_add_simulated_duration():
    sw = StopWatch()
    sw.add("label", 12.5)
    sw.add("label", 2.5)
    assert sw.get("label") == pytest.approx(15.0)
    assert sw.as_dict() == {"label": pytest.approx(15.0)}


def test_stopwatch_add_negative_raises():
    with pytest.raises(ValueError):
        StopWatch().add("x", -1.0)


def test_stopwatch_reset():
    sw = StopWatch()
    sw.add("a", 1.0)
    sw.reset()
    assert sw.total() == 0.0


# -- timed decorator ----------------------------------------------------------------
def test_timed_returns_result_and_duration():
    @timed
    def add(a, b):
        return a + b

    result, elapsed = add(2, 3)
    assert result == 5
    assert elapsed >= 0.0


# -- RateMeter -----------------------------------------------------------------------
def test_rate_meter_counts_items():
    meter = RateMeter()
    meter.update(10)
    meter.update(5)
    assert meter.total_items == 15
    assert meter.rate > 0


# -- thread_map ------------------------------------------------------------------------
def test_thread_map_preserves_order():
    out = thread_map(lambda x: x * x, list(range(20)), max_workers=4)
    assert out == [x * x for x in range(20)]


def test_thread_map_serial_path():
    out = thread_map(lambda x: x + 1, [1, 2, 3], max_workers=1)
    assert out == [2, 3, 4]


def test_thread_map_empty_input():
    assert thread_map(lambda x: x, [], max_workers=4) == []


def test_thread_map_chunked():
    out = thread_map(lambda chunk: sum(chunk), list(range(10)), max_workers=2, chunk=True)
    assert sum(out) == sum(range(10))


def test_thread_map_chunked_produces_at_most_max_workers_chunks():
    """Regression: floor-division chunking could yield up to 2*max_workers - 1
    chunks (9 items / 4 workers -> 5 chunks of [2,2,2,2,1]); ceil division
    caps the chunk count at max_workers while preserving order."""
    chunks = thread_map(lambda c: list(c), list(range(9)), max_workers=4, chunk=True)
    assert len(chunks) == 3  # ceil(9/4)=3 per chunk -> 3 chunks, not 5
    assert [x for c in chunks for x in c] == list(range(9))
    for n_items, workers in [(1, 4), (4, 4), (5, 4), (8, 4), (17, 4), (100, 7), (3, 8)]:
        chunks = thread_map(lambda c: list(c), list(range(n_items)), max_workers=workers, chunk=True)
        assert len(chunks) <= workers
        assert all(c for c in chunks)  # no empty chunks
        assert [x for c in chunks for x in c] == list(range(n_items))


def test_thread_map_actually_uses_threads():
    seen = set()

    def record(x):
        seen.add(threading.get_ident())
        time.sleep(0.01)
        return x

    thread_map(record, list(range(8)), max_workers=4)
    assert len(seen) >= 2


# -- KeyboardInterrupt propagation (regression) --------------------------------------
def test_thread_map_propagates_keyboard_interrupt_from_worker():
    def boom(x):
        if x == 3:
            raise KeyboardInterrupt
        return x

    with pytest.raises(KeyboardInterrupt):
        thread_map(boom, list(range(8)), max_workers=4)


def test_thread_map_chunked_propagates_keyboard_interrupt():
    def boom(chunk):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        thread_map(boom, list(range(8)), max_workers=4, chunk=True)
