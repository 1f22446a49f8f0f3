"""Tests for repro.utils.timing."""

import time

import pytest

from repro.utils.timing import StopWatch, Timer


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
