"""Tests for the orchestration substrate (linear flows, transfer)."""

import numpy as np
import pytest

from repro.utils.errors import ConfigurationError, ValidationError
from repro.workflow.pipeline import FAILED, SKIPPED, Pipeline, PipelineStep
from repro.workflow.transfer import TransferService


# -- linear flows -------------------------------------------------------------------
# The paper's Globus Flow is an ordered step list sharing one context, which is
# exactly what a ``Pipeline`` is.
def _flow(name, *steps):
    """A pipeline of the ``(name, fn, kwargs)`` steps, in order."""
    pipeline = Pipeline(name)
    for step_name, fn, kwargs in steps:
        pipeline.add_step(step_name, fn, **kwargs)
    return pipeline


def test_flow_runs_steps_in_order_and_records_timings():
    flow = _flow(
        "update",
        ("double", lambda ctx: ctx["x"] * 2, {"output_key": "doubled"}),
        ("plus_one", lambda ctx: ctx["doubled"] + 1, {"output_key": "result"}),
    )
    result = flow.run({"x": 5})
    assert result.succeeded
    assert result.order == ["double", "plus_one"]
    assert result.context["result"] == 11
    assert set(result.step_times) == {"double", "plus_one"}
    assert result.total_time >= 0


def test_flow_stops_on_failure_and_reports_step():
    flow = _flow(
        "failing",
        ("ok", lambda ctx: 1, {"output_key": "a"}),
        ("boom", lambda ctx: 1 / 0, {}),
        ("never", lambda ctx: 2, {"output_key": "b"}),
    )
    result = flow.run()
    assert not result.succeeded
    assert result.failed_steps == ["boom"]
    assert result.statuses == {"ok": "completed", "boom": FAILED, "never": SKIPPED}
    assert isinstance(result.errors["boom"], ZeroDivisionError)
    assert "b" not in result.context


def test_flow_raise_on_error():
    flow = _flow("failing", ("boom", lambda ctx: 1 / 0, {}))
    with pytest.raises(ZeroDivisionError):
        flow.run(raise_on_error=True)


def test_flow_retries_flaky_step():
    attempts = {"n": 0}

    def flaky(ctx):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise RuntimeError("transient")
        return "ok"

    result = _flow("retrying", ("flaky", flaky, {"output_key": "out", "retries": 3})).run()
    assert result.succeeded
    assert result.context["out"] == "ok"
    assert result.step_attempts["flaky"] == 3


def test_flow_validation():
    with pytest.raises(ConfigurationError):
        Pipeline("")
    with pytest.raises(ConfigurationError):
        PipelineStep(name="", fn=lambda ctx: None)
    with pytest.raises(ConfigurationError):
        PipelineStep(name="x", fn=lambda ctx: None, retries=-1)


# -- TransferService ----------------------------------------------------------------------
def test_transfer_records_simulated_durations():
    svc = TransferService(bandwidth_bytes_per_s=1e6, latency_s=0.5)
    rec = svc.transfer_bytes(2_000_000, label="dataset")
    assert rec.simulated_seconds == pytest.approx(0.5 + 2.0)
    assert svc.total_bytes() == 2_000_000
    assert svc.total_seconds() == pytest.approx(rec.simulated_seconds)
    svc.reset()
    assert svc.total_bytes() == 0


def test_transfer_array_uses_nbytes():
    svc = TransferService(bandwidth_bytes_per_s=1e9, latency_s=0.0)
    arr = np.zeros((100, 100), dtype=np.float64)
    rec = svc.transfer_array(arr)
    assert rec.n_bytes == arr.nbytes
    assert rec.simulated_seconds == pytest.approx(arr.nbytes / 1e9)


def test_transfer_faster_link_is_faster():
    slow = TransferService(bandwidth_bytes_per_s=1e6, latency_s=0.0)
    fast = TransferService(bandwidth_bytes_per_s=1e9, latency_s=0.0)
    n = 10_000_000
    assert fast.simulated_duration(n) < slow.simulated_duration(n)


def test_transfer_validation():
    with pytest.raises(ConfigurationError):
        TransferService(bandwidth_bytes_per_s=0)
    with pytest.raises(ConfigurationError):
        TransferService(latency_s=-1)
    with pytest.raises(ConfigurationError):
        TransferService(realtime_fraction=2.0)
    with pytest.raises(ValidationError):
        TransferService().transfer_bytes(-5)
