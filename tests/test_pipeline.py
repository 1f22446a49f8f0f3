"""Tests for the step-chain pipeline engine (ordering, fault tolerance, resume)."""

import threading
import time

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry, set_default_registry
from repro.storage.documentdb import DocumentDB
from repro.utils.errors import ConfigurationError, PipelineError, StepTimeoutError
from repro.workflow.pipeline import (
    COMPLETED,
    FAILED,
    RESUMED,
    SKIPPED,
    CheckpointStore,
    Pipeline,
    PipelineStep,
)


def _recorder():
    """A thread-safe completion log: (list, fn-factory)."""
    log = []
    lock = threading.Lock()

    def make(name, value=None):
        def fn(ctx):
            with lock:
                log.append(name)
            return value

        return fn

    return log, make


# -- chain validation -------------------------------------------------------------
def test_duplicate_step_names_rejected():
    p = Pipeline("p").add_step("a", lambda ctx: 1).add_step("a", lambda ctx: 2)
    with pytest.raises(ConfigurationError, match="duplicate"):
        p.validate()


def test_step_parameter_validation():
    with pytest.raises(ConfigurationError):
        PipelineStep(name="", fn=lambda ctx: 1)
    with pytest.raises(ConfigurationError):
        PipelineStep(name="a", fn=lambda ctx: 1, retries=-1)
    with pytest.raises(ConfigurationError):
        PipelineStep(name="a", fn=lambda ctx: 1, timeout_s=0)
    with pytest.raises(ConfigurationError):
        PipelineStep(name="a", fn=lambda ctx: 1, retry_delay_s=-0.1)
    with pytest.raises(ConfigurationError):
        Pipeline("")


# -- execution order --------------------------------------------------------------
def test_steps_run_on_the_calling_thread_in_declaration_order():
    seen = []

    def make(name):
        return lambda ctx: seen.append((name, threading.get_ident()))

    p = Pipeline("chain")
    for name in ("d", "b", "a", "c"):
        p.add_step(name, make(name))
    result = p.run()
    assert result.succeeded
    assert result.order == ["d", "b", "a", "c"]
    assert seen == [(name, threading.get_ident()) for name in ("d", "b", "a", "c")]


def test_run_without_timeouts_starts_no_thread(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    p = Pipeline("threadless")
    for name in ("a", "b", "c"):
        p.add_step(name, lambda ctx: None, retries=1)
    assert p.run().succeeded
    assert started == []


def test_only_a_step_with_a_timeout_leaves_the_calling_thread():
    seen = {}

    def record(name):
        def fn(ctx):
            seen[name] = threading.get_ident()

        return fn

    p = (
        Pipeline("mixed")
        .add_step("before", record("before"))
        .add_step("bounded", record("bounded"), timeout_s=5.0)
        .add_step("after", record("after"))
    )
    assert p.run().succeeded
    caller = threading.get_ident()
    assert seen["before"] == caller and seen["after"] == caller
    assert seen["bounded"] != caller


def test_constructor_steps_run_before_added_steps_in_order():
    log, make = _recorder()
    p = Pipeline("seeded", steps=[PipelineStep("y", make("y")), PipelineStep("x", make("x"))])
    p.add_step("w", make("w"))
    result = p.run()
    assert result.succeeded
    assert result.order == ["y", "x", "w"]
    assert log == ["y", "x", "w"]


def test_step_lookup_by_name():
    fn = lambda ctx: 1  # noqa: E731
    p = Pipeline("p").add_step("a", fn).add_step("b", lambda ctx: 2, retries=3)
    assert p.step("a").fn is fn
    assert p.step("b").retries == 3
    with pytest.raises(ConfigurationError, match="no step 'ghost'"):
        p.step("ghost")


def test_outputs_flow_through_context():
    p = (
        Pipeline("ctx")
        .add_step("double", lambda ctx: ctx["x"] * 2, output_key="doubled")
        .add_step("plus_one", lambda ctx: ctx["doubled"] + 1, output_key="result")
    )
    result = p.run({"x": 5})
    assert result.succeeded
    assert result.context["result"] == 11
    assert result.order == ["double", "plus_one"]


# -- failure semantics ------------------------------------------------------------
def test_failure_skips_every_later_step():
    log, make = _recorder()
    p = (
        Pipeline("partial")
        .add_step("first", make("first"))
        .add_step("boom", lambda ctx: 1 / 0)
        .add_step("child", make("child"))
        .add_step("grandchild", make("grandchild"))
    )
    result = p.run()
    assert not result.succeeded
    assert result.statuses["first"] == COMPLETED
    assert result.statuses["boom"] == FAILED
    assert result.statuses["child"] == SKIPPED
    assert result.statuses["grandchild"] == SKIPPED
    assert isinstance(result.errors["boom"], ZeroDivisionError)
    assert result.failed_steps == ["boom"]
    assert result.skipped_steps == ["child", "grandchild"]
    assert log == ["first"]


def test_raise_on_error_reraises_original_exception():
    p = Pipeline("p").add_step("boom", lambda ctx: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        p.run(raise_on_error=True)


def test_raise_on_error_marks_later_steps_skipped_before_raising():
    log, make = _recorder()
    p = (
        Pipeline("raising")
        .add_step("boom", lambda ctx: 1 / 0)
        .add_step("after", make("after"))
        .add_step("later", make("later"))
    )
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        with pytest.raises(ZeroDivisionError):
            p.run(raise_on_error=True)
    finally:
        set_default_registry(previous)
    steps = registry.get("repro_pipeline_steps_total")
    assert steps.labels(pipeline="raising", status=FAILED).value == 1.0
    assert steps.labels(pipeline="raising", status=SKIPPED).value == 2.0
    assert log == []


@pytest.mark.parametrize("timeout_s", [None, 5.0])
def test_keyboard_interrupt_propagates_out_of_run(timeout_s):
    log, make = _recorder()

    def interrupted(ctx):
        log.append("ctrl_c")
        raise KeyboardInterrupt

    p = (
        Pipeline("interrupted")
        .add_step("first", make("first"))
        .add_step("ctrl_c", interrupted, retries=2, timeout_s=timeout_s)
        .add_step("after", make("after"))
    )
    with pytest.raises(KeyboardInterrupt):
        p.run()
    assert log == ["first", "ctrl_c"]  # not retried, and the chain stops


def test_retries_rerun_failed_attempts():
    attempts = {"n": 0}

    def flaky(ctx):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise RuntimeError("transient")
        return "ok"

    p = Pipeline("retrying").add_step("flaky", flaky, output_key="out", retries=3)
    result = p.run()
    assert result.succeeded
    assert result.context["out"] == "ok"
    assert result.step_attempts["flaky"] == 3


def test_retries_exhausted_reports_failure():
    p = Pipeline("p").add_step("always", lambda ctx: 1 / 0, retries=2)
    result = p.run()
    assert result.statuses["always"] == FAILED
    assert result.step_attempts["always"] == 3


# -- timeouts ---------------------------------------------------------------------
def test_step_timeout_fails_step_and_skips_dependents():
    log, make = _recorder()
    p = (
        Pipeline("timeout")
        .add_step("slow", lambda ctx: time.sleep(5.0), timeout_s=0.05)
        .add_step("after", make("after"))
        .add_step("later", make("later"))
    )
    start = time.perf_counter()
    result = p.run()
    assert time.perf_counter() - start < 3.0  # did not wait out the sleep
    assert result.statuses["slow"] == FAILED
    assert isinstance(result.errors["slow"], StepTimeoutError)
    assert isinstance(result.errors["slow"], PipelineError)
    assert result.statuses["after"] == SKIPPED
    assert result.statuses["later"] == SKIPPED
    assert log == []


def test_timeout_attempt_is_retriable():
    attempts = {"n": 0}

    def slow_then_fast(ctx):
        attempts["n"] += 1
        if attempts["n"] == 1:
            time.sleep(5.0)
        return "recovered"

    p = Pipeline("p").add_step("s", slow_then_fast, timeout_s=0.2, retries=1,
                               output_key="out")
    result = p.run()
    assert result.succeeded
    assert result.context["out"] == "recovered"
    assert result.step_attempts["s"] == 2


# -- checkpointed resume ----------------------------------------------------------
def _counting_pipeline(store, counters, fail_step=None):
    """a -> b -> c -> d, each counting invocations; fail_step raises."""

    def step(name, value):
        def fn(ctx):
            counters[name] = counters.get(name, 0) + 1
            if name == fail_step:
                raise RuntimeError(f"killed at {name}")
            return value

        return fn

    p = Pipeline("resumable", checkpoints=store)
    p.add_step("a", step("a", np.arange(6).reshape(2, 3)), output_key="a_out")
    p.add_step("b", step("b", {"k": 1}), output_key="b_out")
    p.add_step("c", step("c", "cc"), output_key="c_out")
    p.add_step("d", step("d", 4), output_key="d_out")
    return p


def test_resume_skips_checkpointed_steps_and_restores_outputs():
    db = DocumentDB()
    store = CheckpointStore(db)
    counters = {}

    first = _counting_pipeline(store, counters, fail_step="c").run(run_id="run-1")
    assert not first.succeeded
    assert first.statuses["a"] == COMPLETED and first.statuses["b"] == COMPLETED
    assert first.statuses["c"] == FAILED and first.statuses["d"] == SKIPPED

    second = _counting_pipeline(store, counters).run(run_id="run-1")
    assert second.succeeded
    # a and b were not re-executed; c and d ran for the first/second time.
    assert counters == {"a": 1, "b": 1, "c": 2, "d": 1}
    assert second.resumed == ["a", "b"]
    assert second.statuses["a"] == RESUMED and second.statuses["b"] == RESUMED
    # Restored outputs are available to the re-run steps and the final context.
    assert np.array_equal(second.context["a_out"], np.arange(6).reshape(2, 3))
    assert second.context["b_out"] == {"k": 1}
    assert second.context["d_out"] == 4


def test_resume_survives_database_save_and_load(tmp_path):
    """Simulate process death: checkpoints persisted to disk, reloaded fresh."""
    db = DocumentDB()
    store = CheckpointStore(db)
    counters = {}
    _counting_pipeline(store, counters, fail_step="d").run(run_id="run-9")
    db.save(str(tmp_path / "ckpt.db"))

    db2 = DocumentDB.load(str(tmp_path / "ckpt.db"))
    store2 = CheckpointStore(db2)
    counters2 = {}
    result = _counting_pipeline(store2, counters2).run(run_id="run-9")
    assert result.succeeded
    assert counters2 == {"d": 1}  # only the failed step re-ran
    assert result.resumed == ["a", "b", "c"]
    assert np.array_equal(result.context["a_out"], np.arange(6).reshape(2, 3))


def test_resume_restores_only_the_prefix_before_a_missing_checkpoint():
    store = CheckpointStore()
    counters = {}
    assert _counting_pipeline(store, counters).run(run_id="run-P").succeeded
    # b's checkpoint is lost; c's and d's survive but lie beyond the gap.
    assert store.collection.delete_many(
        {"pipeline": "resumable", "run_id": "run-P", "step": "b"}
    ) == 1

    result = _counting_pipeline(store, counters).run(run_id="run-P")
    assert result.succeeded
    assert result.resumed == ["a"]
    assert result.statuses == {"a": RESUMED, "b": COMPLETED, "c": COMPLETED, "d": COMPLETED}
    assert counters == {"a": 1, "b": 2, "c": 2, "d": 2}
    assert set(store.completed("resumable", "run-P")) == {"a", "b", "c", "d"}


def test_runs_are_isolated_by_run_id():
    store = CheckpointStore()
    counters = {}
    _counting_pipeline(store, counters).run(run_id="run-A")
    _counting_pipeline(store, counters).run(run_id="run-B")
    assert counters == {"a": 2, "b": 2, "c": 2, "d": 2}


def test_without_run_id_nothing_is_checkpointed():
    store = CheckpointStore()
    counters = {}
    _counting_pipeline(store, counters).run()
    assert store.collection.count() == 0


def test_non_checkpointed_step_reruns_on_resume():
    store = CheckpointStore()
    counters = {"side": 0}

    def side_effect(ctx):
        counters["side"] += 1
        return counters["side"]

    def build(fail=False):
        p = Pipeline("fx", checkpoints=store)
        p.add_step("side", side_effect, output_key="s", checkpoint=False)
        p.add_step("tail", (lambda ctx: 1 / 0) if fail else (lambda ctx: "ok"), output_key="t")
        return p

    build(fail=True).run(run_id="r")
    result = build().run(run_id="r")
    assert result.succeeded
    assert counters["side"] == 2  # re-applied despite being complete before
    assert result.resumed == []


def test_checkpoint_clear():
    store = CheckpointStore()
    counters = {}
    _counting_pipeline(store, counters).run(run_id="run-X")
    assert store.collection.count() == 4
    assert store.clear("resumable", "run-X") == 4
    _counting_pipeline(store, counters).run(run_id="run-X")
    assert counters["a"] == 2  # nothing resumed after the clear


def test_checkpoint_store_distinguishes_none_output():
    store = CheckpointStore()
    store.record("p", "r", "s", value=None, has_output=True)
    entry = store.completed("p", "r")["s"]
    assert entry.has_output and entry.value is None


# -- linear flows -----------------------------------------------------------------
def test_flow_supports_step_timeouts():
    """A timeout fires although steps otherwise run on the calling thread."""
    flow = Pipeline("slow").add_step("s", lambda ctx: time.sleep(5.0), timeout_s=0.05)
    result = flow.run()
    assert not result.succeeded
    assert result.failed_steps == ["s"]
    assert isinstance(result.errors["s"], StepTimeoutError)


def test_flow_as_pipeline_resumes_from_checkpoints():
    store = CheckpointStore()
    calls = {"head": 0}

    def head(ctx):
        calls["head"] += 1
        return "h"

    def build(fail=False):
        flow = Pipeline("resumable-flow", checkpoints=store)
        flow.add_step("head", head, output_key="h")
        flow.add_step("tail", (lambda ctx: 1 / 0) if fail else (lambda ctx: ctx["h"] + "!"),
                      output_key="t")
        return flow

    build(fail=True).run(run_id="f1")
    result = build().run(run_id="f1")
    assert result.succeeded
    assert calls["head"] == 1
    assert result.context["t"] == "h!"


def test_reserved_resumed_context_key():
    from repro.workflow.pipeline import RESUMED_CONTEXT_KEY

    p = Pipeline("p").add_step("a", lambda ctx: 1, output_key=RESUMED_CONTEXT_KEY)
    with pytest.raises(ConfigurationError, match="reserved"):
        p.validate()
    # Non-checkpointed runs never see the key.
    result = Pipeline("q").add_step("a", lambda ctx: 1, output_key="x").run({"seed": 0})
    assert result.context == {"seed": 0, "x": 1}
    serial = Pipeline("f").add_step("s", lambda ctx: 2, output_key="y").run()
    assert RESUMED_CONTEXT_KEY not in serial.context
    # Checkpointed runs expose it (empty on a fresh run).
    store = CheckpointStore()
    fresh = Pipeline("r", checkpoints=store).add_step("a", lambda ctx: 1).run(run_id="R")
    assert fresh.context[RESUMED_CONTEXT_KEY] == []


def test_mid_chain_non_checkpointed_step_does_not_block_downstream_resume():
    """a -> fx(checkpoint=False) -> b -> c: resuming after a failure at c must
    resume a and b (fx re-runs by design; it does not stale b's checkpoint)."""
    store = CheckpointStore()
    counters = {"a": 0, "fx": 0, "b": 0, "c": 0}

    def counting(name, fail=False):
        def fn(ctx):
            counters[name] += 1
            if fail:
                raise RuntimeError("boom")
            return name

        return fn

    def build(fail_c):
        p = Pipeline("fxchain", checkpoints=store)
        p.add_step("a", counting("a"), output_key="a")
        p.add_step("fx", counting("fx"), checkpoint=False)
        p.add_step("b", counting("b"), output_key="b")
        p.add_step("c", counting("c", fail=fail_c), output_key="c")
        return p

    assert not build(fail_c=True).run(run_id="R").succeeded
    result = build(fail_c=False).run(run_id="R")
    assert result.succeeded
    assert result.resumed == ["a", "b"]
    assert counters == {"a": 1, "fx": 2, "b": 1, "c": 2}
    assert result.context["b"] == "b" and result.context["c"] == "c"


def test_failed_rerunning_step_skips_pending_descendants_through_resumed_steps():
    """a -> fx(checkpoint=False) -> b -> c -> d, crash at d: on resume fx
    re-runs and fails permanently — d (pending) must be SKIPPED even though
    its direct dependency c was resumed, and its side effect must not fire."""
    store = CheckpointStore()
    ran = []

    def step(name, fail=False):
        def fn(ctx):
            ran.append(name)
            if fail:
                raise RuntimeError(f"{name} failed")
            return name

        return fn

    def build(fx_fails, d_fails):
        p = Pipeline("skipchain", checkpoints=store)
        p.add_step("a", step("a"), output_key="a")
        p.add_step("fx", step("fx", fail=fx_fails), checkpoint=False)
        p.add_step("b", step("b"), output_key="b")
        p.add_step("c", step("c"), output_key="c")
        p.add_step("d", step("d", fail=d_fails), output_key="d")
        return p

    assert not build(fx_fails=False, d_fails=True).run(run_id="R").succeeded
    ran.clear()
    result = build(fx_fails=True, d_fails=False).run(run_id="R")
    assert not result.succeeded
    assert result.statuses["fx"] == FAILED
    assert result.statuses["b"] == RESUMED and result.statuses["c"] == RESUMED
    assert result.statuses["d"] == SKIPPED  # no side effect despite resumed parent
    assert ran == ["fx"]


def test_pending_step_waits_for_rerunning_ancestor_through_resumed_chain():
    """On resume, a pending descendant must execute AFTER a re-running
    checkpoint=False ancestor, not concurrently with it."""
    store = CheckpointStore()
    order_log = []
    lock = threading.Lock()

    def step(name, fail=False, delay=0.0):
        def fn(ctx):
            if delay:
                time.sleep(delay)
            with lock:
                order_log.append(name)
            if fail:
                raise RuntimeError("boom")
            return name

        return fn

    def build(d_fails, fx_delay=0.0):
        p = Pipeline("orderchain", checkpoints=store)
        p.add_step("a", step("a"), output_key="a")
        p.add_step("fx", step("fx", delay=fx_delay), checkpoint=False)
        p.add_step("b", step("b"), output_key="b")
        p.add_step("d", step("d", fail=d_fails), output_key="d")
        return p

    assert not build(d_fails=True).run(run_id="S").succeeded
    order_log.clear()
    result = build(d_fails=False, fx_delay=0.1).run(run_id="S")
    assert result.succeeded
    assert order_log == ["fx", "d"]  # d waited out fx's re-run


def test_checkpoint_write_failure_degrades_durability_but_not_the_run():
    store = CheckpointStore()
    unpicklable = threading.Lock()
    p = (
        Pipeline("badckpt", checkpoints=store)
        .add_step("a", lambda ctx: unpicklable, output_key="a")
        .add_step("b", lambda ctx: "ok", output_key="b")
    )
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        result = p.run(run_id="R")  # must not raise despite the pickle failure
    finally:
        set_default_registry(previous)
    assert result.succeeded
    assert result.context["b"] == "ok"
    # Only b's checkpoint landed; a will simply re-run on resume.
    assert set(store.completed("badckpt", "R")) == {"b"}
    # The swallowed exception is counted, once.
    errors = registry.get("repro_internal_errors_total")
    assert errors.labels(site="pipeline.checkpoint").value == 1.0
