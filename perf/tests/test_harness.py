"""Tests of the benchmark harness itself (collected by the tier-1 run).

They pin the statistics the benchmark reports, keep ``BENCHMARK.json`` and the
names the passes emit in step, run every workload once at ``--scale tiny``,
and prove that a wrong answer from the program is counted as a failed
operation.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
ROOT = PERF_DIR.parent

_spec = importlib.util.spec_from_file_location("perf_run", PERF_DIR / "run.py")
perf_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_run)  # also puts perf/ and src/ on sys.path

from perfkit import spans, stats, workloads  # noqa: E402

TINY_SECONDS = 0.4
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def catalogue():
    return perf_run.catalogue()


@pytest.fixture(scope="module")
def tiny_runs():
    """One untraced tiny run of every workload, shared by the tests below."""
    return {name: perf_run.run_untraced(name, seed=5, seconds=TINY_SECONDS, scale="tiny")
            for name in workloads.MEASURE}


# -- statistics --------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_percentile_needs_ten_samples_beyond_it(n, expected):
    assert stats.supported_percentile(n) == expected


def test_tail_is_capped_and_reports_its_percentile():
    samples = np.arange(1, 10001, dtype=float)
    pct, value = stats.tail(samples)          # cap defaults to p95
    assert pct == 95.0 and value == pytest.approx(np.percentile(samples, 95))
    assert stats.tail(samples[:30])[0] == 50.0


def test_windowed_percentile_reads_the_quietest_window():
    # Five 1 s windows of 100 samples at 1 ms; window 2 is one long stall.
    times = np.repeat(np.arange(5.0), 100) + np.tile(np.linspace(0, 0.99, 100), 5)
    values = np.ones(500)
    values[200:300] = 80.0
    estimate, per_window = stats.windowed_percentile(times, values, 1.0, 5, 95.0)
    assert per_window == [1.0, 1.0, 80.0, 1.0, 1.0]
    assert estimate == 1.0                     # the stall moves one window, not the estimate
    assert np.percentile(values, 95) == 80.0   # ...where a pooled p95 reads the stall
    # Dropping windows the generator starved in leaves the others.
    estimate, per_window = stats.windowed_percentile(
        times, values, 1.0, 5, 95.0, valid=[True, True, False, True, False])
    assert per_window == [1.0, 1.0, 1.0] and estimate == 1.0


def test_quietest_takes_the_better_side():
    blocks = [12.0, 10.0, 11.0, 13.0, 30.0]
    assert stats.quietest(blocks) == 10.0
    assert stats.quietest(blocks, better="higher") == 30.0


def test_steady_median_ignores_a_disturbed_stretch_but_not_a_slow_program():
    quiet = np.full(100, 10.0)
    disturbed = quiet.copy()
    disturbed[30:70] = 14.0                    # 40 % of the run ran 1.4x slower
    assert np.median(disturbed) == 10.0 and stats.steady_median(disturbed) == 10.0
    disturbed[10:95] = 14.0                    # 85 %: the whole-run median moves...
    assert np.median(disturbed) == 14.0 and stats.steady_median(disturbed) == 10.0
    assert stats.steady_median(quiet * 1.4) == pytest.approx(14.0)   # ...a slower program shows
    assert stats.steady_median([3.0, 1.0, 2.0]) == 2.0               # too few to block


def test_steady_tail_blocks_only_as_far_as_ten_samples_stay_beyond():
    rng = np.random.default_rng(0)
    for n, pct, blocks in ((1200, 95.0, 6), (672, 95.0, 3), (360, 95.0, 1),
                           (168, 90.0, 1), (24, 50.0, 1), (9, 50.0, 1)):
        got_pct, value, got_blocks = stats.steady_tail(rng.uniform(1, 2, n))
        assert (got_pct, got_blocks) == (pct, blocks), n
        assert 1.0 <= value <= 2.0


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([10, 10, 10, 10]) == 0.0
    assert stats.spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# -- spans -------------------------------------------------------------------------
def test_span_self_time_subtracts_what_children_cover():
    def span(span_id, parent_id, start, end):
        return {"name": f"s{span_id}", "trace_id": 1, "span_id": span_id,
                "parent_id": parent_id, "start": start, "end": end, "workload": "t"}

    recorded = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 2.0, 5.0),     # overlaps span 2: 1..5 is covered once
        span(4, 1, 7.0, 12.0),    # runs past its parent: clipped to 7..10
        span(5, 3, 2.5, 3.5),
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[5] == pytest.approx(1.0)


def test_recorder_nests_spans_and_writes_one_json_object_per_line(tmp_path):
    recorder = spans.SpanRecorder("unit")
    with recorder.span("outer") as outer:
        with recorder.span("inner", outer):
            pass
    inner, outer = recorder.spans
    assert inner["parent_id"] == outer["span_id"] and inner["trace_id"] == outer["trace_id"]
    assert outer["parent_id"] is None and outer["start"] <= inner["start"] <= inner["end"]
    path = tmp_path / "results" / "trace_unit.jsonl"
    assert recorder.write_jsonl(path) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [set(r) for r in rows] == [{"name", "trace_id", "span_id", "parent_id",
                                       "start", "end", "workload"}] * 2


# -- generator validity guard ---------------------------------------------------------
def test_a_window_sent_late_is_marked_invalid():
    n = 500
    due = np.arange(n) / 100.0                 # 5 s at 100 rps, five 1 s windows
    late = np.full(n, 0.3)
    late[200:210] = 40.0                       # the generator stalled in window 2
    phase = workloads.PhaseResult(duration=5.0, patches=np.zeros((n, 1)),
                                  due=due, late_ms=late, latency_ms=np.ones(n),
                                  responses=[None] * n)
    assert workloads.window_validity(phase, 5) == [True, True, False, True, True]


# -- BENCHMARK.json ----------------------------------------------------------------------
def test_benchmark_json_follows_the_contract(catalogue):
    assert set(catalogue) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert catalogue["paths"] == ["perf"]
    assert catalogue["command"][-1] == "perf/run.py"
    assert isinstance(catalogue["run_seconds"], int) and 1 <= catalogue["run_seconds"] <= 60
    assert [w["name"] for w in catalogue["workloads"]] == list(workloads.MEASURE)
    names = []
    for workload in catalogue["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in catalogue["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in catalogue["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in catalogue["end_to_end"] + catalogue["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in catalogue["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in catalogue["end_to_end"])


def test_untraced_pass_emits_exactly_the_end_to_end_metrics(catalogue, tiny_runs):
    declared = {m["name"] for m in catalogue["end_to_end"]}
    for name, measured in tiny_runs.items():
        assert set(measured.metrics) == declared, name
        assert all(np.isfinite(v) and v != 0 for v in measured.metrics.values()), name


def test_traced_pass_emits_exactly_the_per_layer_metrics(catalogue, tmp_path, monkeypatch):
    monkeypatch.setattr(perf_run, "RESULTS_DIR", tmp_path)
    measured = perf_run.run_traced("store_mixed", seed=5, seconds=TINY_SECONDS, scale="tiny")
    assert set(measured.metrics) == {m["name"] for m in catalogue["per_layer"]}
    assert all(np.isfinite(v) for v in measured.metrics.values())
    assert measured.failed == 0
    rows = [json.loads(line) for line in (tmp_path / "trace_store_mixed.jsonl").open()]
    assert {"ladder", "d4.client.call", "update", "update.fine_tune"} <= {r["name"] for r in rows}
    assert all(r["workload"] == "store_mixed" and r["end"] >= r["start"] for r in rows)
    assert measured.metrics["trace.coverage"] == pytest.approx(1.0, abs=0.35)


# -- the workloads ---------------------------------------------------------------------------
def test_every_workload_runs_at_tiny_scale_and_passes_its_checks(tiny_runs):
    for name, measured in tiny_runs.items():
        assert measured.correct, name
        assert measured.attempted >= 1 and measured.failed == 0, name
        assert measured.metrics["ok_share"] == pytest.approx(1.0, abs=0.05), name


def test_a_corrupted_response_counts_as_a_failed_operation(monkeypatch):
    """The wire ≡ in-process check must see a wrong label, and the share of
    wrong answers must come out of ``ok_share``."""
    calls = {"n": 0}

    class Tampering(workloads.AsyncNetworkClient):
        async def call(self, *args, **kwargs):
            response = await super().call(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] % 4 == 0:
                response = {**response, "label": np.asarray(response["label"]) + 0.25}
            return response

    monkeypatch.setattr(workloads, "AsyncNetworkClient", Tampering)
    inputs = workloads.generate("wire_point", 5, "tiny", TINY_SECONDS)
    running = workloads.start(inputs)
    try:
        measured = workloads.measure_wire_point(running, inputs, TINY_SECONDS)
    finally:
        running.close()
    assert measured.failed >= measured.attempted // 5
    assert measured.failed / measured.attempted > perf_run.MAX_ERROR_SHARE
    assert measured.metrics["ok_share"] < 0.9   # a quarter wrong in every window


def test_a_malformed_lookup_answer_fails_its_check():
    inputs = workloads.generate("wire_lookup", 5, "tiny", TINY_SECONDS)
    running = workloads.start(inputs)
    try:
        with workloads.NetworkClient(*running.service.address) as client:
            good = client.call("lookup_labeled_data", inputs.fresh[0].images(16))
        assert workloads.check_lookup_response(running, good, 16)
        assert not workloads.check_lookup_response(running, {**good, "labels": good["labels"][:-1]}, 16)
        assert not workloads.check_lookup_response(
            running, {**good, "doc_ids": ["no-such-id"] * 16}, 16)
        skewed = {**good, "distribution": {"pdf": [1.0] + [0.0] * 7}}
        same = [good["doc_ids"][0]] * 16
        assert workloads.check_lookup_response(running, {**skewed, "doc_ids": same}, 16) == (
            running.dep.fairds.collection.get(same[0])["cluster_id"] == 0)
    finally:
        running.close()


# -- import hygiene ----------------------------------------------------------------------------
FORBIDDEN_MODULES = ("benchmarks", "repro.storage.registry", "repro.workflow.funcx",
                     "repro.workflow.flows",
                     "repro.nn._reference", "repro.utils.parallel", "repro.serving.telemetry")
FORBIDDEN_NAMES = {"create_from_config", "WorkerPool", "Flow", "funcx", "register_embedder",
                   "preset", "ServingTelemetry"}


def test_perf_imports_nothing_scheduled_for_deletion():
    offences = []
    for path in sorted(PERF_DIR.rglob("*.py")):
        if "tests" in path.parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules, names = [a.name for a in node.names], []
            elif isinstance(node, ast.ImportFrom):
                modules, names = [node.module or ""], [a.name for a in node.names]
            else:
                continue
            for module in modules:
                if any(module == f or module.startswith(f + ".") for f in FORBIDDEN_MODULES):
                    offences.append(f"{path.name}: imports {module}")
            offences += [f"{path.name}: imports {n}" for n in names if n in FORBIDDEN_NAMES]
    assert not offences, offences


def test_a_tiny_run_is_clean_under_deprecation_warnings_as_errors():
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(PERF_DIR / "run.py"),
         "--workload", "wire_lookup", "--seed", "2", "--seconds", str(TINY_SECONDS),
         "--scale", "tiny", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
