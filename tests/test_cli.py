"""Tests of the ``python -m repro`` CLI (repro.__main__)."""

import json

import pytest

from repro.__main__ import main
from repro.api.spec import preset


@pytest.fixture()
def specs_dir(tmp_path):
    directory = tmp_path / "specs"
    directory.mkdir()
    for name in ("minimal", "serving", "continual", "ann"):
        preset(name).save(directory / f"{name}.json")
    return directory


def test_presets_lists_all_and_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["presets", "--write", str(out_dir)]) == 0
    out = capsys.readouterr().out
    for name in ("minimal", "serving", "continual", "ann"):
        assert name in out
        written = out_dir / f"{name}.json"
        assert written.exists()
        assert json.loads(written.read_text())["name"] == name


def test_validate_accepts_good_specs_and_prints_digests(specs_dir, capsys):
    paths = [str(specs_dir / f"{n}.json") for n in ("minimal", "serving", "continual", "ann")]
    assert main(["validate", *paths]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == 4
    assert preset("serving").digest() in out


def test_validate_rejects_bad_specs_with_exit_1(specs_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"embedder": {"name": "no-such-embedder"}}))
    null_spec = tmp_path / "null.json"
    null_spec.write_text("null")
    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text(json.dumps({"continual": {"gate_factor": "2.0"},
                                    "model": {"architecture": "braggnn"}}))
    good = str(specs_dir / "minimal.json")
    assert main(["validate", good, str(bad), str(tmp_path / "missing.json"),
                 str(null_spec), str(bad_type)]) == 1
    out = capsys.readouterr().out
    assert out.count("INVALID") == 4  # every bad file reported, none crashed the loop
    assert out.count("ok ") == 1
    assert "no-such-embedder" in out
    assert "gate_factor" in out


def test_run_minimal_exercises_the_data_plane(specs_dir, capsys):
    assert main(["run", str(specs_dir / "minimal.json"), "--scans", "5", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "data plane only" in out and "lookup returned" in out


def test_run_serving_spec_updates_a_model(specs_dir, capsys):
    assert main(["run", str(specs_dir / "serving.json"), "--scans", "5", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "updating model" in out and "strategy=" in out
    assert "zoo holds 2 model(s)" in out


def test_run_continual_spec_closes_the_loop(specs_dir, capsys):
    assert main(["run", str(specs_dir / "continual.json"),
                 "--scans", "7", "--change-at", "5", "--peaks", "40", "--json"]) == 0
    out = capsys.readouterr().out
    assert "TRIGGERED" in out and "hot-swapped" in out
    snapshot = json.loads(out[out.index("{"):])
    assert snapshot["continual"]["times_fired"] >= 1
    assert snapshot["zoo"]["promoted_version"] != "v0"


def test_run_ann_spec_exercises_the_ivf_data_plane(specs_dir, capsys):
    assert main(["run", str(specs_dir / "ann.json"), "--scans", "5", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "data plane only" in out and "lookup returned" in out


def test_serve_ann_spec_serves_with_ivf_index(specs_dir, capsys):
    assert main(["serve", str(specs_dir / "ann.json"),
                 "--requests", "8", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "'predict'" not in out
    assert "served 8 requests" in out


def test_run_and_serve_report_missing_spec_without_traceback(capsys):
    assert main(["run", "no-such-spec.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no-such-spec.json: file not found")
    assert main(["serve", "no-such-spec.json"]) == 1
    assert "file not found" in capsys.readouterr().err


def test_run_rejects_bad_scan_counts(specs_dir, capsys):
    assert main(["run", str(specs_dir / "minimal.json"), "--scans", "3"]) == 1
    assert "--scans" in capsys.readouterr().err
    assert main(["run", str(specs_dir / "minimal.json"),
                 "--scans", "6", "--change-at", "2"]) == 1
    assert "--change-at" in capsys.readouterr().err


def test_serve_answers_a_burst_and_prints_telemetry(specs_dir, capsys):
    assert main(["serve", str(specs_dir / "serving.json"),
                 "--requests", "24", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "'predict'" in out
    assert "served 24 requests" in out


def test_serve_minimal_spec_serves_certainty(specs_dir, capsys):
    assert main(["serve", str(specs_dir / "minimal.json"),
                 "--requests", "8", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "'predict'" not in out
    assert "served 8 requests" in out


def test_observe_writes_parseable_metrics_and_traces(tmp_path, capsys):
    from repro.observability.exporters import parse_prometheus_text, series_names

    spec_path = preset("observed").save(tmp_path / "observed.json")
    metrics_out = tmp_path / "metrics.txt"
    traces_out = tmp_path / "traces.jsonl"
    assert main(["observe", str(spec_path), "--requests", "16", "--peaks", "40",
                 "--metrics-out", str(metrics_out),
                 "--traces-out", str(traces_out)]) == 0
    out = capsys.readouterr().out
    assert "traces sampled" in out and "served 16 requests" in out
    assert "lifetime" in out  # cumulative rejected_total surfaced next to windowed

    # The CI smoke assertion: the scrape is parseable and the core series
    # of the naming scheme are all present.
    names = series_names(parse_prometheus_text(metrics_out.read_text()))
    assert "repro_requests_total" in names
    assert "repro_batch_size_count" in names
    assert "repro_index_scans_total" in names

    spans = [json.loads(line) for line in traces_out.read_text().splitlines()]
    assert spans, "no spans exported"
    by_name = {s["name"] for s in spans}
    assert {"serving.request", "serving.admission",
            "serving.batch", "serving.completion", "index.scan"} <= by_name
    assert "serving.flush" not in by_name


def test_observe_auto_enables_instrumentation_on_unobserved_specs(tmp_path, capsys):
    spec_path = preset("ann").save(tmp_path / "ann.json")
    assert main(["observe", str(spec_path), "--requests", "8", "--peaks", "40"]) == 0
    out = capsys.readouterr().out
    assert "sample_rate=1.0" in out       # full sampling switched on
    assert "8/8 traces sampled" in out    # ...and every root really sampled
    assert "repro_requests_total" in out  # exposition printed to stdout


def test_serve_network_mode_serves_on_the_wire_and_drains_on_sigterm(tmp_path):
    """``repro serve --replicas N`` binds a TCP endpoint, answers wire
    requests, and a SIGTERM triggers a graceful drain with a final telemetry
    line and exit code 0 (the CLI satellite of the network serving plane)."""
    import os
    import re
    import signal
    import subprocess
    import sys
    import time

    import numpy as np

    from repro.net import NetworkClient

    spec_path = preset("networked").save(tmp_path / "networked.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(spec_path),
         "--peaks", "40", "--port", "0", "--replicas", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        address = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"network serving on ([\d.]+):(\d+) replicas=(\d+)", line)
            if match:
                address = (match.group(1), int(match.group(2)))
                assert int(match.group(3)) == 2
                break
        assert address is not None, "server never announced its address"

        with NetworkClient(*address, timeout_s=60.0) as client:
            assert client.ping()
            probe = np.random.RandomState(0).rand(2, 15, 15)
            certainty = client.call("certainty", probe)
            assert np.isfinite(float(np.asarray(certainty).mean()))

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "draining" in out
    drained = re.search(r"drained: served (\d+) requests across (\d+) replica",
                        out)
    assert drained is not None, out
    assert int(drained.group(1)) >= 1  # the wire call above was counted
