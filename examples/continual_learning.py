#!/usr/bin/env python
"""The closed continual-learning loop on the synthetic drifting experiment.

This is the paper's end-to-end story as one subsystem, materialised entirely
from a spec (the ``"continual"`` preset, shipped as
``repro/api/presets/continual.json``): a serving runtime answers prediction
requests from client threads while every arriving scan is pushed through the
``ContinualLearningPipeline`` DAG —

    monitor -> pseudo_label -> train -> validate -> promote -> hot_swap

When the experiment's phase change (scan 8) collapses cluster-assignment
certainty, the trigger fires: the scan is pseudo-labeled from the historical
store, a model is fine-tuned (or trained from scratch) on those labels,
gated on validation loss, promoted into the Zoo under the ``latest`` tag,
and hot-swapped into the live runtime.  In-flight requests finish on the old
model; later ones are served by the new version — every response is stamped
with the version that produced it, and nothing is dropped.

Note what the script does **not** contain: not a single component
constructor.  The spec names every part by registry key; the
:class:`~repro.api.deployment.Deployment` facade wires them.

Run with:  python examples/continual_learning.py
"""

from __future__ import annotations

import threading
from collections import Counter

from repro import Deployment

PRESET = "continual"
N_SCANS = 14
PHASE_CHANGE_AT = 8


def main() -> None:
    from repro.datasets import BraggPeakDataset, make_two_phase_schedule

    with Deployment.from_preset(PRESET) as dep:
        seed = dep.spec.seed
        experiment = BraggPeakDataset(
            make_two_phase_schedule(n_scans=N_SCANS, change_at=PHASE_CHANGE_AT, seed=seed),
            peaks_per_scan=60, seed=seed,
        )

        # Bootstrap the data service + an initial model, promoted as v0.
        hist_x, hist_y = experiment.stacked(range(3))
        dep.fit(hist_x, hist_y)
        live = dep.snapshot()["zoo"]["promoted_version"]
        print(f"bootstrapped from the {PRESET!r} preset (digest {dep.spec.digest()[:12]}): "
              f"{hist_x.shape[0]} historical samples, serving {live}")

        # Serving traffic runs throughout: one client thread per "experiment
        # station" asking for predictions on current-phase samples.
        versions_served: Counter = Counter()
        versions_lock = threading.Lock()
        stop = threading.Event()

        def client() -> None:
            i = 0
            while not stop.is_set():
                scan = experiment.scan(min(3 + i % 10, N_SCANS - 1))
                response = runtime.call("predict", scan.images[i % len(scan)], timeout=30.0)
                with versions_lock:
                    versions_served[response.version] += 1
                i += 1

        with dep.serve() as runtime:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for t in clients:
                t.start()

            for scan_index in range(3, N_SCANS):
                report = dep.process_scan(experiment.scan(scan_index).images,
                                          run_id=f"scan-{scan_index:02d}")
                marker = "TRIGGERED" if report.triggered else "ok"
                line = f"scan {scan_index:2d}: certainty={report.signal:5.1f}%  {marker}"
                if report.swapped:
                    line += (f"  -> {report.strategy} retrain, val_loss={report.val_loss:.4f},"
                             f" promoted {report.promoted_version}, hot-swapped live")
                elif report.gate_passed is False:
                    line += (f"  -> {report.strategy} retrain rejected by validation gate"
                             f" (val_loss={report.val_loss:.4f})")
                print(line)

            stop.set()
            for t in clients:
                t.join(timeout=30.0)
            runtime.drain(timeout=30.0)

        zoo = dep.zoo
        snapshot = dep.snapshot()
        print(f"\nZoo: {len(zoo)} models; tag 'latest' -> {zoo.resolve()}")
        print(f"promotion history depth: {len(zoo.promotion_history())}")
        print(f"responses per model version: {dict(sorted(versions_served.items()))}")
        serving = snapshot["serving"]
        print(f"serving: {serving['completed']} responses, "
              f"p95 latency {serving['latency_ms']['p95_ms']:.2f} ms, "
              f"mean batch size {serving['batch_size']['mean']:.1f}")

        assert zoo.promotion_count() >= 2, "expected at least one drift-triggered promotion"
        assert snapshot["continual"]["live_version"] != "v0", \
            "expected the live model to have been hot-swapped"
        print("\ncontinual-learning loop closed: drift detected, model retrained, "
              "promoted, and served without downtime — from one spec file.")


if __name__ == "__main__":
    main()
