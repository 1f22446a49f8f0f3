#!/usr/bin/env python
"""HEDM scenario: detect degradation, compare fairDMS against conventional relabeling.

Reproduces, at example scale, the story of the paper's BraggNN case study
(Section III-H):

* a BraggNN model trained on the early phase of an HEDM experiment degrades
  when the sample deforms (the experiment's configuration changes),
* the degradation is detected from prediction error + MC-dropout uncertainty,
* the model is then updated two ways:
    (a) the legacy workflow — label the new scan with pseudo-Voigt fitting and
        retrain from scratch, and
    (b) the fairDMS workflow — pseudo-label from the historical store and
        fine-tune the fairMS-recommended Zoo model,
  and the end-to-end times and resulting accuracies are compared.

Run with:  python examples/hedm_bragg_experiment.py
"""

from __future__ import annotations

import numpy as np

from repro import FairDMS, FairDS, UpdatePolicy
from repro.datasets import BraggPeakDataset, make_two_phase_schedule
from repro.embedding import PCAEmbedder
from repro.labeling.parallel import VOIGT_80, LabelingEngine
from repro.models import build_braggnn
from repro.monitoring import DegradationDetector
from repro.nn.metrics import euclidean_pixel_error
from repro.nn.trainer import Trainer, TrainingConfig
from repro.utils.timing import Timer


def main() -> None:
    seed = 0
    schedule = make_two_phase_schedule(n_scans=16, change_at=8, seed=seed)
    experiment = BraggPeakDataset(schedule, peaks_per_scan=100, seed=seed)

    # --- bootstrap on the early phase -------------------------------------------------
    hist_images, hist_labels = experiment.stacked(range(4))
    fairds = FairDS(PCAEmbedder(embedding_dim=8), n_clusters=8, seed=seed)
    config = TrainingConfig(epochs=15, batch_size=32, lr=3e-3, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=seed),
        training_config=config,
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=60.0),
        seed=seed,
    )
    record = dms.bootstrap(hist_images, hist_labels)
    deployed = dms.fairms.zoo.load_model(record.model_id)
    print(f"Deployed BraggNN trained on scans 0-3 ({hist_images.shape[0]} peaks).")

    # --- monitor scans for degradation (Fig. 2 style) -----------------------------------
    detector = DegradationDetector(deployed, baseline_scans=3, error_factor=1.5,
                                   mc_samples=8, error_metric="mse")
    print("\nscan  pred.error  uncertainty  degraded")
    onset = None
    for i in range(4, 16):
        scan = experiment.scan(i)
        rec = detector.evaluate_scan(i, scan.images, scan.normalized_centers)
        print(f"{i:4d}  {rec.prediction_error:10.5f}  {rec.uncertainty:11.5f}  {rec.degraded}")
        if rec.degraded and onset is None:
            onset = i
            break
    if onset is None:
        onset = 12
    print(f"\nDegradation detected at scan {onset}; updating the model for scan {onset}.")
    new_scan = experiment.scan(onset)

    # --- legacy workflow: pseudo-Voigt labeling + train from scratch ----------------------
    with Timer() as legacy_timer:
        labeling = LabelingEngine(cost_model=VOIGT_80, sample_fraction=0.5)
        report_label = labeling.label(new_scan.images[:, 0])
        legacy_model = build_braggnn(width=4, seed=seed + 1)
        Trainer(legacy_model).fit(
            (new_scan.images, report_label.labels / 15.0),
            val=(new_scan.images, new_scan.normalized_centers),
            config=config,
        )
    legacy_total = report_label.simulated_wall_clock + legacy_timer.elapsed

    # --- fairDMS workflow -------------------------------------------------------------------
    report = dms.update_model(new_scan.images, label=f"scan-{onset}")

    # --- compare ------------------------------------------------------------------------------
    truth = new_scan.centers
    legacy_err = np.median(euclidean_pixel_error(legacy_model.predict(new_scan.images) * 15, truth))
    fair_err = np.median(euclidean_pixel_error(report.model.predict(new_scan.images) * 15, truth))

    print("\n=== model update comparison ===")
    print(f"legacy  (Voigt-80 + scratch): {legacy_total:9.1f} s simulated "
          f"(labeling {report_label.simulated_wall_clock:.1f} s), median error {legacy_err:.3f} px")
    print(f"fairDMS (reuse + fine-tune) : {report.end_to_end_time:9.3f} s "
          f"(label {report.label_time:.3f} s, train {report.train_time:.3f} s), "
          f"median error {fair_err:.3f} px")
    speedup = legacy_total / max(report.end_to_end_time, 1e-9)
    print(f"end-to-end speedup          : {speedup:.0f}x")


if __name__ == "__main__":
    main()
