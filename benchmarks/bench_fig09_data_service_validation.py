"""Fig. 9 — data-service validation: conventional labels vs fairDS-retrieved labels.

Protocol from the paper (Section III-E): take a new HEDM dataset ``BR`` not in
the historical store, carve out a holdout ``BH``, and build the training set
``BO`` by, for each remaining sample, retrieving the closest historical sample
within an embedding-space threshold ``T`` (reusing its label) and falling back
to pseudo-Voigt fitting otherwise.  Train BraggNN on the conventionally
labeled set and on ``BO``; the error distributions on ``BH`` should match
(P50/P75/P95 within a few hundredths of a pixel) while the labeling time
differs by orders of magnitude.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.labeling.parallel import LabelingEngine, VOIGT_80
from repro.models import build_braggnn
from repro.nn.metrics import euclidean_pixel_error
from repro.nn.trainer import Trainer, TrainingConfig
from repro.utils.timing import Timer

from common import bragg_experiment, fitted_bragg_fairds, print_table


@pytest.mark.figure("fig9")
def test_fig09_fairds_labels_match_conventional_labels(benchmark, report_sink):
    seed = 0
    experiment = bragg_experiment(n_scans=10, change_at=8, peaks_per_scan=150, seed=seed)
    fairds = fitted_bragg_fairds(experiment, scans=range(4), n_clusters=15, seed=seed)

    # BR: a new dataset from the same phase; BH: its holdout.
    br = experiment.scan(5)
    n_holdout = 50
    bh_images, bh_centers = br.images[:n_holdout], br.centers[:n_holdout]
    new_images, new_centers = br.images[n_holdout:], br.centers[n_holdout:]

    # -- conventional labeling (pseudo-Voigt on every patch) ----------------------
    conv_report = LabelingEngine(cost_model=VOIGT_80).label(new_images[:, 0])
    conv_labels = conv_report.labels / experiment.patch_size

    # -- fairDS labeling: nearest historical sample within threshold --------------
    threshold = 1e3  # generous threshold in PCA space; same-phase data is close

    def fairds_label():
        matches = fairds.nearest_labeled(new_images, threshold=threshold)
        labels = np.empty((len(matches), 2))
        n_fallback = 0
        for i, (label, _dist) in enumerate(matches):
            if label is None:
                n_fallback += 1
                from repro.labeling.peak_fitting import fit_peak_center

                labels[i] = np.array(fit_peak_center(new_images[i, 0]).center) / experiment.patch_size
            else:
                labels[i] = label
        return labels, n_fallback

    with Timer() as t_fair:
        fair_labels, n_fallback = fairds_label()

    # -- train BraggNN on both label sets and evaluate on BH -------------------------
    config = TrainingConfig(epochs=15, batch_size=32, lr=3e-3, seed=seed)
    model_conv = build_braggnn(width=4, seed=seed)
    Trainer(model_conv).fit((new_images, conv_labels), val=(new_images, conv_labels), config=config)
    model_fair = build_braggnn(width=4, seed=seed)
    Trainer(model_fair).fit((new_images, fair_labels), val=(new_images, fair_labels), config=config)

    err_conv = euclidean_pixel_error(model_conv.predict(bh_images) * experiment.patch_size, bh_centers)
    err_fair = euclidean_pixel_error(model_fair.predict(bh_images) * experiment.patch_size, bh_centers)

    rows = []
    for name, errs, label_time in (
        ("Conventional (pseudo-Voigt)", err_conv, conv_report.simulated_wall_clock),
        ("Proposed fairDS", err_fair, t_fair.elapsed),
    ):
        rows.append((
            name,
            float(np.percentile(errs, 50)),
            float(np.percentile(errs, 75)),
            float(np.percentile(errs, 95)),
            label_time,
        ))
    print_table("Fig. 9 — BraggNN error on holdout BH: conventional vs fairDS labels",
                ["method", "P50_px", "P75_px", "P95_px", "label_time_s"], rows, sink=report_sink)
    print(f"(fairDS fell back to pseudo-Voigt for {n_fallback} of {new_images.shape[0]} samples)")

    # Shape checks: both models perform comparably; fairDS labels are produced
    # orders of magnitude faster than the conventional (simulated 80-core) path.
    assert abs(np.percentile(err_conv, 50) - np.percentile(err_fair, 50)) < 0.5
    assert t_fair.elapsed < conv_report.simulated_wall_clock

    # pytest-benchmark target: the fairDS labeling operation itself.
    benchmark.pedantic(fairds_label, rounds=1, iterations=1)
