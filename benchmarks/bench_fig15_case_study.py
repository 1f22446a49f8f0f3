"""Fig. 15 — BraggNN retraining case study: fairDMS vs Retrain vs Voigt-80 vs Voigt-1440.

The paper's headline end-to-end comparison.  A deployed BraggNN has degraded
at dataset 22 of an HEDM series and must be updated before dataset 23.  Four
methods are compared on (a) labeling time, (b) training time, and (c)
end-to-end time:

* ``fairDMS``    — fairDS pseudo-labels + fine-tune the fairMS-recommended model,
* ``Retrain``    — fairDS pseudo-labels + train from scratch (isolates the
  contribution of fairDS alone),
* ``Voigt-80``   — conventional pseudo-Voigt labeling on a simulated 80-core
  workstation + train from scratch (the legacy baseline),
* ``Voigt-1440`` — conventional labeling on a simulated 1440-core cluster +
  train from scratch (best case for the conventional method).

The absolute factors differ from the paper (our "GPU" is a NumPy CPU loop, so
training is comparatively cheap and the simulated labeling workload small);
the ordering fairDMS < Retrain < Voigt-1440 < Voigt-80 and large speedups of
fairDMS over the Voigt baselines are preserved.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FairDMS, FairDS, UpdatePolicy
from repro.embedding import PCAEmbedder
from repro.labeling.parallel import VOIGT_80, VOIGT_1440, LabelingEngine
from repro.models import build_braggnn
from repro.nn.trainer import Trainer, TrainingConfig
from repro.utils.timing import Timer
from repro.workflow import TransferService

from common import bragg_experiment, print_table

TRAIN_EPOCHS = 20
#: Number of Bragg peaks in a full HEDM scan of the paper's experiment
#: (~1.87 M peaks over 27 experiments).  Our synthetic "dataset 22" carries a
#: subsample of peaks for speed, so the conventional labeling cost is
#: projected for this full-scan workload before applying the Voigt-80 /
#: Voigt-1440 core-count cost models.
FULL_SCAN_PEAKS = 70_000
#: One-core seconds MIDAS spends on one peak's pseudo-Voigt fit: 20 ms.  Both
#: Voigt baselines are projected from this one constant, so their ordering is
#: a property of the cost models, not of the machine running the figure.
#: The repository holds no source for the value: the paper's text available
#: here gives no per-peak cost and MIDAS is not run, so 20 ms is an assumed
#: order of magnitude.  The cost models order Voigt-1440 below Voigt-80 for
#: any value above 8.7 ms (70,000 fits of one-core time S: 10 + S / 1224 <
#: 2 + S / 72 once S > 612 s).  The batched NumPy fit timed below is this
#: repository's stand-in for MIDAS, and its cost is printed for reference
#: only.
MIDAS_SECONDS_PER_PEAK = 0.020


@pytest.mark.figure("fig15")
def test_fig15_end_to_end_case_study(benchmark, report_sink):
    seed = 0
    experiment = bragg_experiment(n_scans=26, change_at=20, peaks_per_scan=150, seed=seed)
    config = TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=32, lr=3e-3,
                            patience=5, min_delta=1e-5, seed=seed)

    # Bootstrap fairDMS on datasets 0-3 (the historical, already-labeled store).
    fairds = FairDS(PCAEmbedder(embedding_dim=8), n_clusters=15, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=seed),
        training_config=config,
        transfer=TransferService(),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=20.0),
        seed=seed,
    )
    hist_images, hist_labels = experiment.stacked(range(4))
    dms.bootstrap(hist_images, hist_labels)

    # Dataset 22 arrives unlabeled after the model degraded at dataset 21.
    new_scan = experiment.scan(22 % len(experiment))
    new_images = new_scan.images
    results = {}

    # -- fairDMS -------------------------------------------------------------------
    report = dms.update_model(new_images, label="dataset-22")
    results["FairDMS"] = {
        "label": report.label_time,
        "train": report.train_time,
        "total": report.end_to_end_time,
    }

    # -- Retrain: fairDS labels + scratch training -----------------------------------
    with Timer() as t_label:
        lookup = fairds.lookup(new_images, label="retrain")
    with Timer() as t_train:
        Trainer(build_braggnn(width=4, seed=seed + 1)).fit(
            (lookup.images, lookup.labels), val=(lookup.images, lookup.labels), config=config
        )
    results["Retrain"] = {
        "label": t_label.elapsed,
        "train": t_train.elapsed,
        "total": t_label.elapsed + t_train.elapsed,
    }

    # -- Voigt-80 / Voigt-1440: conventional labeling + scratch training ----------------
    label_report = LabelingEngine(sample_fraction=0.25).label(new_images[:, 0])
    print(f"pseudo-Voigt fit: {label_report.per_patch_seconds * 1e3:.3f} ms/peak measured "
          f"(batched, this machine); MIDAS_SECONDS_PER_PEAK = "
          f"{MIDAS_SECONDS_PER_PEAK * 1e3:.1f} ms/peak projects both baselines")
    for name, cost_model in (("Voigt-80", VOIGT_80), ("Voigt-1440", VOIGT_1440)):
        label_time = cost_model.wall_clock(MIDAS_SECONDS_PER_PEAK * FULL_SCAN_PEAKS)
        with Timer() as t_train:
            Trainer(build_braggnn(width=4, seed=seed + 2)).fit(
                (new_images, label_report.labels / experiment.patch_size),
                val=(new_images, label_report.labels / experiment.patch_size),
                config=config,
            )
        results[name] = {
            "label": label_time,
            "train": t_train.elapsed,
            "total": label_time + t_train.elapsed,
        }

    baseline = results["Voigt-80"]["total"]
    rows = [
        (name, vals["label"], vals["train"], vals["total"], baseline / max(vals["total"], 1e-9))
        for name, vals in results.items()
    ]
    print_table(
        "Fig. 15 — BraggNN case study: label / train / end-to-end time [s] "
        "(speedup vs Voigt-80)",
        ["method", "label_s", "train_s", "end_to_end_s", "speedup_vs_voigt80"],
        rows, sink=report_sink,
    )

    # Shape checks (the paper's ordering and the direction of every comparison):
    assert results["FairDMS"]["label"] < results["Voigt-1440"]["label"] < results["Voigt-80"]["label"]
    assert results["FairDMS"]["train"] <= results["Retrain"]["train"]
    assert results["FairDMS"]["total"] < results["Retrain"]["total"]
    assert results["FairDMS"]["total"] < results["Voigt-1440"]["total"] < results["Voigt-80"]["total"]

    # Benchmark target: the complete fairDMS update for a new unlabeled dataset.
    benchmark.pedantic(lambda: dms.update_model(new_images, label="bench", register=False),
                       rounds=1, iterations=1)
