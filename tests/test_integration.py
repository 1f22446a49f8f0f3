"""Integration tests spanning multiple subsystems.

These exercise realistic end-to-end paths rather than single modules:
store-backed training through the DataLoader, the complete fairDMS lifecycle
over a drifting experiment, degradation-driven updates, and the interaction of
the labeling baseline with the data service.
"""

import numpy as np
import pytest

from repro.core import FairDMS, FairDS, FairMS, ModelZoo, UpdatePolicy
from repro.dataio import DataLoader, DocumentDBDataset
from repro.datasets import BraggPeakDataset, CookieBoxDataset, DriftSchedule, make_two_phase_schedule
from repro.embedding import PCAEmbedder
from repro.labeling.parallel import LabelingEngine
from repro.models import build_braggnn, build_cookienetae
from repro.monitoring import DegradationDetector
from repro.nn.metrics import euclidean_pixel_error
from repro.nn.trainer import Trainer, TrainingConfig
from repro.storage import DocumentDB, get_codec
from repro.workflow import TransferService


@pytest.fixture(scope="module")
def bragg_experiment():
    return BraggPeakDataset(make_two_phase_schedule(n_scans=16, change_at=10, seed=0),
                            peaks_per_scan=80, seed=0)


# ---------------------------------------------------------------------------------
# Store-backed training: documents -> DataLoader -> Trainer
# ---------------------------------------------------------------------------------
def test_training_directly_from_document_store(bragg_experiment):
    """Train BraggNN by streaming mini-batches out of the document database."""
    images, targets = bragg_experiment.stacked(range(2))
    db = DocumentDB(codec=get_codec("blosc"))
    coll = db.collection("bragg")
    coll.insert_many(
        [{"label": targets[i].tolist()} for i in range(images.shape[0])],
        [images[i] for i in range(images.shape[0])],
    )
    loader = DataLoader(DocumentDBDataset(coll), batch_size=32, shuffle=True,
                        num_workers=2, seed=0)
    model = build_braggnn(width=4, seed=0)
    history = Trainer(model).fit(
        loader.as_epoch_callable(), val=(images, targets),
        config=TrainingConfig(epochs=8, batch_size=32, lr=3e-3, seed=0),
    )
    assert history.val_loss[-1] < history.val_loss[0]
    # Store-backed training is as good as in-memory training at this scale.
    err = euclidean_pixel_error(model.predict(images) * 15, targets * 15)
    assert np.median(err) < 2.0


# ---------------------------------------------------------------------------------
# Full fairDMS lifecycle over a drifting experiment
# ---------------------------------------------------------------------------------
def test_fairdms_lifecycle_over_drifting_experiment(bragg_experiment):
    """Bootstrap -> several updates across the phase change -> the Zoo grows and
    every update's model stays usable on its own scan."""
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=6, seed=0)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=0),
        training_config=TrainingConfig(epochs=8, batch_size=32, lr=3e-3, seed=0),
        transfer=TransferService(),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=10.0),
        seed=0,
    )
    hist_x, hist_y = bragg_experiment.stacked(range(3))
    dms.bootstrap(hist_x, hist_y)

    update_scans = [5, 8, 12]
    strategies = []
    for scan_idx in update_scans:
        scan = bragg_experiment.scan(scan_idx)
        report = dms.update_model(scan.images, label=f"scan-{scan_idx}")
        strategies.append(report.strategy)
        err = euclidean_pixel_error(report.model.predict(scan.images) * 15, scan.centers)
        assert np.median(err) < 3.0
        # After each update the newly labeled data is also ingested so the store grows.
        dms.fairds.ingest(scan.images, scan.normalized_centers,
                          metadata=[{"scan": scan_idx}] * len(scan))

    assert len(dms.fairms.zoo) == 1 + len(update_scans)
    assert dms.fairds.store_size() == hist_x.shape[0] + sum(
        len(bragg_experiment.scan(i)) for i in update_scans
    )
    # Same-phase updates reuse Zoo models.
    assert strategies[0] == "fine-tune"


def test_degradation_detection_drives_update(bragg_experiment):
    """Wire the monitoring module to fairDMS: update only when degradation is flagged."""
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=6, seed=0)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=0),
        training_config=TrainingConfig(epochs=8, batch_size=32, lr=3e-3, seed=0),
        policy=UpdatePolicy(distance_threshold=0.9, certainty_threshold=5.0),
        seed=0,
    )
    hist_x, hist_y = bragg_experiment.stacked(range(3))
    record = dms.bootstrap(hist_x, hist_y)
    deployed = dms.fairms.zoo.load_model(record.model_id)

    detector = DegradationDetector(deployed, baseline_scans=3, error_factor=1.5,
                                   mc_samples=5, error_metric="mse")
    updates = 0
    for scan_idx in range(3, 14):
        scan = bragg_experiment.scan(scan_idx)
        rec = detector.evaluate_scan(scan_idx, scan.images, scan.normalized_centers)
        if rec.degraded:
            report = dms.update_model(scan.images, label=f"degraded-{scan_idx}")
            deployed = report.model
            detector = DegradationDetector(deployed, baseline_scans=3, error_factor=1.5,
                                           mc_samples=5, error_metric="mse")
            updates += 1
            # New labeled data becomes history for subsequent updates.
            dms.fairds.ingest(scan.images, scan.normalized_centers)
    # Exactly the phase change (at scan 10) should have caused at least one update,
    # and the pre-change scans none.
    assert updates >= 1
    final_scan = bragg_experiment.scan(13)
    err = euclidean_pixel_error(deployed.predict(final_scan.images) * 15, final_scan.centers)
    assert np.median(err) < 3.0


# ---------------------------------------------------------------------------------
# fairDS + conventional labeling interplay
# ---------------------------------------------------------------------------------
def test_pseudo_labels_agree_with_conventional_fitting(bragg_experiment):
    """Labels served by fairDS lookup should be statistically consistent with
    what the pseudo-Voigt fitter would produce on the query data itself."""
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=8, seed=0)
    hist_x, hist_y = bragg_experiment.stacked(range(3))
    fairds.fit(hist_x, hist_y)

    scan = bragg_experiment.scan(4)
    lookup = fairds.lookup(scan.images)
    conventional = LabelingEngine().label(scan.images[:, 0]).labels / 15.0

    # The retrieved labels come from *different* (historical) peaks, so they are
    # not sample-wise comparable; but their distribution over the patch must
    # match the conventional labels' distribution (same experiment phase).
    assert abs(lookup.labels.mean() - conventional.mean()) < 0.05
    assert abs(lookup.labels.std() - conventional.std()) < 0.05


# ---------------------------------------------------------------------------------
# CookieBox end-to-end (second application)
# ---------------------------------------------------------------------------------
def test_cookiebox_end_to_end_reuse():
    experiment = CookieBoxDataset(
        DriftSchedule(n_scans=8, drift_per_scan={"energy_shift": 1.5}, seed=0),
        samples_per_scan=50, n_channels=4, n_bins=16, seed=0,
    )
    hist_x, hist_y = experiment.stacked(range(4))
    fairds = FairDS(PCAEmbedder(embedding_dim=4), n_clusters=4, seed=0)
    fairds.fit(hist_x, hist_y.reshape(hist_y.shape[0], -1))

    zoo = ModelZoo()
    fairms = FairMS(zoo, distance_threshold=0.9)
    config = TrainingConfig(epochs=6, batch_size=32, lr=2e-3, seed=0)
    for group in [(0, 1), (2, 3)]:
        x, y = experiment.stacked(group)
        model = build_cookienetae(n_channels=4, n_bins=16, hidden=32, latent=8, seed=group[0])
        Trainer(model).fit((x, y), val=(x, y), config=config)
        fairms.register(model, fairds.dataset_distribution(x), scans=list(group))

    new_x, new_y = experiment.stacked([5])
    rec = fairms.recommend(fairds.dataset_distribution(new_x))
    # The later-trained Zoo model (scans 2-3) is closer to scan 5 than scans 0-1.
    assert rec.record.metadata["scans"] == [2, 3]
    model = fairms.load(rec)
    hist = Trainer(model).fine_tune((new_x, new_y), val=(new_x, new_y), config=config, lr_scale=0.5)
    assert hist.val_loss[-1] <= hist.val_loss[0]
