"""Tests for the fairDMS core: distributions, fairDS, the Zoo, fairMS, fairDMS."""

import numpy as np
import pytest

from repro.core.distribution import DatasetDistribution
from repro.core.fairds import FairDS
from repro.core.fairdms import FairDMS, UpdatePolicy
from repro.core.fairms import FairMS
from repro.core.model_zoo import ModelZoo
from repro.datasets.bragg import generate_bragg_scan
from repro.datasets.drift import ExperimentCondition
from repro.embedding.pca_embedder import PCAEmbedder
from repro.models.braggnn import build_braggnn
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.trainer import Trainer, TrainingConfig
from repro.storage.documentdb import DocumentDB, NetworkModel
from repro.utils.errors import ConfigurationError, NotFittedError, StorageError, ValidationError
from repro.workflow.transfer import TransferService


# ---------------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------------
def _scan(phase: int, n=80, seed=0):
    """Bragg scan from one of two clearly different experimental phases."""
    cond = (
        ExperimentCondition(0, peak_width=1.2, center_spread=1.0)
        if phase == 0
        else ExperimentCondition(1, peak_width=3.4, center_spread=3.5, noise_level=0.05)
    )
    return generate_bragg_scan(cond, n_peaks=n, seed=seed)


def _fitted_fairds(n=120, n_clusters=6, seed=0):
    scan0 = _scan(0, n=n // 2, seed=seed)
    scan1 = _scan(1, n=n // 2, seed=seed + 1)
    images = np.concatenate([scan0.images, scan1.images])
    labels = np.concatenate([scan0.normalized_centers, scan1.normalized_centers])
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=n_clusters, seed=seed)
    fairds.fit(images, labels, metadata=[{"phase": int(i >= n // 2)} for i in range(n)])
    return fairds, images, labels


# ---------------------------------------------------------------------------------
# DatasetDistribution
# ---------------------------------------------------------------------------------
def test_distribution_from_cluster_ids():
    dist = DatasetDistribution.from_cluster_ids([0, 0, 1, 2], n_clusters=4, label="d")
    np.testing.assert_allclose(dist.pdf, [0.5, 0.25, 0.25, 0.0])
    assert dist.n_samples == 4
    assert dist.n_clusters == 4
    assert dist.label == "d"


def test_distribution_distance_zero_and_symmetry():
    a = DatasetDistribution.from_cluster_ids([0, 1, 1], 3)
    b = DatasetDistribution.from_cluster_ids([1, 1, 0], 3)
    c = DatasetDistribution.from_cluster_ids([2, 2, 2], 3)
    assert a.distance(b) == pytest.approx(0.0, abs=1e-9)
    assert a.distance(c) == pytest.approx(c.distance(a))
    assert a.distance(c) > 0.5


def test_distribution_dict_roundtrip():
    dist = DatasetDistribution.from_cluster_ids([0, 1, 2, 2], 3, label="x", scan=7)
    again = DatasetDistribution.from_dict(dist.as_dict())
    np.testing.assert_allclose(again.pdf, dist.pdf)
    assert again.label == "x"
    assert again.metadata["scan"] == 7


def test_distribution_validation():
    with pytest.raises(ValidationError):
        DatasetDistribution.from_cluster_ids([], 3)
    with pytest.raises(ValidationError):
        DatasetDistribution.from_cluster_ids([5], 3)
    a = DatasetDistribution.from_cluster_ids([0], 2)
    b = DatasetDistribution.from_cluster_ids([0], 3)
    with pytest.raises(ValidationError):
        a.distance(b)


# ---------------------------------------------------------------------------------
# FairDS
# ---------------------------------------------------------------------------------
def test_fairds_fit_populates_store_and_clusters():
    fairds, images, labels = _fitted_fairds()
    assert fairds.is_fitted
    assert fairds.n_clusters == 6
    assert fairds.store_size() == images.shape[0]
    # Documents carry cluster id + label; the embedding lives in the index only.
    doc = fairds.collection.find_one()
    assert "cluster_id" in doc and "label" in doc and "embedding" not in doc


def test_fairds_auto_cluster_selection():
    scan0 = _scan(0, n=40, seed=0)
    scan1 = _scan(1, n=40, seed=1)
    images = np.concatenate([scan0.images, scan1.images])
    labels = np.concatenate([scan0.normalized_centers, scan1.normalized_centers])
    fairds = FairDS(PCAEmbedder(embedding_dim=4), n_clusters="auto", max_auto_clusters=8, seed=0)
    fairds.fit(images, labels)
    assert 2 <= fairds.n_clusters <= 8


def test_fairds_dataset_distribution_separates_phases():
    fairds, _, _ = _fitted_fairds()
    new0 = _scan(0, n=40, seed=10).images
    new1 = _scan(1, n=40, seed=11).images
    d0 = fairds.dataset_distribution(new0, label="phase0")
    d1 = fairds.dataset_distribution(new1, label="phase1")
    # Same-phase datasets are much closer than cross-phase datasets.
    d0b = fairds.dataset_distribution(_scan(0, n=40, seed=12).images)
    assert d0.distance(d0b) < d0.distance(d1)


def test_fairds_lookup_returns_labeled_data_matching_distribution():
    fairds, _, _ = _fitted_fairds()
    new = _scan(0, n=50, seed=20).images
    result = fairds.lookup(new, label="test")
    assert len(result) == 50
    assert result.images.shape[1:] == new.shape[1:]
    assert result.labels.shape == (50, 2)
    assert len(result.doc_ids) == 50
    # Retrieved distribution should resemble the input distribution.
    assert result.input_distribution.distance(result.retrieved_distribution) < 0.2


def test_fairds_lookup_respects_n_samples_override():
    fairds, _, _ = _fitted_fairds()
    result = fairds.lookup(_scan(0, n=30, seed=21).images, n_samples=12)
    assert len(result) == 12


def test_fairds_nearest_labeled_threshold_behaviour():
    fairds, images, labels = _fitted_fairds()
    # Samples drawn from the same generator should mostly be within a generous
    # threshold; an enormous threshold labels everything, a tiny one nothing.
    new = _scan(0, n=20, seed=30).images
    generous = fairds.nearest_labeled(new, threshold=1e6)
    assert all(lbl is not None for lbl, _ in generous)
    tiny = fairds.nearest_labeled(new, threshold=1e-9)
    assert all(lbl is None for lbl, _ in tiny)
    distances = [d for _, d in generous]
    assert all(d >= 0 for d in distances)


def test_fairds_nearest_labeled_reads_labels_from_the_label_column():
    fairds, _, _ = _fitted_fairds()
    charged = []

    class Metered(NetworkModel):
        def charge(self, n_bytes):
            charged.append(n_bytes)

    fairds.db.network = Metered(latency_s=1e-9)
    new = _scan(0, n=20, seed=30).images
    everything = fairds.nearest_labeled(new)
    # A threshold at the median distance gates about half of the hits out.
    threshold = float(np.median([d for _, d in everything]))
    del charged[:]
    gated = fairds.nearest_labeled(new, threshold=threshold)
    within = sum(dist < threshold for _, dist in gated)
    assert 0 < within < len(new)
    assert charged == [within * 2 * 8]  # one store operation: the float64 label pairs it read
    stored = [doc["label"] for doc in fairds.collection.find()]
    for (label, dist), (full_label, full_dist) in zip(gated, everything):
        assert dist == full_dist
        if dist < threshold:
            assert label.dtype == np.float64 and label.tolist() in stored
            np.testing.assert_array_equal(label, full_label)
            label[:] = np.nan  # the caller's copy, not the column
        else:
            assert label is None
    again = fairds.nearest_labeled(new, threshold=threshold)
    for (label, _), (full_label, _) in zip(again, everything):
        if label is not None:
            np.testing.assert_array_equal(label, full_label)


def test_fairds_ingest_grows_store():
    fairds, _, _ = _fitted_fairds(n=80)
    before = fairds.store_size()
    scan = _scan(0, n=20, seed=40)
    ids = fairds.ingest(scan.images, scan.normalized_centers)
    assert len(ids) == 20
    assert fairds.store_size() == before + 20


def test_fairds_certainty_drops_for_drifted_data_and_recovers_after_refresh():
    """The Fig. 16 mechanism."""
    scan0 = _scan(0, n=80, seed=0)
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=0)
    fairds.fit(scan0.images, scan0.normalized_centers)
    drifted = _scan(1, n=60, seed=3)
    before = fairds.certainty(drifted.images)
    # Ingest the drifted (now labeled) data and refresh the system plane.
    fairds.ingest(drifted.images, drifted.normalized_centers)
    fairds.refresh()
    after = fairds.certainty(_scan(1, n=60, seed=4).images)
    assert after >= before
    assert fairds.store_size() == 140  # refresh must not lose data


def test_fairds_errors_before_fit_and_validation():
    fairds = FairDS(PCAEmbedder(embedding_dim=4), n_clusters=3)
    imgs = _scan(0, n=10).images
    with pytest.raises(NotFittedError):
        fairds.dataset_distribution(imgs)
    with pytest.raises(NotFittedError):
        fairds.lookup(imgs)
    with pytest.raises(NotFittedError):
        fairds.ingest(imgs, np.zeros((10, 2)))
    with pytest.raises(NotFittedError):
        fairds.certainty(imgs)
    with pytest.raises(NotFittedError):
        fairds.refresh()
    with pytest.raises(NotFittedError):
        fairds.nearest_labeled(imgs, threshold=1.0)
    with pytest.raises(ConfigurationError):
        FairDS(PCAEmbedder(embedding_dim=4), n_clusters=0)
    with pytest.raises(ConfigurationError):
        FairDS(PCAEmbedder(embedding_dim=4), n_clusters="sometimes")
    with pytest.raises(ValidationError):
        fairds.fit(imgs, np.zeros((4, 2)))  # length mismatch


def test_fairds_lookup_empty_n_samples_validation():
    fairds, _, _ = _fitted_fairds(n=60)
    with pytest.raises(ValidationError):
        fairds.lookup(_scan(0, n=10).images, n_samples=0)
    with pytest.raises(ValidationError):
        fairds.nearest_labeled(_scan(0, n=5).images, threshold=0.0)


# ---------------------------------------------------------------------------------
# ModelZoo + FairMS
# ---------------------------------------------------------------------------------
def _tiny_model(seed=0, name="tiny"):
    return Sequential([Dense(4, 2, seed=seed, name=f"{name}_fc")], name=name)


def _dist(pdf):
    return DatasetDistribution(pdf=np.asarray(pdf, dtype=float), n_samples=100)


def test_model_zoo_add_load_roundtrip(rng):
    zoo = ModelZoo()
    model = _tiny_model()
    record = zoo.add(model, _dist([0.5, 0.5]), name="m0", metrics={"val": 0.1}, scan=3)
    assert len(zoo) == 1
    loaded = zoo.load_model(record.model_id)
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(model.forward(x), loaded.forward(x))
    rec2 = zoo.record(record.model_id)
    assert rec2.name == "m0"
    assert rec2.metrics["val"] == 0.1
    assert rec2.metadata["scan"] == 3
    assert zoo.model_bytes(record.model_id) > 0
    assert zoo.delete(record.model_id)
    assert len(zoo) == 0


def test_model_zoo_missing_model_raises():
    zoo = ModelZoo()
    with pytest.raises(StorageError):
        zoo.load_model("nope")


def test_fairms_ranking_orders_by_jsd():
    zoo = ModelZoo()
    zoo.add(_tiny_model(0, "a"), _dist([0.9, 0.1, 0.0]), name="a")
    zoo.add(_tiny_model(1, "b"), _dist([0.1, 0.8, 0.1]), name="b")
    zoo.add(_tiny_model(2, "c"), _dist([0.0, 0.1, 0.9]), name="c")
    fairms = FairMS(zoo, distance_threshold=0.9)
    query = _dist([0.85, 0.15, 0.0])
    ranking = fairms.rank(query)
    assert [r.record.name for r in ranking][0] == "a"
    assert ranking[0].distance <= ranking[1].distance <= ranking[2].distance
    assert [r.rank for r in ranking] == [0, 1, 2]
    best = fairms.recommend(query)
    assert best.record.name == "a"
    bmw = fairms.recommend_best_median_worst(query)
    assert len(bmw) == 3
    assert bmw[0].distance <= bmw[1].distance <= bmw[2].distance


def test_fairms_rank_scores_each_record_once_and_keeps_zoo_order_on_ties(monkeypatch):
    zoo = ModelZoo()
    for i, name in enumerate(["first", "far", "second"]):
        zoo.add(_tiny_model(i, name), _dist([0.0, 1.0] if name == "far" else [0.5, 0.5]), name=name)
    scored = []
    real = DatasetDistribution.distance
    monkeypatch.setattr(DatasetDistribution, "distance",
                        lambda self, other: scored.append(other) or real(self, other))
    ranking = FairMS(zoo).rank(_dist([0.5, 0.5]))
    assert len(scored) == 3
    assert [r.record.name for r in ranking] == ["first", "second", "far"]
    assert [r.distance for r in ranking] == [real(_dist([0.5, 0.5]), r.record.distribution)
                                             for r in ranking]


def test_fairms_scratch_decision():
    zoo = ModelZoo()
    zoo.add(_tiny_model(), _dist([1.0, 0.0]), name="far")
    fairms = FairMS(zoo, distance_threshold=0.2)
    assert fairms.should_train_from_scratch(_dist([0.0, 1.0]))
    assert not fairms.should_train_from_scratch(_dist([0.95, 0.05]))
    empty = FairMS(ModelZoo(), distance_threshold=0.5)
    assert empty.should_train_from_scratch(_dist([0.5, 0.5]))


def test_fairms_empty_zoo_rank_raises():
    fairms = FairMS(ModelZoo())
    with pytest.raises(ValidationError):
        fairms.rank(_dist([1.0]))
    with pytest.raises(ConfigurationError):
        FairMS(ModelZoo(), distance_threshold=0.0)


def test_fairms_load_and_register(rng):
    zoo = ModelZoo()
    fairms = FairMS(zoo)
    model = _tiny_model()
    fairms.register(model, _dist([0.5, 0.5]), metrics={"val_loss": 0.2}, origin="test")
    rec = fairms.recommend(_dist([0.5, 0.5]))
    loaded = fairms.load(rec)
    x = rng.normal(size=(2, 4))
    np.testing.assert_allclose(model.forward(x), loaded.forward(x))


# ---------------------------------------------------------------------------------
# FairDMS end-to-end
# ---------------------------------------------------------------------------------
def _make_fairdms(seed=0, epochs=8):
    db = DocumentDB()
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, db=db, seed=seed)
    config = TrainingConfig(epochs=epochs, batch_size=32, lr=3e-3, seed=seed)
    return FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=seed),
        training_config=config,
        transfer=TransferService(),
        policy=UpdatePolicy(distance_threshold=0.6, certainty_threshold=30.0),
        seed=seed,
    )


def test_fairdms_bootstrap_and_fine_tune_update():
    dms = _make_fairdms()
    hist_scan = _scan(0, n=100, seed=0)
    record = dms.bootstrap(hist_scan.images, hist_scan.normalized_centers)
    assert record is not None
    assert len(dms.fairms.zoo) == 1

    new = _scan(0, n=60, seed=5)
    report = dms.update_model(new.images, label="scan-22")
    assert report.strategy == "fine-tune"
    assert report.recommendation is not None
    assert report.zoo_record.model_id != "<unregistered>"
    assert len(dms.fairms.zoo) == 2
    assert report.label_time > 0
    assert report.train_time > 0
    assert report.end_to_end_time >= report.label_time + report.train_time
    assert "transfer_data" in report.timings and "transfer_model" in report.timings
    # Pseudo-labeled training data come from the store with real labels.
    assert report.lookup.labels.shape[1] == 2
    # The updated model predicts peak centres for the new data reasonably well.
    err = np.mean(np.abs(report.model.predict(new.images) - new.normalized_centers))
    assert err < 0.25


def test_fairdms_scratch_when_zoo_empty():
    dms = _make_fairdms()
    hist_scan = _scan(0, n=80, seed=0)
    dms.bootstrap(hist_scan.images, hist_scan.normalized_centers, train_initial_model=False)
    assert len(dms.fairms.zoo) == 0
    report = dms.update_model(_scan(0, n=40, seed=9).images)
    assert report.strategy == "scratch"
    assert report.recommendation is None
    assert len(dms.fairms.zoo) == 1


def test_fairdms_scratch_when_distribution_too_far():
    db = DocumentDB()
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, db=db, seed=0)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=0),
        training_config=TrainingConfig(epochs=4, batch_size=32, lr=3e-3, seed=0),
        policy=UpdatePolicy(distance_threshold=0.05, certainty_threshold=1.0),
    )
    scan0 = _scan(0, n=80, seed=0)
    dms.bootstrap(scan0.images, scan0.normalized_centers)
    # Phase-1 data is far from every Zoo model under a very strict threshold.
    report = dms.update_model(_scan(1, n=40, seed=2).images)
    assert report.strategy == "scratch"


def test_fairdms_certainty_trigger_refreshes_system_plane():
    dms = _make_fairdms()
    scan0 = _scan(0, n=80, seed=0)
    dms.bootstrap(scan0.images, scan0.normalized_centers)
    # Force an aggressive trigger so any drift fires it.
    dms.policy = UpdatePolicy(distance_threshold=0.6, certainty_threshold=100.0)
    dms.certainty_trigger = type(dms.certainty_trigger)(100.0)
    report = dms.update_model(_scan(1, n=40, seed=7).images)
    assert report.triggered_refresh
    assert "system_refresh" in report.timings


def test_fairdms_update_requires_enough_samples():
    dms = _make_fairdms()
    scan0 = _scan(0, n=60, seed=0)
    dms.bootstrap(scan0.images, scan0.normalized_centers)
    with pytest.raises(ValidationError):
        dms.update_model(scan0.images[:2])


def test_update_policy_validation():
    with pytest.raises(ConfigurationError):
        UpdatePolicy(distance_threshold=0.0)
    with pytest.raises(ConfigurationError):
        UpdatePolicy(certainty_threshold=0.0)
    with pytest.raises(ConfigurationError):
        UpdatePolicy(fine_tune_lr_scale=0.0)
    with pytest.raises(ConfigurationError):
        UpdatePolicy(freeze_layers=-1)
    with pytest.raises(ConfigurationError):
        UpdatePolicy(validation_fraction=1.0)


def test_fairdms_fine_tune_converges_in_fewer_epochs_than_scratch():
    """The paper's headline claim at unit-test scale: the fairMS-recommended
    foundation model reaches the target validation loss in fewer epochs than
    training from randomly initialised parameters."""
    dms = _make_fairdms(epochs=40)
    hist = _scan(0, n=120, seed=0)
    dms.bootstrap(hist.images, hist.normalized_centers)

    new = _scan(0, n=80, seed=3)
    lookup = dms.fairds.lookup(new.images)
    x_tr, y_tr = lookup.images[16:], lookup.labels[16:]
    x_val, y_val = lookup.images[:16], lookup.labels[:16]

    target = 0.01
    config = TrainingConfig(epochs=40, batch_size=32, lr=3e-3, target_loss=target, seed=1)

    scratch_hist = Trainer(build_braggnn(width=4, seed=99)).fit((x_tr, y_tr), val=(x_val, y_val), config=config)
    rec = dms.fairms.recommend(lookup.input_distribution)
    ft_model = dms.fairms.load(rec)
    ft_hist = Trainer(ft_model).fine_tune((x_tr, y_tr), val=(x_val, y_val), config=config, lr_scale=0.5)

    e_scratch = scratch_hist.converged_epoch or (config.epochs + 1)
    e_ft = ft_hist.converged_epoch or (config.epochs + 1)
    assert e_ft <= e_scratch
