"""Tests for the user/system plane service and embedder hyper-parameter tuning."""

import threading
import time

import numpy as np
import pytest

from repro.core import FairDMS, FairDMSService, FairDS, UpdatePolicy
from repro.core.planes import ACTIVITY_LOG_SIZE
from repro.datasets.bragg import generate_bragg_scan
from repro.datasets.drift import ExperimentCondition
from repro.embedding import PCAEmbedder, grid_search_embedder
from repro.embedding.tuning import TuningReport, clustering_quality_score
from repro.models.braggnn import build_braggnn
from repro.nn.trainer import TrainingConfig
from repro.serving import BatchingPolicy
from repro.utils.errors import ConfigurationError, ValidationError


def _scan(phase: int, n=60, seed=0):
    cond = (
        ExperimentCondition(0, peak_width=1.2, center_spread=1.0)
        if phase == 0
        else ExperimentCondition(1, peak_width=3.4, center_spread=3.5, noise_level=0.05)
    )
    return generate_bragg_scan(cond, n_peaks=n, seed=seed)


def _service(seed=0):
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=seed),
        training_config=TrainingConfig(epochs=6, batch_size=32, lr=3e-3, seed=seed),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=20.0),
    )
    scan = _scan(0, n=80, seed=seed)
    dms.bootstrap(scan.images, scan.normalized_centers)
    return FairDMSService(dms)


# -- FairDMSService ----------------------------------------------------------------
def test_service_registers_both_planes():
    service = _service()
    names = service.registered_functions()
    assert "update_model" in names and "lookup_labeled_data" in names
    assert "refresh_representations" in names and "ingest_labeled_data" in names


def test_service_query_distribution_and_lookup():
    service = _service()
    new = _scan(0, n=20, seed=5)
    dist = service.query_distribution(new.images, label="q")
    assert pytest.approx(sum(dist["pdf"]), abs=1e-9) == 1.0
    lookup = service.lookup_labeled_data(new.images, n_samples=10)
    assert lookup["images"].shape[0] == 10
    assert lookup["labels"].shape == (10, 2)
    summary = service.activity_summary()
    assert summary["user:query_distribution"] == 1
    assert summary["user:lookup_labeled_data"] == 1


def test_service_request_model_update_runs_flow():
    service = _service()
    new = _scan(0, n=40, seed=7)
    report = service.request_model_update(new.images, label="scan-x")
    assert report.strategy in ("fine-tune", "scratch")
    assert service.activity_summary()["user:update_model"] == 1


def test_service_system_plane_ingest_and_refresh():
    service = _service()
    before = service.dms.fairds.store_size()
    new = _scan(1, n=20, seed=8)
    added = service.ingest_labeled_data(new.images, new.normalized_centers)
    assert added == 20
    assert service.dms.fairds.store_size() == before + 20
    size = service.refresh_representations()
    assert size == before + 20
    summary = service.activity_summary()
    assert summary["system:ingest_labeled_data"] == 1
    assert summary["system:refresh_representations"] == 1


def test_service_records_failed_invocations():
    service = _service()
    with pytest.raises(Exception):
        # Too few samples for an update -> ValidationError inside the plane fn.
        service.request_model_update(_scan(0, n=2, seed=9).images)
    assert any(not a.succeeded for a in service.activity)


def test_service_auto_system_plane_records_triggered_refresh():
    service = _service()
    # Force the trigger to fire on any certainty value.
    service.dms.certainty_trigger = type(service.dms.certainty_trigger)(100.0)
    new = _scan(1, n=40, seed=11)
    report = service.request_model_update(new.images, label="drifted")
    assert report.triggered_refresh
    assert service.activity_summary().get("system:refresh_representations", 0) >= 1


def test_served_service_runs_as_many_handlers_as_the_runtime_has_workers():
    """Plane functions run on the serving worker that took the batch.  At the
    parent every call was shipped to a private 2-thread pool and waited on,
    so at most two handlers ran at once whatever ``num_workers`` said."""
    service = _service()
    lock = threading.Lock()
    running = peak = 0

    def slow_certainty(batches):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        time.sleep(0.05)
        with lock:
            running -= 1
        return [100.0] * len(batches)

    service.dms.fairds.certainty_batch = slow_certainty
    images = _scan(0, n=4, seed=3).images
    with service.serving_runtime(BatchingPolicy(max_batch_size=1), num_workers=6) as runtime:
        futures = [runtime.submit("certainty", images) for _ in range(24)]
        assert [f.result(timeout=30) for f in futures] == [100.0] * 24
    assert peak >= 3
    assert service.activity_summary(include_serving=False)["system:certainty_batch"] == 24


def test_activity_log_is_bounded_and_its_summary_stays_exact():
    service = _service()
    service.dms.fairds.certainty_batch = lambda batches: [0.0] * len(batches)
    for _ in range(10_000):
        service.certainty_batch([])
    service.dms.fairds.ingest = lambda images, labels: 1 / 0
    with pytest.raises(ZeroDivisionError):
        service.ingest_labeled_data(None, None)
    assert len(service.activity) == ACTIVITY_LOG_SIZE
    assert not service.activity[-1].succeeded
    summary = service.activity_summary(include_serving=False)
    assert summary["system:certainty_batch"] == 10_000
    assert summary["system:ingest_labeled_data"] == 1  # failures are counted too


# -- tuning ------------------------------------------------------------------------------
def _two_phase_images(n_per=50, seed=0):
    a = _scan(0, n=n_per, seed=seed).images
    b = _scan(1, n=n_per, seed=seed + 1).images
    return np.concatenate([a, b])


def test_clustering_quality_score_prefers_structured_embedding():
    images = _two_phase_images()
    good = PCAEmbedder(embedding_dim=6).fit(images)
    # An "embedder" that returns pure noise should score worse.
    class NoiseEmbedder(PCAEmbedder):
        def transform(self, x):
            rng = np.random.default_rng(0)
            return rng.normal(size=(np.asarray(x).shape[0], self.embedding_dim))

    bad = NoiseEmbedder(embedding_dim=6).fit(images)
    assert clustering_quality_score(good, images, n_clusters=4) > clustering_quality_score(
        bad, images, n_clusters=4
    )


def test_clustering_quality_score_validation():
    images = _two_phase_images(10)
    emb = PCAEmbedder(embedding_dim=4).fit(images)
    with pytest.raises(ConfigurationError):
        clustering_quality_score(emb, images, n_clusters=1)
    with pytest.raises(ValidationError):
        clustering_quality_score(emb, images[:3], n_clusters=4)


def test_grid_search_embedder_ranks_candidates():
    images = _two_phase_images(40)
    report = grid_search_embedder(
        "pca",
        images,
        param_grid={"embedding_dim": [2, 6], "whiten": [False, True]},
        n_clusters=4,
        seed=0,
    )
    assert isinstance(report, TuningReport)
    assert len(report.results) == 4
    scores = [r.score for r in report.results]
    assert scores == sorted(scores, reverse=True)
    assert set(report.best.params) == {"embedding_dim", "whiten"}
    # The best embedder is fitted and usable immediately.
    z = report.best.embedder.transform(images)
    assert z.shape[0] == images.shape[0]
    assert len(report.as_rows()) == 4


def test_grid_search_embedder_validation():
    images = _two_phase_images(20)
    with pytest.raises(ConfigurationError):
        grid_search_embedder("pca", images, param_grid={})
    with pytest.raises(ConfigurationError):
        grid_search_embedder("pca", images, param_grid={"embedding_dim": []})
    with pytest.raises(ValidationError):
        TuningReport().best
