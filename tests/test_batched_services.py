"""Batched user-plane/system-plane operations across the lookup engine.

The acceptance contract of the batched engine: every ``*_batch`` operation
returns results identical to issuing the same calls one at a time, while the
store is scanned once per batch.  The tests construct two identically seeded
service stacks and compare the batched path against N single calls.
"""

import numpy as np
import pytest

from repro import FairDMS, FairDS, UpdatePolicy
from repro.core import FairDMSService
from repro.embedding import PCAEmbedder
from repro.models import build_braggnn
from repro.nn.trainer import TrainingConfig
from repro.utils.errors import NotFittedError, ValidationError


def _data(seed=0, n=96, side=6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, side, side)), rng.normal(size=(n, 2))


def _batches(seed=7, n_batches=3, n=18, side=6):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, side, side)) for _ in range(n_batches)]


def _fitted_fairds(seed=0, **kwargs):
    images, labels = _data()
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=seed, **kwargs)
    fairds.fit(images, labels)
    return fairds


def _store_positions(fairds, doc_ids):
    order = {doc_id: i for i, doc_id in enumerate(fairds.collection.ids())}
    return [order[d] for d in doc_ids]


# -- FairDS.lookup_batch -------------------------------------------------------
def test_lookup_batch_identical_to_single_lookups():
    batches = _batches()
    singles_ds, batch_ds = _fitted_fairds(), _fitted_fairds()
    singles = [singles_ds.lookup(b) for b in batches]
    batched = batch_ds.lookup_batch(batches)
    assert len(batched) == len(singles)
    for s, r in zip(singles, batched):
        # Document ids embed a per-instance timestamp; compare store positions.
        assert _store_positions(singles_ds, s.doc_ids) == _store_positions(batch_ds, r.doc_ids)
        np.testing.assert_array_equal(s.images, r.images)
        np.testing.assert_array_equal(s.labels, r.labels)
        np.testing.assert_array_equal(s.input_distribution.pdf, r.input_distribution.pdf)
        np.testing.assert_array_equal(s.retrieved_distribution.pdf, r.retrieved_distribution.pdf)


def test_lookup_batch_advances_sampler_state_like_singles():
    """A batch of B lookups consumes exactly B sampler draws, so interleaving
    batches and singles stays reproducible across instances."""
    batches = _batches()
    a, b = _fitted_fairds(), _fitted_fairds()
    a.lookup_batch(batches[:2])
    third_after_batch = a.lookup(batches[2])
    for batch in batches[:2]:
        b.lookup(batch)
    third_after_singles = b.lookup(batches[2])
    assert _store_positions(a, third_after_batch.doc_ids) == _store_positions(
        b, third_after_singles.doc_ids
    )


def test_lookup_batch_per_dataset_n_samples():
    fairds = _fitted_fairds()
    batches = _batches()
    results = fairds.lookup_batch(batches, n_samples=[5, None, 9])
    assert [len(r) for r in results] == [5, len(batches[1]), 9]
    uniform = fairds.lookup_batch(batches, n_samples=4)
    assert [len(r) for r in uniform] == [4, 4, 4]


def test_lookup_batch_failed_validation_leaves_sampler_state_untouched():
    """A rejected batch must not advance the lookup counter, so a corrected
    retry reproduces exactly what a fresh sequence of singles would draw."""
    batches = _batches()
    a, b = _fitted_fairds(), _fitted_fairds()
    with pytest.raises(ValidationError):
        a.lookup_batch(batches, n_samples=[4, 4, 0])
    retry = a.lookup_batch(batches, n_samples=4)
    fresh = b.lookup_batch(batches, n_samples=4)
    for s, r in zip(fresh, retry):
        np.testing.assert_array_equal(s.images, r.images)


def test_index_dtype_is_configurable():
    images, labels = _data()
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=0, index_dtype=np.float64)
    fairds.fit(images, labels)
    assert fairds._generation.index.dtype == np.float64
    default = _fitted_fairds()
    assert default._generation.index.dtype == np.float32


def test_lookup_batch_validation():
    fairds = _fitted_fairds()
    batches = _batches()
    assert fairds.lookup_batch([]) == []
    with pytest.raises(ValidationError):
        fairds.lookup_batch(batches, labels=["only-one"])
    with pytest.raises(ValidationError):
        fairds.lookup_batch(batches, n_samples=[1, 2])
    with pytest.raises(ValidationError):
        fairds.lookup_batch(batches, n_samples=0)
    unfitted = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5)
    with pytest.raises(NotFittedError):
        unfitted.lookup_batch(batches)


# -- FairDS.certainty_batch ----------------------------------------------------
def test_certainty_batch_matches_single_certainty():
    batches = _batches()
    singles_ds, batch_ds = _fitted_fairds(), _fitted_fairds()
    singles = [singles_ds.certainty(b) for b in batches]
    batched = batch_ds.certainty_batch(batches)
    np.testing.assert_allclose(batched, singles, rtol=1e-9)
    assert batch_ds.certainty_batch([]) == []
    unfitted = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5)
    with pytest.raises(NotFittedError):
        unfitted.certainty_batch(batches)


# -- embedding LRU cache -------------------------------------------------------
class _CountingEmbedder(PCAEmbedder):
    name = "counting-pca"
    memoize = True  # PCAEmbedder declares False (cheaper than a digest): these tests need the cache

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.samples_transformed = 0

    def transform(self, x):
        self.samples_transformed += np.atleast_2d(np.asarray(x)).shape[0]
        return super().transform(x)


def test_embedding_cache_skips_repeated_samples():
    images, labels = _data()
    embedder = _CountingEmbedder(embedding_dim=6)
    fairds = FairDS(embedder, n_clusters=5, seed=0)
    fairds.fit(images, labels)
    probe = _batches(n_batches=1)[0]

    embedder = fairds.embedder  # the fitted copy; the constructor's instance is the template
    first = fairds.dataset_distribution(probe)
    seen = embedder.samples_transformed
    second = fairds.dataset_distribution(probe)
    assert embedder.samples_transformed == seen  # all cache hits, embedder idle
    np.testing.assert_array_equal(first.pdf, second.pdf)
    info = fairds.embedding_cache_info()
    assert info["hits"] >= probe.shape[0]

    # Partial overlap: only the unseen rows go through the embedder.
    mixed = np.concatenate([probe[:9], _batches(seed=11, n_batches=1)[0][:4]])
    fairds.dataset_distribution(mixed)
    assert embedder.samples_transformed == seen + 4


def test_embedding_cache_cleared_on_refit():
    images, labels = _data()
    embedder = _CountingEmbedder(embedding_dim=6)
    fairds = FairDS(embedder, n_clusters=5, seed=0)
    fairds.fit(images, labels)
    probe = _batches(n_batches=1)[0]
    fairds.dataset_distribution(probe)
    fairds.refresh()  # a new generation: new embedder, empty cache of its own
    seen = fairds.embedder.samples_transformed
    fairds.dataset_distribution(probe)
    assert fairds.embedder.samples_transformed == seen + probe.shape[0]
    assert embedder.samples_transformed == 0  # the template is never fitted or called


def test_embedding_cache_handles_flat_single_sample():
    """A 1-d input is one flattened sample (Embedder.flatten semantics), not a
    batch of scalars — the cached path must agree with the uncached one."""
    images, labels = _data()
    cached_ds = FairDS(_CountingEmbedder(embedding_dim=6), n_clusters=5, seed=0)
    uncached_ds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=0, embedding_cache_size=0)
    cached_ds.fit(images, labels)
    uncached_ds.fit(images, labels)
    flat_sample = images[0].reshape(-1)
    with_cache = cached_ds.dataset_distribution(flat_sample)
    without_cache = uncached_ds.dataset_distribution(flat_sample)
    assert with_cache.n_samples == 1
    np.testing.assert_array_equal(with_cache.pdf, without_cache.pdf)
    # Second call is a pure cache hit and still agrees.
    np.testing.assert_array_equal(cached_ds.dataset_distribution(flat_sample).pdf, with_cache.pdf)
    assert cached_ds.embedding_cache_info()["hits"] == 1
    assert uncached_ds.embedding_cache_info()["misses"] == 0  # PCA: bypassed, not missed


def test_embedding_cache_can_be_disabled():
    images, labels = _data()
    embedder = _CountingEmbedder(embedding_dim=6)
    fairds = FairDS(embedder, n_clusters=5, seed=0, embedding_cache_size=0)
    fairds.fit(images, labels)
    embedder = fairds.embedder
    probe = _batches(n_batches=1)[0]
    fairds.dataset_distribution(probe)
    seen = embedder.samples_transformed
    fairds.dataset_distribution(probe)
    assert embedder.samples_transformed == seen + probe.shape[0]


# -- FairDMS / FairDMSService --------------------------------------------------
def _service_stack(seed=0):
    images, labels = _data()
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=2, seed=seed),
        training_config=TrainingConfig(epochs=2, batch_size=16, lr=3e-3, seed=seed),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=1.0),
        seed=seed,
    )
    dms.bootstrap(images, labels, train_initial_model=False)
    return dms


def test_fairdms_pseudo_label_batch_matches_single_lookups():
    batches = _batches()
    dms_batch, dms_single = _service_stack(), _service_stack()
    batched = dms_batch.pseudo_label_batch(batches, label="storm")
    singles = [dms_single.fairds.lookup(b, label="storm") for b in batches]
    for s, r in zip(singles, batched):
        np.testing.assert_array_equal(s.images, r.images)
        np.testing.assert_array_equal(s.labels, r.labels)
        assert r.input_distribution.label == s.input_distribution.label == "storm"


def test_service_batched_plane_functions_registered_and_identical():
    batches = _batches()
    batch_service = FairDMSService(_service_stack())
    single_service = FairDMSService(_service_stack())
    names = batch_service.registered_functions()
    assert {"lookup_labeled_data_batch", "query_distribution_batch", "certainty_batch"} <= set(names)

    batched = batch_service.lookup_labeled_data_batch(batches, n_samples=10)
    singles = [single_service.lookup_labeled_data(b, n_samples=10) for b in batches]
    assert len(batched) == len(singles)
    for s, r in zip(singles, batched):
        np.testing.assert_array_equal(s["images"], r["images"])
        np.testing.assert_array_equal(s["labels"], r["labels"])
        assert s["distribution"]["pdf"] == r["distribution"]["pdf"]

    dists = batch_service.query_distribution_batch(batches, label="probe")
    assert [d["pdf"] for d in dists] == [
        single_service.query_distribution(b)["pdf"] for b in batches
    ]
    certs = batch_service.certainty_batch(batches)
    np.testing.assert_allclose(
        certs, [single_service.dms.fairds.certainty(b) for b in batches], rtol=1e-9
    )

    summary = batch_service.activity_summary()
    assert summary["user:lookup_labeled_data_batch"] == 1
    assert summary["user:query_distribution_batch"] == 1
    assert summary["system:certainty_batch"] == 1


def test_trigger_observe_many_matches_sequential_observes():
    from repro.monitoring.triggers import CertaintyTrigger

    values = [95.0, 70.0, 60.0, 85.0, 50.0, 40.0]
    batched_trigger = CertaintyTrigger(80.0, cooldown=1)
    sequential_trigger = CertaintyTrigger(80.0, cooldown=1)
    batched = batched_trigger.observe_many(values)
    sequential = [sequential_trigger.observe(v) for v in values]
    assert batched == sequential
    assert batched_trigger.fired_at == sequential_trigger.fired_at
    assert batched_trigger.history == values
