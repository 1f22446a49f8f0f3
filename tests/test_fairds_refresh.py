"""fairDS's system-plane refresh: what it rewrites, what it carries over.

``FairDS.refresh`` re-fits the embedder and the clustering on the stored
samples and replaces the collection.  The contract tested here:

* **the sample columns are shared** — generation N+1's table holds N's
  image, label and metadata columns themselves, so a refresh decodes,
  encodes and copies no sample, and a remote store is billed for reading
  the images once and sent nothing back;
* **everything derived is new** — embeddings, cluster ids, document ids, the
  collection view, the index, and an empty embedding cache;
* **the store bypasses the embedding cache** — a fit embeds the store once
  and leaves the LRU to the queries;
* **a refresh's trace names its stages**, and says how Lloyd was started;
* **generation N+1 is derived from N** — the clustering starts from N's
  partition, so an unchanged store refreshes to what a cold refit finds, and
  a store that grew keeps its cluster ids (the ids every Zoo record's cluster
  PDF is written in); the warm start is declined when N's partition cannot
  seed N+1's, and a ``fit`` never takes it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fairds as fairds_module
from repro import FairDS
from repro.api.registry import register_component, unregister_component
from repro.clustering.kmeans import KMeans
from repro.core.fairms import FairMS
from repro.core.model_zoo import ModelZoo
from repro.embedding import PCAEmbedder
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.observability.tracing import Tracer
from repro.storage.codecs import CompressedCodec, PickleCodec
from repro.storage.documentdb import DocumentDB, NetworkModel
from test_fairds_embed import MemoisedPCA  # PCA holds no cache: what one holds is asserted on this

SIDE = 5


def _scan(rng, n, offset=0.0):
    blobs = rng.integers(0, 3, size=n)
    images = rng.normal(size=(n, SIDE, SIDE)) + 5.0 * blobs[:, None, None] + offset
    return images, rng.normal(size=(n, 2))


def _store(n=90, db=None, seed=0, embedder=PCAEmbedder):
    """A fitted fairDS with per-sample metadata, then a drifted scan ingested
    (so a refresh has something to learn)."""
    rng = np.random.default_rng(seed)
    fairds = FairDS(embedder(embedding_dim=3), n_clusters=3, db=db, seed=seed)
    images, labels = _scan(rng, n)
    fairds.fit(images, labels, metadata=[{"scan": i // 30, "tag": f"s{i}"} for i in range(n)])
    fairds.ingest(*_scan(rng, 30, offset=-9.0), metadata=[{"scan": 9}] * 30)
    return fairds, rng


def _stored(fairds):
    """Cluster id and embedding of every stored sample, in store order.  The
    embedding is the stored payload re-embedded by the published embedder:
    bit-equal to what a fit or refresh of the whole store computed."""
    coll = fairds.collection
    ids = coll.ids()
    return (np.array([d["cluster_id"] for d in coll.get_many(ids)]),
            fairds.embedder.transform(np.stack(coll.fetch_payloads(ids))))


def _stored_centers(fairds):
    """Cluster centres as the store records them: the mean embedding per cluster id."""
    cluster_ids, embeddings = _stored(fairds)
    return np.stack([embeddings[cluster_ids == c].mean(axis=0) for c in sorted(set(cluster_ids))])


def test_refresh_shares_the_sample_columns_and_rewrites_the_rest(monkeypatch):
    fairds, rng = _store(embedder=MemoisedPCA)
    old_coll = fairds.collection
    old_docs = old_coll.find()
    old_ids = [d.id for d in old_docs]
    old_images = old_coll.fetch_payloads(old_ids)
    old_centers = _stored_centers(fairds)
    old_table = fairds._generation.catalog
    fairds.lookup(_scan(rng, 20)[0])
    assert fairds.embedding_cache_info()["size"] > 0

    codec_calls = []
    for name in ("encode", "encode_many", "decode"):
        real = getattr(PickleCodec, name)
        monkeypatch.setattr(PickleCodec, name,
                            lambda self, arg, real=real: codec_calls.append(1) or real(self, arg))
    fairds.refresh()
    table = fairds._generation.catalog
    assert codec_calls == []  # nothing decoded or encoded
    # The very same columns: nothing was copied.
    assert table.images is old_table.images and table.labels is old_table.labels
    assert table.metadata is old_table.metadata
    assert not set(table.doc_ids) & set(old_table.doc_ids)

    coll = fairds.collection
    docs = coll.find()
    ids = [d.id for d in docs]
    assert coll is not old_coll and not set(ids) & set(old_ids)
    assert fairds.store_size() == len(old_docs) == 120
    assert fairds.embedding_cache_info()["size"] == 0
    # The view encodes the same rows to the same bytes.
    assert [new["payload"] for new in docs] == [old["payload"] for old in old_docs]
    for got, want in zip(coll.fetch_payloads(ids), old_images):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for new, old in zip(docs, old_docs):
        assert new["label"] == old["label"] and new["scan"] == old["scan"]
        assert new.get("tag") == old.get("tag")
        assert new["payload_bytes"] == old["payload_bytes"] == len(new["payload"])
        assert set(new) == set(old)

    # Cluster ids come from the re-fitted models ...
    images = np.stack(old_images)
    stored_clusters = np.array([d["cluster_id"] for d in docs])
    for c in set(stored_clusters):
        # Every stored cluster id is what the re-fitted clustering predicts.
        assert fairds.dataset_distribution(images[stored_clusters == c]).pdf[c] == 1.0
    assert not np.allclose(_stored_centers(fairds), old_centers)  # the clustering was re-fitted
    assert not any("embedding" in doc for doc in docs)  # the index holds the embeddings
    # ... and so do the answers.
    for (label, distance), doc in zip(fairds.nearest_labeled(images[:8]), docs):
        np.testing.assert_array_equal(label, doc["label"])
        assert distance < 1e-4  # itself, to the float32 index's precision
    result = fairds.lookup(images[90:], n_samples=60)
    assert set(result.doc_ids) <= set(ids)
    drifted = set(stored_clusters[90:])
    assert {coll.get(doc_id)["cluster_id"] for doc_id in result.doc_ids} <= drifted


def test_refresh_is_charged_for_reading_the_images_not_for_writing_anything_back():
    charged = []

    class Metered(NetworkModel):
        def charge(self, n_bytes):
            charged.append(n_bytes)

    fairds, _ = _store(db=DocumentDB(network=Metered(latency_s=1e-9)))
    stored = fairds.collection.storage_bytes()
    charged.clear()
    fairds.refresh()
    assert charged == [120 * SIDE * SIDE * 8]  # one read of the float64 image column, no write
    del charged[:]
    assert fairds.collection.storage_bytes() == stored
    assert charged == []  # building the view moves nothing


def test_fit_embeds_the_store_without_the_embedding_cache():
    fairds, rng = _store(embedder=MemoisedPCA)
    info = fairds.embedding_cache_info()
    # Only the ingested scan went through the LRU; the 90 fitted samples did not.
    assert (info["size"], info["misses"], info["hits"]) == (30, 30, 0)
    fairds.refresh()
    info = fairds.embedding_cache_info()
    # The new generation's own cache: empty, its counters at zero.
    assert (info["size"], info["misses"], info["hits"]) == (0, 0, 0)
    images, labels = _scan(rng, 40)
    fresh = FairDS(MemoisedPCA(embedding_dim=3), n_clusters=3).fit(images, labels)
    assert fresh.embedding_cache_info()["size"] == fresh.embedding_cache_info()["misses"] == 0
    # A query that repeats a stored sample is embedded like any other.
    (label, distance), = fresh.nearest_labeled(images[:1])
    np.testing.assert_array_equal(label, labels[0])
    assert fresh.embedding_cache_info()["misses"] == 1


STAGES = ["embedder.fit", "embedder.transform", "clustering.fit", "store.write", "index.build"]


@pytest.mark.parametrize("op, stages", [("fit", STAGES), ("refresh", ["refresh.read"] + STAGES)])
def test_fit_and_refresh_traces_name_their_stages(op, stages):
    rng = np.random.default_rng(1)
    images, labels = _scan(rng, 3000)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=3)
    tracer = Tracer(sample_rate=1.0)
    if op == "refresh":
        fairds.fit(images, labels)  # untraced: no active span, no spans
    root = tracer.start_trace("system-plane")
    with tracer.activate(root):
        if op == "fit":
            fairds.fit(images, labels)
        else:
            fairds.refresh()
    tracer.end(root)
    spans = tracer.finished_spans()
    parent, = [s for s in spans if s.name == f"fairds.{op}"]
    assert parent.parent_id == root.span_id
    children = [s for s in spans if s.parent_id == parent.span_id]
    assert [s.name for s in children] == stages
    assert all(s.status == "ok" for s in spans)
    covered = sum(s.duration_s for s in children)
    assert 0.9 * parent.duration_s <= covered <= parent.duration_s


# -- generation N+1 derived from N -----------------------------------------------------
def _traced(call):
    """Run ``call`` under a trace; the attributes of the spans it finished, by name."""
    tracer = Tracer(sample_rate=1.0)
    root = tracer.start_trace("system-plane")
    with tracer.activate(root):
        call()
    tracer.end(root)
    return {span.name: dict(span.attributes) for span in tracer.finished_spans()}


class ColdOnlyKMeans(KMeans):
    """A registered clusterer whose ``fit`` has no ``init``: always the cold path."""

    def fit(self, x):
        return super().fit(x)


@pytest.fixture(scope="module")
def cold_only():
    register_component("clustering", "cold-only-kmeans", ColdOnlyKMeans)
    yield "cold-only-kmeans"
    assert unregister_component("clustering", "cold-only-kmeans")


@pytest.fixture
def one_unused():
    """A registered clusterer whose first fit leaves its last cluster unused
    (Lloyd on one centre fewer, the last put beyond every sample); every
    later fit is plain KMeans."""
    fits = []

    class FirstFitLeavesOneUnused(KMeans):
        def fit(self, x, init=None):
            fits.append(init)
            if len(fits) > 1:
                return super().fit(x, init)
            k, self.n_clusters = self.n_clusters, self.n_clusters - 1
            super().fit(x)
            self.n_clusters = k
            self.cluster_centers_ = np.vstack([self.cluster_centers_, np.full(x.shape[1], 1e9)])
            return self

    register_component("clustering", "first-fit-leaves-one-unused", FirstFitLeavesOneUnused)
    yield "first-fit-leaves-one-unused"
    assert unregister_component("clustering", "first-fit-leaves-one-unused")


def test_refresh_spans_say_how_lloyd_started():
    rng = np.random.default_rng(2)
    images, labels = _scan(rng, 120)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=3)
    spans = _traced(lambda: fairds.fit(images, labels))
    assert spans["clustering.fit"]["warm_start"] is False
    cold_iterations = spans["clustering.fit"]["lloyd_iterations"]
    assert cold_iterations >= 2 and spans["fairds.fit"]["generation"] == 1
    # A second fit has a generation to start from, and does not: fit is the cold path.
    assert _traced(lambda: fairds.fit(images, labels))["clustering.fit"]["warm_start"] is False

    spans = _traced(fairds.refresh)
    assert spans["clustering.fit"] == {"warm_start": True, "lloyd_iterations": 2}
    assert spans["fairds.refresh"]["generation"] == 3

    zipped = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=3,
                    db=DocumentDB(codec=CompressedCodec())).fit(images, labels)
    zipped.refresh()
    np.testing.assert_array_equal(_stored(zipped)[0], _stored(fairds)[0])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(60, 160), k=st.integers(2, 4))
def test_an_unchanged_store_refreshes_to_what_the_cold_path_finds(cold_only, seed, n, k):
    """Warm-started and cold refreshes of the same unchanged store agree on
    every stored cluster id and embedding, and on the next seeded lookups."""
    rng = np.random.default_rng(seed)
    images, labels = _scan(rng, n)
    probe = _scan(rng, 25)[0]
    twins = [
        FairDS(PCAEmbedder(embedding_dim=3), n_clusters=k, seed=seed, **kwargs).fit(images, labels)
        for kwargs in ({}, {"clustering_algorithm": cold_only})
    ]
    started = [_traced(twin.refresh)["clustering.fit"]["warm_start"] for twin in twins]
    assert started == [True, False]
    (warm_ids, warm_embeddings), (cold_ids, cold_embeddings) = map(_stored, twins)
    np.testing.assert_array_equal(warm_ids, cold_ids)
    np.testing.assert_array_equal(warm_embeddings, cold_embeddings)
    for _ in range(2):
        warm, cold = (twin.lookup(probe) for twin in twins)
        np.testing.assert_array_equal(warm.images, cold.images)
        np.testing.assert_array_equal(warm.labels, cold.labels)
        np.testing.assert_array_equal(warm.retrieved_distribution.pdf,
                                      cold.retrieved_distribution.pdf)
        assert warm.images.flags.owndata and warm.images.flags.writeable


def _tiny_model(i):
    return Sequential([Dense(4, 2, seed=i, name=f"m{i}_fc")], name=f"m{i}")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(90, 180))
def test_cluster_ids_keep_their_meaning_across_a_refresh_of_a_store_that_grew(seed, n):
    """Every Zoo record's cluster PDF is written in generation N's cluster
    ids.  After a same-distribution scan is ingested and the store refreshed,
    at least 0.9 of the carried samples keep their id — so the record fairMS
    recommends for a dataset is the one it recommended before.  (A cold
    refit relabels: 0.17 kept where this was first measured.)"""
    rng = np.random.default_rng(seed)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=3, seed=seed)
    fairds.fit(*_scan(rng, n))
    zoo = ModelZoo()
    # One Zoo model per blob: trained on data from (mostly) that blob alone.
    blob_scans = []
    for blob in range(3):
        blobs = np.where(rng.random(40) < 0.9, blob, (blob + 1) % 3)
        blob_scans.append(rng.normal(size=(40, SIDE, SIDE)) + 5.0 * blobs[:, None, None])
    for i, images in enumerate(blob_scans):
        zoo.add(_tiny_model(i), fairds.dataset_distribution(images), name=f"blob-{i}")
    fairms = FairMS(zoo, distance_threshold=0.9)
    before = [fairms.recommend(fairds.dataset_distribution(images)).record.name
              for images in blob_scans]
    assert before == ["blob-0", "blob-1", "blob-2"]

    fairds.ingest(*_scan(rng, n // 3))
    carried = _stored(fairds)[0]
    assert _traced(fairds.refresh)["clustering.fit"]["warm_start"] is True
    assert np.mean(_stored(fairds)[0] == carried) >= 0.9
    after = [fairms.recommend(fairds.dataset_distribution(images)).record.name
             for images in blob_scans]
    assert after == before


@pytest.mark.parametrize("why", ["a carried cluster is empty", "K changes", "fit has no init"])
def test_the_warm_start_is_declined_when_generation_n_cannot_seed_it(
        monkeypatch, request, cold_only, why):
    rng = np.random.default_rng(3)
    images, labels = _scan(rng, 120)
    kwargs = {"n_clusters": 3}
    if why == "K changes":
        kwargs["n_clusters"] = "auto"
        chosen = iter([3, 3, 4])
        monkeypatch.setattr(fairds_module, "select_k_elbow",
                            lambda *args, **kw: (next(chosen), None))
    elif why == "fit has no init":
        kwargs["clustering_algorithm"] = cold_only
    elif why == "a carried cluster is empty":
        kwargs["clustering_algorithm"] = request.getfixturevalue("one_unused")
    fairds = FairDS(PCAEmbedder(embedding_dim=3), seed=3, **kwargs).fit(images, labels)
    if why == "K changes":
        # Same K as generation 1: taken.  Then the elbow moves: declined.
        assert _traced(fairds.refresh)["clustering.fit"]["warm_start"] is True
    elif why == "a carried cluster is empty":
        assert set(_stored(fairds)[0]) == {0, 1}
    size = fairds.store_size()

    spans = _traced(fairds.refresh)

    assert spans["clustering.fit"]["warm_start"] is False
    assert spans["clustering.fit"]["lloyd_iterations"] >= 2
    assert fairds.n_clusters == (4 if why == "K changes" else 3) and fairds.store_size() == size
    stored_ids, stored_embeddings = _stored(fairds)
    assert set(stored_ids) == set(range(fairds.n_clusters))
    # The published clustering describes the store it was fitted on.
    clusterer = fairds._generation.clusterer
    np.testing.assert_array_equal(clusterer.predict(stored_embeddings), stored_ids)
    assert len(fairds.lookup(images[:10])) == 10
