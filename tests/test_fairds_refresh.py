"""fairDS's system-plane refresh: what it rewrites, what it carries over.

``FairDS.refresh`` re-fits the embedder and the clustering on the stored
samples and replaces the collection.  The contract tested here:

* **payloads are carried over** — the new documents hold the *same* encoded
  blobs, so a refresh never re-encodes a sample and a remote store is never
  sent the payloads it already has;
* **everything derived is new** — embeddings, cluster ids, document ids, the
  collection, the index, and an empty embedding cache;
* **the store bypasses the embedding cache** — a fit embeds the store once
  and leaves the LRU to the queries;
* **a refresh's trace names its stages**.
"""

import numpy as np
import pytest

from repro import FairDS
from repro.embedding import PCAEmbedder
from repro.observability.tracing import Tracer
from repro.storage.documentdb import DocumentDB, NetworkModel

SIDE = 5


def _scan(rng, n, offset=0.0):
    blobs = rng.integers(0, 3, size=n)
    images = rng.normal(size=(n, SIDE, SIDE)) + 5.0 * blobs[:, None, None] + offset
    return images, rng.normal(size=(n, 2))


def _store(n=90, db=None, seed=0):
    """A fitted fairDS with per-sample metadata, then a drifted scan ingested
    (so a refresh has something to learn)."""
    rng = np.random.default_rng(seed)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=3, db=db, seed=seed)
    images, labels = _scan(rng, n)
    fairds.fit(images, labels, metadata=[{"scan": i // 30, "tag": f"s{i}"} for i in range(n)])
    fairds.ingest(*_scan(rng, 30, offset=-9.0), metadata=[{"scan": 9}] * 30)
    return fairds, rng


def _stored_centers(docs):
    """Cluster centres as the store records them: the mean embedding per cluster id."""
    embeddings = np.array([d["embedding"] for d in docs])
    cluster_ids = np.array([d["cluster_id"] for d in docs])
    return np.stack([embeddings[cluster_ids == c].mean(axis=0) for c in sorted(set(cluster_ids))])


def test_refresh_carries_payload_blobs_over_and_rewrites_the_rest():
    fairds, rng = _store()
    old_coll = fairds.collection
    old_docs = old_coll.find()
    old_ids = [d.id for d in old_docs]
    old_images = old_coll.fetch_payloads(old_ids)
    old_centers = _stored_centers(old_docs)
    fairds.lookup(_scan(rng, 20)[0])
    assert fairds.embedding_cache_info()["size"] > 0

    fairds.refresh()

    coll = fairds.collection
    docs = coll.find()
    ids = [d.id for d in docs]
    assert coll is not old_coll and not set(ids) & set(old_ids)
    assert fairds.store_size() == len(old_docs) == 120
    assert fairds.embedding_cache_info()["size"] == 0
    # The very same bytes objects: nothing was decoded and encoded again.
    assert all(new["payload"] is old["payload"] for new, old in zip(docs, old_docs))
    for got, want in zip(coll.fetch_payloads(ids), old_images):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for new, old in zip(docs, old_docs):
        assert new["label"] == old["label"] and new["scan"] == old["scan"]
        assert new.get("tag") == old.get("tag")
        assert new["payload_bytes"] == old["payload_bytes"] == len(new["payload"])
        assert set(new) == set(old)

    # Embeddings and cluster ids come from the re-fitted models ...
    images = np.stack(old_images)
    embeddings = np.array([d["embedding"] for d in docs])
    np.testing.assert_allclose(embeddings, fairds.embedder.transform(images), atol=1e-12)
    stored_clusters = np.array([d["cluster_id"] for d in docs])
    for c in set(stored_clusters):
        # Every stored cluster id is what the re-fitted clustering predicts.
        assert fairds.dataset_distribution(images[stored_clusters == c]).pdf[c] == 1.0
    assert not np.allclose(_stored_centers(docs), old_centers)  # the clustering was re-fitted
    # ... and so do the answers.
    for (label, distance), doc in zip(fairds.nearest_labeled(images[:8]), docs):
        np.testing.assert_array_equal(label, doc["label"])
        assert distance < 1e-4  # itself, to the float32 index's precision
    result = fairds.lookup(images[90:], n_samples=60)
    assert set(result.doc_ids) <= set(ids)
    drifted = set(stored_clusters[90:])
    assert {coll.get(doc_id)["cluster_id"] for doc_id in result.doc_ids} <= drifted


def test_refresh_is_charged_for_reading_payloads_not_for_writing_them_back():
    charged = []

    class Metered(NetworkModel):
        def charge(self, n_bytes):
            charged.append(n_bytes)

    fairds, _ = _store(db=DocumentDB(network=Metered(latency_s=1e-9)))
    stored = fairds.collection.storage_bytes()
    charged.clear()
    fairds.refresh()
    assert stored in charged                    # the payloads were read ...
    assert charged.count(0) == 1                # ... the write sent fields only
    assert set(charged) == {0, stored}
    assert fairds.collection.storage_bytes() == stored


def test_fit_embeds_the_store_without_the_embedding_cache():
    fairds, rng = _store()
    info = fairds.embedding_cache_info()
    # Only the ingested scan went through the LRU; the 90 fitted samples did not.
    assert (info["size"], info["misses"], info["hits"]) == (30, 30, 0)
    fairds.refresh()
    info = fairds.embedding_cache_info()
    # The new generation's own cache: empty, its counters at zero.
    assert (info["size"], info["misses"], info["hits"]) == (0, 0, 0)
    images, labels = _scan(rng, 40)
    fresh = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=3).fit(images, labels)
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
