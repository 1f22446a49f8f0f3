"""fairDS's columnar sample catalog: lookups without the full-store walk.

``FairDS.lookup_batch`` answers from append-only columns (document ids,
cluster ids, labels, per-cluster row numbers) instead of walking every stored
document.  The contract tested here:

* **equivalence** — what a lookup returns is bit-identical to a reference that
  walks ``collection.find()`` on every call, which is what lookups did before
  the catalog existed;
* **no per-document work** — steady-state lookups never call
  ``Collection.find`` or ``Document.matches``;
* **invalidation** — a store changed behind fairDS's back is never answered
  from stale columns;
* **concurrency** — lookups beside an ingest see the store before or after
  it, never half of it, and concurrent lookups never share a sampler seed.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FairDS
from repro.core.distribution import DatasetDistribution
from repro.dataio.sampler import WeightedClusterSampler
from repro.embedding import PCAEmbedder
from repro.storage.document import Document
from repro.storage.documentdb import Collection
from repro.utils.errors import ValidationError
from repro.utils.rng import derive_seed

SIDE = 4
N_CLUSTERS = 4


def _scan(rng, n, blob=None):
    """``n`` patches around one of four well-separated blobs (or a mix)."""
    blobs = rng.integers(0, N_CLUSTERS, size=n) if blob is None else np.full(n, blob)
    images = rng.normal(size=(n, SIDE, SIDE)) + 6.0 * blobs[:, None, None]
    return images, rng.normal(size=(n, 2))


def _fitted(seed=0, n=48, data_seed=0):
    rng = np.random.default_rng(data_seed)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=N_CLUSTERS, seed=seed)
    fairds.fit(*_scan(rng, n))
    return fairds, rng


class WalkingReference:
    """The lookup as it was before the catalog: every call walks ``find()``,
    rebuilds the cluster-id column and lets the sampler scan it.  Sampler
    seeds are counted here, one per dataset ever looked up, as documented."""

    def __init__(self, fairds):
        self.fairds = fairds
        self.counter = 0

    def lookup_batch(self, batches, n_samples):
        fairds = self.fairds
        docs = fairds.collection.find()
        store_cluster_ids = np.array([d["cluster_id"] for d in docs], dtype=int)
        distributions = fairds.dataset_distribution_batch(batches)
        results = []
        for images, n_override, distribution in zip(batches, n_samples, distributions):
            sampler = WeightedClusterSampler(
                store_cluster_ids,
                distribution.pdf,
                n_samples=n_override if n_override is not None else len(images),
                seed=derive_seed(fairds.seed, 101, self.counter),
            )
            self.counter += 1
            chosen = list(sampler)
            doc_ids = [docs[i].id for i in chosen]
            results.append({
                "doc_ids": doc_ids,
                "labels": np.array([docs[i]["label"] for i in chosen], dtype=np.float64),
                "images": np.stack(fairds.collection.fetch_payloads(doc_ids)),
                "input_pdf": distribution.pdf,
                "retrieved_pdf": DatasetDistribution.from_cluster_ids(
                    store_cluster_ids[chosen], fairds.n_clusters
                ).pdf,
            })
        return results


def _assert_identical(result, expected):
    assert result.doc_ids == expected["doc_ids"]
    for got, want in (
        (result.labels, expected["labels"]),
        (result.images, expected["images"]),
        (result.input_distribution.pdf, expected["input_pdf"]),
        (result.retrieved_distribution.pdf, expected["retrieved_pdf"]),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _check_lookups(fairds, reference, batches, n_samples):
    """One ``lookup_batch`` and then the same datasets as single lookups,
    each against the walking reference."""
    expected = reference.lookup_batch(batches, n_samples)
    for result, want in zip(fairds.lookup_batch(batches, n_samples=n_samples), expected):
        _assert_identical(result, want)
    for images, n_override in zip(batches, n_samples):
        (want,) = reference.lookup_batch([images], [n_override])
        _assert_identical(fairds.lookup(images, n_samples=n_override), want)


# -- (a) equivalence ---------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    data_seed=st.integers(0, 10_000),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("ingest"), st.integers(1, 40)),
            st.tuples(st.just("lookup"), st.integers(1, 3)),
            st.tuples(st.just("empty_cluster"), st.integers(0, N_CLUSTERS - 1)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_lookups_match_a_reference_that_walks_the_store(seed, data_seed, steps):
    fairds, rng = _fitted(seed=seed, data_seed=data_seed)
    reference = WalkingReference(fairds)
    for kind, arg in steps + [("lookup", 2)]:
        if kind == "ingest":
            fairds.ingest(*_scan(rng, arg))
        elif kind == "empty_cluster":
            # Out of band, and never the last cluster standing: the sampler
            # must then borrow from a donor cluster.
            if fairds.collection.count({"cluster_id": arg}) < fairds.store_size():
                fairds.collection.delete_many({"cluster_id": arg})
        else:
            batches = [_scan(rng, int(rng.integers(1, 30)))[0] for _ in range(arg)]
            # None = as many as the input; otherwise up to several times the
            # store, so clusters are drawn with replacement.
            n_samples = [
                None if rng.random() < 0.5 else int(rng.integers(1, 4 * fairds.store_size()))
                for _ in batches
            ]
            _check_lookups(fairds, reference, batches, n_samples)


def test_lookup_borrows_from_a_donor_when_the_wanted_cluster_is_empty():
    fairds, rng = _fitted()
    reference = WalkingReference(fairds)
    query, _ = _scan(rng, 12, blob=2)
    wanted = int(np.argmax(fairds.dataset_distribution(query).pdf))
    fairds.collection.delete_many({"cluster_id": wanted})
    (expected,) = reference.lookup_batch([query], [None])
    result = fairds.lookup(query)
    _assert_identical(result, expected)
    assert len(result) == 12
    assert result.retrieved_distribution.pdf[wanted] == 0.0


def test_lookup_on_emptied_store_and_foreign_cluster_id_are_rejected_untouched():
    """Both rejections happen before a sampler seed is reserved."""
    fairds, rng = _fitted()
    twin, _ = _fitted()
    query, _ = _scan(rng, 9)
    doc_id = fairds.collection.ids()[0]
    original = fairds.collection.get(doc_id)["cluster_id"]
    fairds.collection.update_one({"_id": doc_id}, {"cluster_id": N_CLUSTERS + 3})
    with pytest.raises(ValidationError):
        fairds.lookup(query)
    fairds.collection.update_one({"_id": doc_id}, {"cluster_id": original})
    positions = {d: i for i, d in enumerate(fairds.collection.ids())}
    twin_positions = {d: i for i, d in enumerate(twin.collection.ids())}
    assert [positions[d] for d in fairds.lookup(query).doc_ids] == [
        twin_positions[d] for d in twin.lookup(query).doc_ids
    ]
    fairds.collection.delete_many({})
    with pytest.raises(ValidationError, match="empty"):
        fairds.lookup(query)


# -- (b) no per-document work ------------------------------------------------------
def test_steady_state_lookups_do_no_per_document_work(monkeypatch):
    fairds, rng = _fitted(n=200)
    fairds.ingest(*_scan(rng, 30))
    fairds.lookup(_scan(rng, 8)[0])

    calls = {"find": 0, "matches": 0}
    real_find, real_matches = Collection.find, Document.matches

    def spy_find(self, *args, **kwargs):
        calls["find"] += 1
        return real_find(self, *args, **kwargs)

    def spy_matches(self, query):
        calls["matches"] += 1
        return real_matches(self, query)

    monkeypatch.setattr(Collection, "find", spy_find)
    monkeypatch.setattr(Document, "matches", spy_matches)
    for i in range(20):
        result = fairds.lookup(_scan(rng, 16)[0])
        assert len(result) == 16
        if i % 5 == 0:  # an ingest extends the catalog; it does not invalidate it
            fairds.ingest(*_scan(rng, 10))
    assert calls == {"find": 0, "matches": 0}

    # ...and the spy does see a rebuild when one is due.
    fairds.collection.delete_many({"_id": fairds.collection.ids()[0]})
    fairds.lookup(_scan(rng, 4)[0])
    assert calls["find"] == 1


def test_fit_feeds_the_index_from_the_arrays_it_holds(monkeypatch):
    """``fit`` never reads the documents back and parses no stored embedding:
    the index *and the catalog* get the ids, labels, embeddings and cluster
    ids that ``fit`` computed."""
    rng = np.random.default_rng(0)
    images, labels = _scan(rng, 40)
    reads = {"find": 0, "embedding": 0}
    real_find = Collection.find

    def spy_find(self, *args, **kwargs):
        reads["find"] += 1
        return real_find(self, *args, **kwargs)

    def spy_getitem(self, key):
        reads["embedding"] += key == "embedding"
        return dict.__getitem__(self, key)

    monkeypatch.setattr(Collection, "find", spy_find)
    monkeypatch.setattr(Document, "__getitem__", spy_getitem, raising=False)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=N_CLUSTERS, index_dtype=np.float64)
    fairds.fit(images, labels)
    assert reads == {"find": 0, "embedding": 0}
    # The index answers with the stored documents, which keep their fields.
    for (label, distance), want in zip(fairds.nearest_labeled(images[:5]), labels[:5]):
        np.testing.assert_array_equal(label, want)
        assert distance < 1e-6
    assert {"embedding", "cluster_id", "label"} <= set(fairds.collection.find_one())


# -- (c) invalidation --------------------------------------------------------------
def test_out_of_band_writes_and_refresh_are_never_served_stale():
    fairds, rng = _fitted(n=80)
    reference = WalkingReference(fairds)
    coll = fairds.collection

    def check(n_lookups=3):
        for _ in range(n_lookups):
            _check_lookups(fairds, reference, [_scan(rng, 20)[0]], [None])

    check()
    doomed = coll.ids()[::3]
    for doc_id in doomed:
        assert coll.delete_many({"_id": doc_id}) == 1
    for _ in range(5):
        result = fairds.lookup(_scan(rng, 40)[0], n_samples=200)
        assert not set(result.doc_ids) & set(doomed)
    reference.counter += 5
    check()

    for doc_id in coll.ids()[:10]:
        moved_to = (coll.get(doc_id)["cluster_id"] + 1) % N_CLUSTERS
        assert coll.update_one({"_id": doc_id}, {"cluster_id": moved_to})
    check()

    query, _ = _scan(rng, 10, blob=1)
    wanted = int(np.argmax(fairds.dataset_distribution(query).pdf))
    inserted = coll.insert_one(
        {"label": [9.0, 9.0], "cluster_id": wanted}, payload=np.zeros((SIDE, SIDE))
    )
    check()
    # Drawn with replacement from a cluster of a few dozen: 400 draws that all
    # miss one member would be a ~1e-7 event.
    assert inserted in fairds.lookup(query, n_samples=400).doc_ids
    reference.counter += 1

    fairds.refresh()
    assert fairds.collection is not coll
    check()
    gone = set(coll.ids())
    assert not gone & set(fairds.lookup(_scan(rng, 30)[0]).doc_ids)


def test_collection_version_moves_with_every_change_and_only_then():
    fairds, _ = _fitted()
    coll = fairds.collection
    versions = [coll.version]

    def moved():
        versions.append(coll.version)
        return versions[-1] > versions[-2]

    coll.find(), coll.count(), coll.ids(), coll.create_index("cluster_id")
    coll.snapshot_one({"cluster_id": 0}), coll.transform_one({"cluster_id": 0}, lambda doc: None)
    assert not moved()
    doc_id = coll.insert_one({"cluster_id": 0, "label": [0, 0]})
    assert moved()
    assert coll.update_one({"_id": doc_id}, {"cluster_id": 1}) and moved()
    assert not coll.update_one({"_id": "missing"}, {"cluster_id": 1}) and not moved()
    coll.upsert_one({"_id": doc_id}, {"cluster_id": 2})
    assert moved()
    assert coll.delete_many({"_id": "missing"}) == 0 and not moved()
    assert coll.delete_many({"_id": doc_id}) == 1 and moved()


# -- (d) concurrency ---------------------------------------------------------------
def test_lookups_beside_an_ingest_never_see_a_torn_store():
    fairds, rng = _fitted(n=120)
    scans = [_scan(rng, 25) for _ in range(12)]
    queries = [[_scan(rng, 10)[0] for _ in range(25)] for _ in range(4)]
    errors, results, ingested = [], [], []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def ingest():
        try:
            for images, labels in scans:
                ingested.extend(fairds.ingest(images, labels))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def look(batches):
        try:
            for images in batches:
                results.append(fairds.lookup(images, n_samples=60))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=ingest)] + [
        threading.Thread(target=look, args=(batches,)) for batches in queries
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == 100
    stored = {doc.id: doc for doc in fairds.collection.find()}
    assert set(ingested) <= set(stored)
    for result in results:
        assert len(result.doc_ids) == len(result.labels) == len(result.images) == 60
        for doc_id, label in zip(result.doc_ids, result.labels):
            np.testing.assert_array_equal(label, stored[doc_id]["label"])
    # Once the writer is done the catalog has caught up with all of it.
    late = set()
    for _ in range(30):
        late.update(fairds.lookup(_scan(rng, 10)[0], n_samples=200).doc_ids)
    assert late & set(ingested)


def test_concurrent_single_lookups_consume_distinct_sampler_seeds(monkeypatch):
    """N concurrent single lookups draw with exactly the N seeds that N
    sequential ones would — none shared, none skipped."""
    fairds, rng = _fitted(n=120)
    n_threads, per_thread = 8, 25
    queries = [[_scan(rng, 6)[0] for _ in range(per_thread)] for _ in range(n_threads)]
    seeds, errors = [], []

    class RecordingSampler(WeightedClusterSampler):
        def __init__(self, *args, seed=None, **kwargs):
            seeds.append(seed)  # list.append is atomic
            time.sleep(0)  # hand the GIL over right where the race used to be
            super().__init__(*args, seed=seed, **kwargs)

    monkeypatch.setattr("repro.core.fairds.WeightedClusterSampler", RecordingSampler)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def look(batches):
        try:
            for images in batches:
                fairds.lookup(images)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=look, args=(batches,)) for batches in queries]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    total = n_threads * per_thread
    assert sorted(seeds) == sorted(derive_seed(fairds.seed, 101, i) for i in range(total))
    # The next lookup continues the sequence where N singles would have left it.
    fairds.lookup(queries[0][0])
    assert seeds[-1] == derive_seed(fairds.seed, 101, total)
