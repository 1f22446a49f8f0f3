"""fairDS's columnar sample table: the store, and the documents built from it.

Every fairDS operation reads and writes the generation's append-only sample
table (ids, images, labels, metadata, cluster ids, per-cluster row numbers);
``FairDS.collection`` is a document view built from it for the readers that
want documents.  The contract tested here:

* **the view is the table** — after any history of fit / ingest / refresh,
  the view's documents are the table's rows in write order, encoded by the
  codec as a reference encodes the same rows, and no document holds an
  embedding (the index does); the view is built once and extended by
  exactly the rows ingests add;
* **equivalence** — what a lookup returns is bit-identical to a reference that
  walks ``collection.find()`` on every call, which is what lookups did before
  the table existed, across ingests and refreshes;
* **no per-document work** — no fairDS operation builds a ``Document``, calls
  the codec or walks the collection;
* **concurrency** — lookups beside an ingest see the store before or after
  it, never half of it, ``nearest_labeled`` beside an ingest finds a row for
  every key the index returns, and concurrent lookups never share a sampler
  seed.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FairDS
from repro.api.registry import register_component, unregister_component
from repro.clustering.kmeans import KMeans
from repro.core.distribution import DatasetDistribution
from repro.dataio.sampler import WeightedClusterSampler
from repro.embedding import PCAEmbedder
from repro.storage.codecs import Codec, PickleCodec
from repro.storage.document import Document
from repro.storage.documentdb import Collection
from repro.utils.errors import ValidationError
from repro.utils.rng import derive_seed

SIDE = 4
N_CLUSTERS = 4


def _scan(rng, n):
    """``n`` patches, each around one of four well-separated blobs."""
    blobs = rng.integers(0, N_CLUSTERS, size=n)
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
            st.tuples(st.just("refresh"), st.none()),
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
        elif kind == "refresh":
            fairds.refresh()
        else:
            batches = [_scan(rng, int(rng.integers(1, 30)))[0] for _ in range(arg)]
            # None = as many as the input; otherwise up to several times the
            # store, so clusters are drawn with replacement.
            n_samples = [
                None if rng.random() < 0.5 else int(rng.integers(1, 4 * fairds.store_size()))
                for _ in batches
            ]
            _check_lookups(fairds, reference, batches, n_samples)


class ForeignIdKMeans(KMeans):
    """A registered clusterer whose ``predict`` answers ``n_clusters`` — an id
    its clustering does not have — for a sample far from every centre."""

    def predict(self, x):
        far = self.transform(x).min(axis=1) > 100.0
        return np.where(far, self.n_clusters, super().predict(x))


@pytest.fixture
def foreign_ids():
    register_component("clustering", "foreign-id-kmeans", ForeignIdKMeans)
    yield "foreign-id-kmeans"
    assert unregister_component("clustering", "foreign-id-kmeans")


def test_lookup_on_a_foreign_cluster_id_is_rejected_untouched(foreign_ids):
    """An ingest through such a clusterer stores the foreign id (the flat
    index takes no cluster ids to refuse); a lookup then is rejected before a
    sampler seed is reserved, and a refresh, whose clustering labels every
    sample itself, makes the store answer again."""
    rng = np.random.default_rng(0)
    images, labels = _scan(rng, 48)
    query, _ = _scan(rng, 9)
    twins = []
    for _ in range(2):
        fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=N_CLUSTERS, index_backend="flat",
                        clustering_algorithm=foreign_ids).fit(images, labels)
        fairds.ingest(np.full((1, SIDE, SIDE), 1e3), [[0.0, 0.0]])
        twins.append(fairds)
    assert twins[0].collection.get(twins[0].collection.ids()[-1])["cluster_id"] == N_CLUSTERS
    with pytest.raises(ValidationError, match="cluster id"):
        twins[0].lookup(query)
    answers = []
    for fairds in twins:
        fairds.refresh()
        positions = {d: i for i, d in enumerate(fairds.collection.ids())}
        answers.append([positions[d] for d in fairds.lookup(query).doc_ids])
    assert answers[0] == answers[1]


# -- (b) no per-document work ------------------------------------------------------
def test_steady_state_lookups_do_no_per_document_work(monkeypatch):
    """No fairDS operation builds a document, calls the codec or walks the
    store, until someone reads the collection view."""
    calls = {"find": 0, "matches": 0, "Document": 0, "codec": 0}
    here = threading.get_ident()  # what threads left over from other tests do is not counted

    def counting(what, real):
        def spy(*args, **kwargs):
            calls[what] += threading.get_ident() == here
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(Collection, "find", counting("find", Collection.find))
    monkeypatch.setattr(Document, "matches", counting("matches", Document.matches))
    monkeypatch.setattr(Document, "__init__", counting("Document", Document.__init__))
    for codec in (Codec, PickleCodec):
        for name in ("encode", "encode_many", "decode"):
            monkeypatch.setattr(codec, name, counting("codec", vars(codec)[name]), raising=False)
    fairds, rng = _fitted(n=200)
    fairds.ingest(*_scan(rng, 30), metadata=[{"tag": i} for i in range(30)])
    fairds.lookup(_scan(rng, 8)[0])
    fairds.refresh()
    for i in range(20):
        result = fairds.lookup(_scan(rng, 16)[0])
        assert len(result) == 16
        assert len(fairds.nearest_labeled(_scan(rng, 4)[0])) == 4
        fairds.certainty(_scan(rng, 6)[0])
        if i % 5 == 0:  # an ingest extends the catalog; it does not invalidate it
            fairds.ingest(*_scan(rng, 10))
    assert fairds.store_size() == 200 + 30 + 40
    assert calls == {"find": 0, "matches": 0, "Document": 0, "codec": 0}
    fairds.collection.count()  # the view's first read builds it
    assert calls["Document"] == 270 and calls["codec"] > 0


def test_refresh_and_lookups_never_walk_the_store(monkeypatch):
    """A refresh reads the samples it carries over through the table, by id,
    and the lookups of the generation it publishes answer from that
    generation's table."""
    fairds, rng = _fitted(n=120)
    fairds.ingest(*_scan(rng, 30))
    walks = []
    real_find = Collection.find

    def spy_find(self, *args, **kwargs):
        walks.append(self)
        return real_find(self, *args, **kwargs)

    monkeypatch.setattr(Collection, "find", spy_find)
    for _ in range(2):
        fairds.refresh()
        fairds.ingest(*_scan(rng, 10))
        assert len(fairds.lookup_batch([_scan(rng, 16)[0], _scan(rng, 5)[0]])) == 2
        assert len(fairds.lookup(_scan(rng, 8)[0])) == 8
    assert walks == [] and fairds.generation == 3


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
    assert {"cluster_id", "label"} <= set(fairds.collection.find_one())


# -- (c) the view is the table -----------------------------------------------------
def _assert_table_is_the_store(fairds):
    gen = fairds._generation
    catalog, docs = gen.catalog, fairds.collection.find()
    codec = fairds.db.codec
    assert catalog.size == len(docs) == fairds.store_size()
    assert catalog.doc_ids == [d["_id"] for d in docs]
    assert catalog.row_of == {d["_id"]: i for i, d in enumerate(docs)}
    assert catalog.labels.tolist() == [d["label"] for d in docs]
    assert catalog.labels.dtype == catalog.images.dtype == np.float64
    np.testing.assert_array_equal(catalog.images, [codec.decode(d["payload"]) for d in docs])
    assert catalog.metadata == [
        {k: v for k, v in d.items() if k not in ("label", "_id", "cluster_id", "payload",
                                                "payload_bytes")} or None
        for d in docs]
    np.testing.assert_array_equal(catalog.cluster_ids, [d["cluster_id"] for d in docs])
    assert catalog.members.keys() == set(catalog.cluster_ids.tolist())
    for c, rows in catalog.members.items():
        np.testing.assert_array_equal(
            rows, [i for i, d in enumerate(docs) if d["cluster_id"] == c])
    assert not any("embedding" in d for d in docs)


@settings(max_examples=20, deadline=None)
@given(
    data_seed=st.integers(0, 10_000),
    steps=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["fit", "ingest"]), st.integers(N_CLUSTERS, 40),
                      st.booleans()),
            st.tuples(st.just("refresh"), st.none(), st.none()),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_the_sample_table_is_the_store_in_write_order(data_seed, steps):
    """Whatever history of fairDS's writes made it, with or without metadata."""
    fairds, rng = _fitted(data_seed=data_seed)
    _assert_table_is_the_store(fairds)
    for kind, n, tagged in steps:
        if kind == "refresh":
            fairds.refresh()
        else:
            metadata = [{"tag": i} for i in range(n)] if tagged else None
            getattr(fairds, kind)(*_scan(rng, n), metadata=metadata)
        _assert_table_is_the_store(fairds)


def test_the_view_is_what_the_codec_makes_of_the_rows_built_once_and_extended(monkeypatch):
    rng = np.random.default_rng(7)
    rows = []  # (image, label, metadata) of every sample, in write order

    def scan(n, tagged):
        images, labels = _scan(rng, n)
        metadata = [{"tag": i, "scan": len(rows)} for i in range(n)] if tagged else None
        rows.extend(zip(images, labels, metadata or [None] * n))
        return images, labels, metadata

    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=N_CLUSTERS, seed=1)
    images, labels, metadata = scan(60, True)
    fairds.fit(images, labels, metadata=metadata)
    for tagged in (False, True):
        images, labels, metadata = scan(15, tagged)
        fairds.ingest(images, labels, metadata=metadata)
    fairds.refresh()
    fairds.ingest(*scan(5, False)[:2])

    built, here = [], threading.get_ident()
    real_init = Document.__init__
    monkeypatch.setattr(Document, "__init__", lambda self, *a, **kw: (
        threading.get_ident() == here and built.append(1)) or real_init(self, *a, **kw))
    codec, gen = fairds.db.codec, fairds._generation
    view = fairds.collection
    docs = view.find()
    assert len(built) == len(rows) == 95

    def reference(rows, first_row):
        table = gen.catalog
        out = []
        for row, (image, label, extra) in enumerate(rows, start=first_row):
            blob = codec.encode(image)
            out.append({"label": label.tolist(), **(extra or {}), "_id": table.doc_ids[row],
                        "cluster_id": int(table.cluster_ids[row]), "payload": blob,
                        "payload_bytes": len(blob)})
        return out

    want = reference(rows, 0)
    assert [list(d.items()) for d in docs] == [list(d.items()) for d in want]  # fields and order
    assert view.storage_bytes() == sum(d["payload_bytes"] for d in want)
    # Built once: reads after the first build nothing, and stay this object.
    assert view.find() == docs and view.count() == 95 and len(built) == 95
    assert fairds.collection is view is fairds.db.collection(fairds.collection_name)
    # One ingest extends it by exactly the new rows.
    images, labels, metadata = scan(7, True)
    fairds.ingest(images, labels, metadata=metadata)
    assert len(built) == 95  # not by the ingest ...
    grown = fairds.collection.find()
    assert len(built) == 95 + 7  # ... by the next read
    assert grown[:95] == docs and all(a is b for a, b in zip(grown, docs))
    assert [list(d.items()) for d in grown[95:]] == [
        list(d.items()) for d in reference(rows[95:], 95)]


def test_a_refresh_is_never_served_stale():
    fairds, rng = _fitted(n=80)
    reference = WalkingReference(fairds)
    coll = fairds.collection

    def check(n_lookups=3):
        for _ in range(n_lookups):
            _check_lookups(fairds, reference, [_scan(rng, 20)[0]], [None])

    check()
    fairds.refresh()
    assert fairds.collection is not coll
    check()
    gone = set(coll.ids())
    assert not gone & set(fairds.lookup(_scan(rng, 30)[0]).doc_ids)


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


def test_nearest_labeled_beside_an_ingest_finds_the_row_of_every_key(monkeypatch):
    """An ingest publishes its rows before the index learns their ids, so a
    scan that returns a key ingested a moment ago finds its row: no read
    raises, and every label is the stored label of the key the index gave."""
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=N_CLUSTERS, seed=0,
                    index_dtype=np.float64)
    rng = np.random.default_rng(3)
    fairds.fit(*_scan(rng, 40))
    scans = [_scan(rng, 6) for _ in range(150)]
    keys_of = threading.local()
    real_query = FairDS._index_query_batch

    def recording(self, gen, vectors, k=1):
        keys_of.hits = real_query(self, gen, vectors, k)
        return keys_of.hits

    writing = []
    real_add = FairDS._index_add

    def add_then_read(index, caps, keys, vectors, cluster_ids):
        real_add(index, caps, keys, vectors, cluster_ids)
        # The read that races the ingest at its narrowest: the index knows
        # the ids, the ingest has not returned.
        answers.append(([hit[0][0] for hit in real_query(fairds, fairds._generation, vectors)],
                        fairds.nearest_labeled(writing[-1])))

    monkeypatch.setattr(FairDS, "_index_query_batch", recording)
    monkeypatch.setattr(FairDS, "_index_add", staticmethod(add_then_read))
    errors, answers, done = [], [], threading.Event()

    def ingest():
        try:
            for images, labels in scans:
                writing.append(images)
                fairds.ingest(images, labels)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
        finally:
            done.set()

    def nearest(seed):
        local = np.random.default_rng(seed)
        deadline = time.monotonic() + 20.0
        try:
            while not done.is_set() and time.monotonic() < deadline:
                # Queries among the scans being written: many hit a fresh row.
                images = scans[int(local.integers(len(scans)))][0]
                got = fairds.nearest_labeled(images)
                answers.append(([hit[0][0] for hit in keys_of.hits], got))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=ingest)] + [
        threading.Thread(target=nearest, args=(seed,)) for seed in range(3)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert answers and fairds.store_size() == 40 + 6 * 150
    table = fairds._generation.catalog
    exact = 0
    for keys, got in answers:
        for key, (label, distance) in zip(keys, got):
            np.testing.assert_array_equal(label, table.labels[table.row_of[key]])
            exact += distance < 1e-9
    assert exact  # some queries found the very rows an ingest was writing


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
