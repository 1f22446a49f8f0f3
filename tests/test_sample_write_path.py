"""The sample write path, batch against row.

``FairDS.fit`` / ``ingest`` / ``refresh`` write a scan as one batch: the
sample table extended once, sample digests and the embedding cache consulted
once per batch, index rows appended by ``routed_upsert``; the collection view
encodes the rows it adds with one ``Codec.encode_many``.  The per-sample path
— the table extended, a ``pickle.dumps``, a locked cache ``get`` and ``put``
and an index key lookup *per sample* — lives on here (and in
``test_index_equivalence``) as the **reference**: the same calls through
either must leave byte-identical payload blobs, equal document fields,
tables, embeddings, cluster ids, cache counters, index rows per partition and
the same seeded lookup draws.
"""

import hashlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from test_fairds_embed import MemoisedPCA  # PCA holds no cache: the cache half runs on this
from test_index_equivalence import contents, per_key_writes

from repro import FairDS
from repro.core.fairds import _transform64
from repro.embedding import PCAEmbedder
from repro.storage.document import Document, new_object_ids
from repro.utils.errors import ValidationError

SIDE = 5


# -- the reference: the per-sample writer this PR removed from src/ ---------------------------
def reference_row_digests(batch):
    batch = np.ascontiguousarray(batch)
    prefix = str(batch.dtype).encode() + np.asarray(batch.shape[1:], dtype=np.int64).tobytes()
    return [hashlib.blake2b(prefix + row.tobytes(), digest_size=16).digest() for row in batch]


def reference_embed(gen, images):
    """``FairDS._embed`` as it was: a locked ``get`` and ``put`` per sample."""
    images = np.asarray(images, dtype=np.float64)
    cache = gen.cache
    if cache.maxsize == 0:
        return _transform64(gen.embedder, images)
    if images.ndim == 1:
        images = images.reshape(1, -1)
    keys = reference_row_digests(images)
    cached = [cache.get(key) for key in keys]
    missing = [i for i, hit in enumerate(cached) if hit is None]
    if len(missing) == len(keys):
        embeddings = _transform64(gen.embedder, images)
        for i, key in enumerate(keys):
            cache.put(key, embeddings[i].copy())
        return embeddings
    if missing:
        fresh = _transform64(gen.embedder, images[missing])
        for row, i in enumerate(missing):
            cache.put(keys[i], fresh[row].copy())
            cached[i] = fresh[row]
    return np.stack([np.asarray(vec, dtype=np.float64) for vec in cached])


def reference_write_samples(catalog, cluster_ids, images=None, labels=None, metadata=None):
    """``FairDS._write_samples`` one row at a time."""
    ids = []
    for i, cluster_id in enumerate(np.asarray(cluster_ids).tolist()):
        (doc_id,) = new_object_ids(1)
        rows = () if images is None else (
            images[i:i + 1], labels[i:i + 1], None if metadata is None else metadata[i:i + 1])
        catalog = catalog.extended([doc_id], np.array([cluster_id]), *rows)
        ids.append(doc_id)
    return ids, catalog


def reference_documents(gen, start):
    """``FairDS._documents`` with every payload pickled on its own."""
    catalog = gen.catalog
    return [
        Document({"label": catalog.labels[row].tolist(), **(catalog.metadata[row] or {})},
                 _id=catalog.doc_ids[row], cluster_id=int(catalog.cluster_ids[row]),
                 payload=gen.collection.codec.encode(catalog.images[row]),
                 payload_bytes=len(gen.collection.codec.encode(catalog.images[row])))
        for row in range(start, catalog.size)
    ]


@contextmanager
def per_sample_writes():
    """Every sample written inside goes the reference way, layer by layer."""
    with per_key_writes(), \
            mock.patch.object(FairDS, "_embed", staticmethod(reference_embed)), \
            mock.patch.object(FairDS, "_write_samples", staticmethod(reference_write_samples)), \
            mock.patch.object(FairDS, "_documents", staticmethod(reference_documents)), \
            mock.patch("repro.storage.codecs.PickleCodec.encode_many",
                       side_effect=AssertionError("encoded as a batch")):
        yield


# -- one history, written both ways -------------------------------------------------------------
def _history(fairds):
    """fit, then ingests that meet every branch of the writer: all cache
    misses, some hits, all hits, read-only and strided input, metadata; then a
    refresh (the columns shared, nothing encoded) and one more ingest.
    Returns what the reads in between answered."""
    rng = np.random.default_rng(11)

    def scan(n):
        blobs = rng.integers(0, 4, size=n)
        return rng.normal(size=(n, SIDE, SIDE)) + 5.0 * blobs[:, None, None], rng.normal(size=(n, 2))

    def rows(doc_ids):
        """Store positions: ids carry a clock reading and a process-wide counter."""
        position = {doc_id: i for i, doc_id in enumerate(fairds.collection.ids())}
        return [position[doc_id] for doc_id in doc_ids]

    answers = []
    images, labels = scan(64)
    fairds.fit(images, labels, metadata=[{"scan": 0, "row": i} for i in range(64)])
    probe, _ = scan(12)
    answers.append(fairds.nearest_labeled(probe))  # probe is cached from here on
    images, labels = scan(20)
    fairds.ingest(images, labels, metadata=[{"scan": 1, "row": i} for i in range(20)])
    mixed = np.concatenate([probe[:5], scan(6)[0], probe[5:8]])
    fairds.ingest(mixed, rng.normal(size=(14, 2)))  # hits and misses interleaved
    fairds.ingest(mixed[::-1], rng.normal(size=(14, 2)))  # all hits, a strided stack
    frozen, labels = scan(9)
    frozen.flags.writeable = False
    fairds.ingest(frozen, labels)  # its copy in the column is writable, like every row
    fairds.ingest(scan(7)[0].astype(np.float32), rng.normal(size=(7, 2)))
    answers.append([(rows(r.doc_ids), r.labels.tolist(), r.images.tolist(), r.generation)
                    for r in fairds.lookup_batch([probe, mixed], n_samples=[9, None])])
    answers.append(fairds.embedding_cache_info())
    fairds.refresh()
    fairds.ingest(*scan(10))
    answers.append(fairds.nearest_labeled(mixed, threshold=4.0))
    answers.append([rows(fairds.lookup(probe).doc_ids), fairds.embedding_cache_info()])
    return answers


def _by_position(value, position):
    """``value`` with every document id replaced by its position in the store."""
    if isinstance(value, str):
        return position.get(value, value)
    if isinstance(value, dict):
        return {_by_position(k, position): _by_position(v, position) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_by_position(v, position) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _observed(fairds, answers):
    docs = fairds.collection.find()
    position = {doc["_id"]: i for i, doc in enumerate(docs)}
    gen = fairds._generation
    return {
        "documents": [{k: v for k, v in doc.items() if k != "_id"} for doc in docs],
        "field order": [list(doc) for doc in docs],
        "by cluster": [sorted(position[d["_id"]] for d in fairds.collection.find({"cluster_id": c}))
                       for c in range(fairds.n_clusters)],  # a hash index: no order to keep
        "index": _by_position(contents(gen.index), position),
        "catalog": _by_position([gen.catalog.doc_ids, gen.catalog.labels,
                                 gen.catalog.cluster_ids, gen.catalog.members], position),
        "cache keys": list(gen.cache._data),
        "answers": _by_position(answers, {}),
    }


@pytest.mark.parametrize("cache_size", [4096, 16, 0])
@pytest.mark.parametrize("backend, params", [
    ("ivf", {"n_partitions": 5, "train_threshold": 40}),
    ("ivf", {"n_partitions": 5, "train_threshold": 40, "n_probe": 1}),
    ("clustered", {}),
    ("flat", {}),
])
def test_a_history_written_by_batch_is_the_history_written_by_row(backend, params, cache_size):
    def build():
        return FairDS(MemoisedPCA(embedding_dim=4), n_clusters=4, seed=3, index_backend=backend,
                      index_params=params, embedding_cache_size=cache_size)

    by_batch = build()
    got = _observed(by_batch, _history(by_batch))
    with per_sample_writes():
        by_row = build()
        want = _observed(by_row, _history(by_row))
    assert got.keys() == want.keys()
    for what in got:
        assert got[what] == want[what], what
    assert bool(got["cache keys"]) == bool(cache_size)  # the cache half was compared, not skipped
    blobs = [doc["payload"] for doc in got["documents"]]
    assert all(type(blob) is bytes for blob in blobs) and len(blobs) == 64 + 20 + 14 + 14 + 9 + 7 + 10
    assert [doc["payload_bytes"] for doc in got["documents"]] == [len(blob) for blob in blobs]


# -- what the writer refuses, before it embeds anything -------------------------------------------
def _fitted():
    rng = np.random.default_rng(2)
    fairds = FairDS(PCAEmbedder(embedding_dim=3), n_clusters=2, seed=0)
    fairds.fit(rng.normal(size=(12, SIDE, SIDE)), rng.normal(size=(12, 2)))
    return fairds, rng


@pytest.mark.parametrize("n_metadata", [3, 7])
def test_ingest_and_fit_refuse_metadata_of_another_length(n_metadata):
    fairds, rng = _fitted()
    images, labels = rng.normal(size=(5, SIDE, SIDE)), rng.normal(size=(5, 2))
    metadata = [{"tag": i} for i in range(n_metadata)]
    before = (fairds.store_size(), fairds.collection.ids(), fairds.embedding_cache_info())
    with mock.patch.object(PCAEmbedder, "transform", side_effect=AssertionError("embedded")):
        with pytest.raises(ValidationError, match="metadata must match"):
            fairds.ingest(images, labels, metadata=metadata)
        with pytest.raises(ValidationError, match="metadata must match"):
            fairds.fit(images, labels, metadata=metadata)
    assert (fairds.store_size(), fairds.collection.ids(), fairds.embedding_cache_info()) == before
    assert fairds.generation == 1


def test_ingest_keeps_metadata_of_the_right_length_and_none():
    fairds, rng = _fitted()
    images, labels = rng.normal(size=(5, SIDE, SIDE)), rng.normal(size=(5, 2))
    tagged = fairds.ingest(images, labels, metadata=[{"tag": i} for i in range(5)])
    bare = fairds.ingest(images + 1.0, labels, metadata=None)
    assert [fairds.collection.get(doc_id)["tag"] for doc_id in tagged] == list(range(5))
    assert all("tag" not in fairds.collection.get(doc_id) for doc_id in bare)
    assert fairds.store_size() == 12 + 10
