"""The sample write path, batch against row.

``FairDS.fit`` / ``ingest`` / ``refresh`` write a scan as one batch: payloads
encoded by ``Codec.encode_many``, documents built once and adopted by
``Collection.insert_many``, sample digests and the embedding cache consulted
once per batch, index rows appended by ``routed_upsert``.  The path it
replaced — a ``pickle.dumps``, a ``Document`` copy, a duplicate check, a
locked cache ``get`` and ``put`` and an index key lookup *per sample* — lives
on here (and in ``test_index_equivalence``) as the **reference**: the same
calls through either must leave byte-identical payload blobs, equal document
fields, embeddings, cluster ids, cache counters, index rows per partition and
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
from repro.storage.documentdb import Collection
from repro.utils.errors import StorageError, ValidationError

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


def reference_insert_many(self, datas, payloads=None):
    """``Collection.insert_many`` as it was: every mapping copied into a new
    ``Document``, every payload encoded on its own, ids checked one by one."""
    if payloads is not None and len(payloads) != len(datas):
        raise StorageError("payloads must match datas in length")
    docs = []
    total_bytes = 0
    for i, data in enumerate(datas):
        doc = Document(dict(data))
        if payloads is not None:
            blob = self.codec.encode(payloads[i])
            doc["payload"] = blob
            doc["payload_bytes"] = len(blob)
            total_bytes += len(blob)
        docs.append(doc)
    ids = [doc.id for doc in docs]
    self.network.charge(total_bytes)
    with self._lock.write():
        taken = set()
        for doc_id in ids:
            if doc_id in taken or doc_id in self._docs:
                raise StorageError(f"duplicate _id {doc_id!r}")
            taken.add(doc_id)
        for doc_id, doc in zip(ids, docs):
            self._docs[doc_id] = doc
            for field, index in self._indexes.items():
                if field in doc:
                    index.setdefault(doc[field], set()).add(doc.id)
    return ids


def reference_write_samples(coll, catalog, carried, cluster_ids, payloads):
    """``FairDS._write_samples`` as it was: a dict per sample, the payloads as
    a list of rows."""
    ids = coll.insert_many(
        [
            {**fields, "_id": doc_id, "cluster_id": cluster_id}
            for fields, doc_id, cluster_id in zip(
                carried, new_object_ids(len(carried)), cluster_ids.tolist()
            )
        ],
        None if payloads is None else list(payloads),
    )
    return ids, catalog.extended(ids, [fields["label"] for fields in carried], cluster_ids)


@contextmanager
def per_sample_writes():
    """Every sample written inside goes the reference way, layer by layer."""
    with per_key_writes(), \
            mock.patch.object(FairDS, "_embed", staticmethod(reference_embed)), \
            mock.patch.object(FairDS, "_write_samples", staticmethod(reference_write_samples)), \
            mock.patch.object(Collection, "insert_many", reference_insert_many), \
            mock.patch("repro.storage.codecs.PickleCodec.encode_many",
                       side_effect=AssertionError("encoded as a batch")):
        yield


# -- one history, written both ways -------------------------------------------------------------
def _history(fairds):
    """fit, then ingests that meet every branch of the writer: all cache
    misses, some hits, all hits, read-only and strided input, metadata; then a
    refresh (documents carried over, nothing encoded) and one more ingest.
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
    fairds.ingest(frozen, labels)  # pickles as bytes, not as bytearray
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
