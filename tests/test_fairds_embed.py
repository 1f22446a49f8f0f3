"""``FairDS._embed``: memoised where the embedder says it pays, bypassed where not.

The embedder's author declares ``memoize`` (``Embedder``: True; ``PCAEmbedder``:
False — a projection is cheaper than hashing its input).  ``_rebuild`` gives a
generation whose embedder does not memoise a cache of size 0, and ``_embed``'s
``maxsize == 0`` branch is the bypass.  Pinned here:

* the memoised and the bypassed path return **bit-equal** embeddings for one
  fitted generation — all misses, all hits, some of each, one flat sample,
  float32 input;
* a ``PCAEmbedder`` generation hashes nothing and never calls its cache on
  ``lookup`` / ``nearest_labeled`` / ``certainty`` / ``ingest`` (counted, not
  timed), and its counters read zero; a memoising one does both;
* an embedder that says nothing memoises (registered custom ones, the three
  network embedders), and the declaration survives ``deepcopy`` into a
  generation and a ``pickle`` round trip;
* an empty batch is refused as ``lookup`` refuses it, on every read, backend
  and ``memoize`` setting.
"""

import hashlib
import pickle
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import repro.utils.cache as cache_module
from repro import FairDS
from repro.api.registry import create_component, register_component, unregister_component
from repro.core.fairds import _Generation
from repro.embedding import Embedder, PCAEmbedder
from repro.utils.cache import LRUCache
from repro.utils.errors import ValidationError

SIDE = 5


class MemoisedPCA(PCAEmbedder):
    """PCA that declares what ``Embedder`` declares: worth memoising."""

    memoize = True


class MeanEmbedder(Embedder):
    """A user's embedder that says nothing about memoising."""

    def fit(self, x, **kwargs):
        return self

    def transform(self, x):
        flat = self.flatten(x)
        return np.stack([flat.mean(axis=1), flat.std(axis=1), flat.max(axis=1)], axis=1)


def _scan(rng, n):
    blobs = rng.integers(0, 3, size=n)
    return rng.normal(size=(n, SIDE, SIDE)) + 5.0 * blobs[:, None, None], rng.normal(size=(n, 2))


def _fitted(embedder=PCAEmbedder, **kwargs):
    rng = np.random.default_rng(0)
    fairds = FairDS(embedder(embedding_dim=3), n_clusters=3, seed=0, **kwargs)
    fairds.fit(*_scan(rng, 90))
    return fairds, rng


@contextmanager
def counted():
    """Counts, while open, every ``blake2b`` built, copied or updated by
    ``repro.utils.cache`` and every ``LRUCache`` batch call (``get`` / ``put``
    go through them)."""
    counts = SimpleNamespace(hashed=0, cache_calls=0)

    class Blake2b:
        def __init__(self, *args, inner=None, **kwargs):
            counts.hashed += 1
            self.inner = inner if inner is not None else hashlib.blake2b(*args, **kwargs)

        def copy(self):
            return Blake2b(inner=self.inner.copy())

        def update(self, data):
            counts.hashed += 1
            self.inner.update(data)

        def digest(self):
            return self.inner.digest()

    def counting(real):
        def call(self, *args, **kwargs):
            counts.cache_calls += 1
            return real(self, *args, **kwargs)
        return call

    with mock.patch.object(cache_module, "hashlib", SimpleNamespace(blake2b=Blake2b)), \
            mock.patch.object(LRUCache, "get_many", counting(LRUCache.get_many)), \
            mock.patch.object(LRUCache, "put_many", counting(LRUCache.put_many)):
        yield counts


# -- one decision per generation ------------------------------------------------------------------
def test_the_embedder_declares_and_each_generation_decides_once():
    assert Embedder.memoize is True and PCAEmbedder.memoize is False
    assert all(create_component("embedder", name).memoize
               for name in ("byol", "autoencoder", "contrastive"))
    for embedder, size in [(PCAEmbedder, 0), (MemoisedPCA, 4096), (MeanEmbedder, 4096)]:
        fairds, rng = _fitted(embedder)
        assert fairds._generation.cache.maxsize == size
        fairds.ingest(*_scan(rng, 10))
        fairds.refresh()  # the next generation decides again, the same way
        assert fairds._generation.cache.maxsize == size
    assert _fitted(MemoisedPCA, embedding_cache_size=0)[0]._generation.cache.maxsize == 0
    assert _fitted(MemoisedPCA, embedding_cache_size=7)[0]._generation.cache.maxsize == 7


def test_memoised_and_bypassed_embeddings_are_bit_equal():
    """One fitted embedder behind two generations that differ only in their
    cache: every way a batch can meet the cache answers what the plain
    transform answers."""
    fairds, rng = _fitted()
    bypassed = fairds._generation
    memoised = _Generation(**{**vars(bypassed), "cache": LRUCache(64)})
    seen, unseen = _scan(rng, 12)[0], _scan(rng, 7)[0]
    mixed = np.concatenate([seen[:4], unseen, seen[4:9]])
    for what, images, hits in [
        ("all miss", seen, 0),
        ("all hit", seen, 12),
        ("all hit, reversed view", seen[::-1], 12),
        ("partial hit", mixed, 9),
        ("one flat sample (its shape is part of its digest: a miss)", seen[3].reshape(-1), 0),
        ("the same flat sample again", seen[3].reshape(-1), 1),
        ("float32 input", unseen.astype(np.float32), 0),
    ]:
        was = memoised.cache.hits
        want = FairDS._embed(bypassed, images)
        got = FairDS._embed(memoised, images)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what
        assert memoised.cache.hits - was == hits, what
    assert bypassed.cache.info() == LRUCache(0).info()
    # A hit is the embedding as its first batch computed it; BLAS may round a
    # lone row's product differently (gemv, not gemm) in the last place.  The
    # bypass answers what ``transform`` answers for the batch in hand, always.
    alone = FairDS._embed(memoised, seen[:1])
    assert alone.tobytes() == FairDS._embed(bypassed, seen)[:1].tobytes()
    np.testing.assert_allclose(alone, FairDS._embed(bypassed, seen[:1]), rtol=1e-12)


@pytest.mark.parametrize("backend, params", [
    ("flat", {}), ("clustered", {}), ("ivf", {"n_partitions": 4, "train_threshold": 40}),
])
def test_a_pca_generation_hashes_nothing_and_never_calls_its_cache(backend, params):
    def history(embedder):
        fairds, rng = _fitted(embedder, index_backend=backend, index_params=params)
        probe = _scan(rng, 16)[0]
        with counted() as counts:
            answers = [
                fairds.lookup(probe).labels.tolist(),
                [(label.tolist(), d) for label, d in fairds.nearest_labeled(probe)],
                fairds.certainty(probe),
                fairds.certainty_batch([probe, probe[:5]]),
                fairds.dataset_distribution(probe).pdf.tolist(),
                len(fairds.ingest(*_scan(rng, 20))),
                fairds.lookup(probe).labels.tolist(),  # the same patches again
            ]
        return fairds.embedding_cache_info(), counts, answers

    info, counts, answers = history(PCAEmbedder)
    assert (counts.hashed, counts.cache_calls) == (0, 0)
    assert info == {"size": 0, "maxsize": 0, "hits": 0, "misses": 0, "hit_rate": 0.0}
    memo_info, memo_counts, memo_answers = history(MemoisedPCA)
    assert memo_counts.hashed > 16 * 6 and memo_counts.cache_calls >= 8
    assert memo_info["hits"] >= 16 * 5 and memo_info["misses"] == 16 + 20
    assert memo_answers == answers  # same labels, distances, certainties and draws either way


# -- who memoises --------------------------------------------------------------------------------
def test_a_registered_embedder_that_says_nothing_still_memoises():
    register_component("embedder", "mean-3", MeanEmbedder)
    try:
        embedder = create_component("embedder", "mean-3", embedding_dim=3)
        assert "memoize" not in vars(MeanEmbedder) and embedder.memoize is True
        rng = np.random.default_rng(1)
        fairds = FairDS(embedder, n_clusters=2, seed=0).fit(*_scan(rng, 40))
        probe = _scan(rng, 9)[0]
        first = fairds.certainty(probe)
        with mock.patch.object(MeanEmbedder, "transform", side_effect=AssertionError("embedded")):
            assert fairds.certainty(probe) == first  # every sample served from the cache
        info = fairds.embedding_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (9, 9, 9)
    finally:
        unregister_component("embedder", "mean-3")


@pytest.mark.parametrize("name", ["byol", "autoencoder", "contrastive"])
def test_the_network_embedders_report_cache_hits_on_a_repeated_dataset(name):
    rng = np.random.default_rng(2)
    embedder = create_component("embedder", name, embedding_dim=3, hidden=8, epochs=1, seed=0)
    fairds = FairDS(embedder, n_clusters=2, seed=0).fit(*_scan(rng, 40))
    probe = _scan(rng, 6)[0]
    first = fairds.lookup(probe)
    again = fairds.lookup(probe)
    info = fairds.embedding_cache_info()
    assert (info["hits"], info["misses"], info["maxsize"]) == (6, 6, 4096)
    np.testing.assert_array_equal(first.input_distribution.pdf, again.input_distribution.pdf)


def test_the_declaration_survives_deepcopy_into_a_generation_and_pickle():
    rng = np.random.default_rng(3)
    for embedder, declared in [(PCAEmbedder, False), (MemoisedPCA, True)]:
        gen = FairDS(embedder(embedding_dim=3), n_clusters=2, seed=0).fit(*_scan(rng, 40))._generation
        assert gen.embedder.memoize is declared and bool(gen.cache.maxsize) is declared
        assert pickle.loads(pickle.dumps(gen.embedder)).memoize is declared
    # An instance may also be told apart from its class; that travels too.
    one_off = PCAEmbedder(embedding_dim=3)
    one_off.memoize = True
    gen = FairDS(one_off, n_clusters=2, seed=0).fit(*_scan(rng, 40))._generation
    assert gen.cache.maxsize == 4096
    assert pickle.loads(pickle.dumps(gen.embedder)).memoize is True


# -- an empty batch never reaches numpy ------------------------------------------------------------
@pytest.mark.parametrize("embedder", [PCAEmbedder, MemoisedPCA])
@pytest.mark.parametrize("backend, params", [
    ("flat", {}), ("clustered", {}), ("ivf", {"n_partitions": 4, "train_threshold": 40}),
])
def test_every_read_refuses_an_empty_batch_as_lookup_does(backend, params, embedder):
    fairds, rng = _fitted(embedder, index_backend=backend, index_params=params)
    before = (fairds.store_size(), fairds.embedding_cache_info())
    empty = np.empty((0, SIDE, SIDE))
    for read in [
        fairds.nearest_labeled,
        fairds.certainty,
        lambda images: fairds.certainty_batch([_scan(rng, 4)[0], images]),
        fairds.dataset_distribution,
        lambda images: fairds.lookup(images, n_samples=3),
        lambda images: fairds.ingest(images, np.empty((0, 2))),
        lambda images: fairds.nearest_labeled(images.reshape(0)),
        lambda images: fairds.nearest_labeled([]),
    ]:
        with pytest.raises(ValidationError, match="images must be non-empty"):
            read(empty)
    with pytest.raises(ValidationError, match="n_samples must be >= 1"):
        fairds.lookup(empty)
    assert (fairds.store_size(), fairds.embedding_cache_info()) == before
    assert fairds.certainty_batch([]) == []
