"""Tests for the IVF ANN index, capability probing, and the benchmark-side
recall/ground-truth helpers."""

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import (
    available_components,
    create_component,
    register_component,
    unregister_component,
)
from repro.core.fairds import FairDS
from repro.embedding import PCAEmbedder
from repro.storage import (
    ClusteredVectorIndex,
    IVFVectorIndex,
    IndexCapabilities,
    VectorIndex,
    probe_index_capabilities,
)
from repro.utils.errors import (
    ConfigurationError,
    NotFittedError,
    StorageError,
    ValidationError,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from common import exact_nearest_neighbors, recall_at_k  # noqa: E402


def _blobs(rng, n, dim=8, n_blobs=16, scale=10.0):
    centers = rng.normal(scale=scale, size=(n_blobs, dim))
    vectors = centers[rng.integers(0, n_blobs, size=n)] + rng.normal(size=(n, dim))
    return vectors, centers


# -- flat fallback and the training transition ----------------------------------
def test_ivf_is_exact_below_train_threshold(rng):
    index = IVFVectorIndex(dim=4, train_threshold=100)
    flat = VectorIndex(dim=4)
    vectors = rng.normal(size=(50, 4))
    keys = [f"k{i}" for i in range(50)]
    index.add(keys, vectors)
    flat.add(keys, vectors)
    assert not index.is_trained
    assert len(index) == 50
    queries = rng.normal(size=(8, 4))
    for got, want in zip(index.query_batch(queries, k=5), flat.query_batch(queries, k=5)):
        assert [k for k, _ in got] == [k for k, _ in want]
        np.testing.assert_allclose([d for _, d in got], [d for _, d in want])
    assert index.scan_stats()["flat_queries"] == 8


def test_ivf_trains_on_the_add_that_crosses_threshold(rng):
    vectors, _ = _blobs(rng, 300)
    index = IVFVectorIndex(dim=8, n_partitions=8, train_threshold=200)
    index.add([f"a{i}" for i in range(150)], vectors[:150])
    assert not index.is_trained
    index.add([f"b{i}" for i in range(150)], vectors[150:])
    assert index.is_trained
    assert len(index) == 300
    stats = index.scan_stats()
    assert stats["n_partitions"] == 8 and stats["trained"] == 1


def test_ivf_explicit_train_and_incremental_adds_route(rng):
    vectors, _ = _blobs(rng, 200)
    index = IVFVectorIndex(dim=8, n_partitions=4, train_threshold=10_000)
    index.add([f"k{i}" for i in range(200)], vectors)
    assert not index.is_trained
    assert index.train() is True
    assert index.train() is False  # idempotent
    assert index.is_trained
    # Post-training adds go straight into partitions and remain findable.
    extra = vectors[:5] + 1e-4
    index.add([f"x{i}" for i in range(5)], extra)
    assert len(index) == 205
    hits = index.query_batch(extra, k=1)
    assert [h[0][0] for h in hits] == [f"x{i}" for i in range(5)]


def test_ivf_train_refuses_tiny_store():
    index = IVFVectorIndex(dim=3, train_threshold=50)
    assert index.train() is False
    index.add(["only"], np.zeros((1, 3)))
    assert index.train() is False


# -- exactness and recall --------------------------------------------------------
def test_ivf_full_probe_matches_flat_exactly(rng):
    vectors, centers = _blobs(rng, 400)
    keys = [f"k{i}" for i in range(400)]
    index = IVFVectorIndex(dim=8, n_partitions=10, n_probe=10, train_threshold=2)
    index.add(keys, vectors)
    assert index.is_trained
    flat = VectorIndex(dim=8)
    flat.add(keys, vectors)
    queries = centers[rng.integers(0, centers.shape[0], size=32)] + rng.normal(size=(32, 8))
    for got, want in zip(index.query_batch(queries, k=5), flat.query_batch(queries, k=5)):
        assert [k for k, _ in got] == [k for k, _ in want]
        np.testing.assert_allclose(
            [d for _, d in got], [d for _, d in want], rtol=1e-6, atol=1e-6
        )


def test_ivf_partial_probe_has_high_recall_on_clustered_data(rng):
    vectors, centers = _blobs(rng, 2000, n_blobs=32)
    keys = [f"k{i}" for i in range(2000)]
    index = IVFVectorIndex(dim=8, n_partitions=32, n_probe=4, train_threshold=2)
    index.add(keys, vectors)
    queries = centers[rng.integers(0, 32, size=64)] + rng.normal(size=(64, 8))
    truth = [[keys[i] for i in row] for row in exact_nearest_neighbors(vectors, queries, 10)]
    retrieved = [[k for k, _ in hits] for hits in index.query_batch(queries, k=10)]
    assert recall_at_k(retrieved, truth, 10) >= 0.95


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ivf_partial_probe_returns_exact_distances(rng, dtype):
    vectors, centers = _blobs(rng, 1500, n_blobs=12)
    keys = [f"k{i}" for i in range(1500)]
    index = IVFVectorIndex(dim=8, n_partitions=12, n_probe=4, train_threshold=2, dtype=dtype)
    index.add(keys, vectors)
    assert index.is_trained
    stored = vectors.astype(dtype).astype(np.float64)
    queries = centers[rng.integers(0, 12, size=48)] + rng.normal(size=(48, 8))
    truth = [[keys[i] for i in row] for row in exact_nearest_neighbors(stored, queries, 10)]
    hits = index.query_batch(queries, k=10)
    assert recall_at_k([[k for k, _ in row] for row in hits], truth, 10) >= 0.9
    # Every probed partition is scanned in full precision: a hit's distance
    # is the true distance to its stored vector, not an approximation.
    row_of = {key: i for i, key in enumerate(keys)}
    for query, row in zip(queries, hits):
        want = np.linalg.norm(stored[[row_of[k] for k, _ in row]] - query, axis=1)
        np.testing.assert_allclose([d for _, d in row], want, rtol=1e-9, atol=1e-9)
    hit = index.query(stored[7], k=1)[0]
    assert hit[0] == "k7"
    assert hit[1] == pytest.approx(0.0, abs=1e-5)


def test_ivf_partitions_are_plain_vector_indexes(rng):
    vectors, _ = _blobs(rng, 300)
    index = IVFVectorIndex(dim=8, n_partitions=6, train_threshold=2, dtype=np.float64,
                           cache_query_matrix=False)
    index.add([f"k{i}" for i in range(300)], vectors)
    partitions = index._state.partitions
    assert len(partitions) == 6
    assert all(type(part) is VectorIndex for part in partitions)
    assert all(part.dtype == np.float64 and not part.cache_query_matrix for part in partitions)
    assert len(index) == sum(len(part) for part in partitions) == 300
    for key, pid in index._key_partition.items():
        assert key in partitions[pid]
    assert sorted(k for part in partitions for k in part.keys) == sorted(index._key_partition)


@pytest.mark.parametrize("backend", ["clustered", "ivf"])
def test_an_upsert_that_reroutes_a_key_leaves_one_row(backend, rng):
    centers = np.array([[0.0] * 4, [50.0] * 4])
    vectors = np.vstack([centers[0] + rng.normal(size=(20, 4)),
                         centers[1] + rng.normal(size=(20, 4))])
    keys = [f"k{i}" for i in range(40)]
    if backend == "clustered":
        index = ClusteredVectorIndex(centers, n_probe=1)
        index.add(keys, vectors, [0] * 20 + [1] * 20)
        index.add(["k0"], centers[1][None], [1])
        partitions = index._partitions
    else:
        index = IVFVectorIndex(dim=4, n_partitions=2, n_probe=1, train_threshold=2)
        index.add(keys, vectors)
        index.add(["k0"], centers[1][None])
        partitions = index._state.partitions
    assert len(index) == sum(len(part) for part in partitions) == 40
    holding = [pid for pid, part in enumerate(partitions) if "k0" in part]
    assert len(holding) == 1 and "k20" in partitions[holding[0]]
    assert index.query(centers[1], k=1)[0] == ("k0", pytest.approx(0.0, abs=1e-6))
    everything = [k for k, _ in index.query_batch(vectors[:1], k=40)[0]]
    assert sorted(everything) == sorted(keys)


def test_ivf_add_duplicate_keys_last_write_wins_across_partitions(rng):
    index = IVFVectorIndex(dim=4, n_partitions=4, train_threshold=32, n_probe=4)
    keys = [f"k{i}" for i in range(64)]
    index.add(keys, rng.normal(size=(64, 4)))
    assert len(index) == 64
    # Move k0 far away: it must re-route to another partition, and the old
    # copy must be gone.
    index.add(["k0"], [[50.0] * 4])
    assert len(index) == 64
    assert index.query_batch(np.asarray([[50.0] * 4]), k=1)[0][0][0] == "k0"
    all_keys = [k for k, _ in index.query_batch(np.zeros((1, 4)), k=64)[0]]
    assert sorted(all_keys) == sorted(keys)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("backend", ["flat", "clustered", "ivf"])
def test_empty_index_raises_on_direct_path(backend, dtype):
    """Querying an empty store is a wiring bug: every backend says so with a
    StorageError, never with an empty answer (an untrained IVF index answers
    from its flat buffer)."""
    index = {
        "flat": lambda: VectorIndex(3, dtype=dtype),
        "clustered": lambda: ClusteredVectorIndex(np.eye(3)[:2], dtype=dtype),
        "ivf": lambda: IVFVectorIndex(dim=3, dtype=dtype),
    }[backend]()
    with pytest.raises(StorageError, match="empty"):
        index.query_batch(np.zeros((2, 3)), k=2)
    with pytest.raises(StorageError, match="empty"):
        index.query(np.zeros(3))


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_discard_swaps_the_last_row_in_and_answers_as_a_fresh_index(rng, dtype, cache):
    vectors = rng.normal(size=(6, 3))
    index = VectorIndex(3, dtype=dtype, cache_query_matrix=cache)
    index.add([f"k{i}" for i in range(6)], vectors)
    queries = rng.normal(size=(4, 3))
    index.query_batch(queries, k=3)  # a kept mirror must not outlive the discard
    assert index.discard(["k1", "absent", "k1"]) is None
    assert index.keys == ("k0", "k5", "k2", "k3", "k4")
    assert index.discard(["k4"]) is None  # the last row: nothing to swap in
    assert index.keys == ("k0", "k5", "k2", "k3")
    assert len(index) == 4 and "k1" not in index and "k4" not in index
    np.testing.assert_array_equal(index.vectors, vectors[[0, 5, 2, 3]].astype(dtype))
    fresh = VectorIndex(3, dtype=dtype)
    fresh.add(list(index.keys), index.vectors)
    assert index.query_batch(queries, k=4) == fresh.query_batch(queries, k=4)


def test_ivf_k_larger_than_store(rng):
    index = IVFVectorIndex(dim=3, n_partitions=2, train_threshold=2)
    index.add(["a", "b", "c"], rng.normal(size=(3, 3)))
    assert index.is_trained
    for row in index.query_batch(rng.normal(size=(4, 3)), k=10):
        assert sorted(k for k, _ in row) == ["a", "b", "c"]
        distances = [d for _, d in row]
        assert distances == sorted(distances)


def test_ivf_skips_empty_partitions(rng):
    # 2 tight blobs, 8 partitions: several partitions end up empty; probing
    # must skip them and still deliver k candidates.
    centers = np.array([[0.0] * 4, [50.0] * 4])
    vectors = np.vstack([centers[0] + rng.normal(size=(20, 4)) * 0.1,
                         centers[1] + rng.normal(size=(20, 4)) * 0.1])
    index = IVFVectorIndex(dim=4, n_partitions=8, n_probe=1, train_threshold=2)
    index.add([f"k{i}" for i in range(40)], vectors)
    hits = index.query(centers[1], k=5)
    assert len(hits) == 5
    assert all(int(k[1:]) >= 20 for k, _ in hits)


def test_ivf_probes_extra_partitions_until_k_candidates(rng):
    # n_probe=1 but k exceeds every single partition's size: the probe set
    # widens past n_probe until k candidates are reachable.
    vectors, _ = _blobs(rng, 60, dim=4, n_blobs=12)
    index = IVFVectorIndex(dim=4, n_partitions=12, n_probe=1, train_threshold=2)
    index.add([f"k{i}" for i in range(60)], vectors)
    hits = index.query(vectors[0], k=30)
    assert len(hits) == 30


def test_ivf_empty_index_and_validation(rng):
    with pytest.raises(ValidationError):
        IVFVectorIndex(dim=0)
    with pytest.raises(ValidationError):
        IVFVectorIndex(dim=3, n_probe=0)
    with pytest.raises(ConfigurationError):
        IVFVectorIndex(dim=3, n_partitions=0)
    with pytest.raises(ConfigurationError):
        IVFVectorIndex(dim=3, n_partitions="many")
    with pytest.raises(ConfigurationError):
        IVFVectorIndex(dim=3, train_threshold=1)
    with pytest.raises(ConfigurationError):
        IVFVectorIndex(dim=3, clustering_algorithm="no-such-algorithm")
    index = IVFVectorIndex(dim=3)
    with pytest.raises(StorageError):
        index.query(np.zeros(3))
    with pytest.raises(ValidationError):
        index.add(["a"], np.zeros((1, 4)))
    with pytest.raises(ValidationError):
        index.add(["a", "b"], np.zeros((1, 3)))
    index.add(["a"], np.zeros((1, 3)))
    with pytest.raises(ValidationError):
        index.query(np.zeros(3), k=0)
    with pytest.raises(ValidationError):
        index.query(np.zeros(4))


# -- the live n_probe knob -------------------------------------------------------
def test_set_n_probe_is_live_and_validated(rng):
    vectors, _ = _blobs(rng, 500, n_blobs=10)
    index = IVFVectorIndex(dim=8, n_partitions=10, n_probe=1, train_threshold=2)
    index.add([f"k{i}" for i in range(500)], vectors)
    assert index.n_probe == 1
    assert index.set_n_probe(10) == 10
    assert index.n_probe == 10
    index.n_probe = 3  # property setter goes through the same validation
    assert index.scan_stats()["n_probe"] == 3
    for bad in (0, -1, 1.5, True, "4"):
        with pytest.raises(ValidationError):
            index.set_n_probe(bad)
    # A higher n_probe really scans more: compare per-batch probe counts.
    index.set_n_probe(1)
    before = index.scan_stats()["partitions_probed"]
    index.query_batch(vectors[:8], k=1)
    low = index.scan_stats()["partitions_probed"] - before
    index.set_n_probe(8)
    before = index.scan_stats()["partitions_probed"]
    index.query_batch(vectors[:8], k=1)
    high = index.scan_stats()["partitions_probed"] - before
    assert high > low


def test_scan_stats_counters(rng):
    vectors, _ = _blobs(rng, 300, n_blobs=6)
    index = IVFVectorIndex(dim=8, n_partitions=6, n_probe=2, train_threshold=2)
    index.add([f"k{i}" for i in range(300)], vectors)
    stats0 = index.scan_stats()
    index.query_batch(vectors[:10], k=3)
    stats1 = index.scan_stats()
    assert stats1["queries"] - stats0["queries"] == 10
    assert stats1["batches"] - stats0["batches"] == 1
    assert stats1["partitions_probed"] >= stats0["partitions_probed"] + 10
    assert stats1["candidates_scanned"] > stats0["candidates_scanned"]
    assert stats1["size"] == 300
    assert all(isinstance(v, int) for v in stats1.values())


# -- capability probing and composability ----------------------------------------
def test_probe_index_capabilities_builtins():
    flat = VectorIndex(dim=3)
    assert probe_index_capabilities(flat) == IndexCapabilities(
        takes_cluster_ids=False, supports_query_batch=True,
        supports_n_probe=False, supports_scan_stats=False,
    )
    clustered = ClusteredVectorIndex(np.zeros((2, 3)))
    caps = probe_index_capabilities(clustered)
    assert caps.takes_cluster_ids and caps.supports_query_batch
    assert not caps.supports_n_probe and not caps.supports_scan_stats
    ivf = IVFVectorIndex(dim=3)
    assert probe_index_capabilities(ivf) == IndexCapabilities(
        takes_cluster_ids=False, supports_query_batch=True,
        supports_n_probe=True, supports_scan_stats=True,
    )


class _MinimalIndex:
    """The smallest legal backend: add(keys, vectors) + query only."""

    def __init__(self, dim):
        self.inner = VectorIndex(dim=dim)

    def add(self, keys, vectors):
        self.inner.add(keys, vectors)

    def query(self, vector, k=1):
        return self.inner.query(vector, k=k)

    def __len__(self):
        return len(self.inner)


def test_fairds_composes_with_minimal_custom_backend(rng):
    caps = probe_index_capabilities(_MinimalIndex(4))
    assert caps == IndexCapabilities(
        takes_cluster_ids=False, supports_query_batch=False,
        supports_n_probe=False, supports_scan_stats=False,
    )
    register_component("index", "minimal-test", _MinimalIndex, overwrite=True)
    try:
        images = rng.normal(size=(120, 6, 6))
        labels = rng.integers(0, 4, size=120)
        fairds = FairDS(PCAEmbedder(embedding_dim=4), n_clusters=3, seed=0,
                        index_backend="minimal-test")
        fairds.fit(images, labels)
        assert fairds.index_capabilities == caps
        assert fairds.index_n_probe is None
        assert fairds.index_stats() == {}
        with pytest.raises(ConfigurationError):
            fairds.set_index_n_probe(4)
        # nearest_labeled works through the per-row query() fallback.
        hits = fairds.nearest_labeled(images[:3], threshold=None)
        assert len(hits) == 3 and all(label is not None for label, _ in hits)
    finally:
        unregister_component("index", "minimal-test")


def test_fairds_with_ivf_backend_exposes_knob(rng):
    images = rng.normal(size=(150, 6, 6))
    labels = rng.integers(0, 4, size=150)
    fairds = FairDS(PCAEmbedder(embedding_dim=4), n_clusters=3, seed=0,
                    index_backend="ivf",
                    index_params={"n_partitions": 4, "train_threshold": 8, "n_probe": 2})
    with pytest.raises(NotFittedError):
        fairds.set_index_n_probe(3)
    fairds.fit(images, labels)
    assert fairds.index_capabilities.supports_n_probe
    assert fairds.index_n_probe == 2
    assert fairds.set_index_n_probe(4) == 4
    assert fairds.index_n_probe == 4
    stats = fairds.index_stats()
    assert stats["n_partitions"] == 4 and stats["trained"] == 1
    hits = fairds.nearest_labeled(images[:5], threshold=None)
    assert len(hits) == 5


def test_ivf_registered_in_component_registry():
    assert "ivf" in available_components("index")
    index = create_component("index", "ivf", dim=5, n_partitions=2, train_threshold=2)
    index.add(["a", "b", "c"], np.eye(3, 5))
    assert index.query(np.eye(3, 5)[1], k=1)[0][0] == "b"


# -- concurrent reads across a live retune ---------------------------------------
def test_concurrent_queries_during_set_n_probe_and_adds(rng):
    vectors, centers = _blobs(rng, 800, n_blobs=8)
    index = IVFVectorIndex(dim=8, n_partitions=8, n_probe=2, train_threshold=2)
    index.add([f"k{i}" for i in range(800)], vectors)
    queries = centers[rng.integers(0, 8, size=16)] + rng.normal(size=(16, 8))
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                rows = index.query_batch(queries, k=3)
                assert len(rows) == 16 and all(len(r) == 3 for r in rows)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i, n_probe in enumerate([1, 4, 8, 2, 6] * 4):
        index.set_n_probe(n_probe)
        index.add([f"w{i}_{j}" for j in range(5)], rng.normal(size=(5, 8)))
    stop.set()
    for t in threads:
        t.join()
    assert not errors


@pytest.mark.parametrize("backend", ["flat", "ivf"])
def test_readers_score_a_growing_mirror_against_its_own_norms(backend, rng):
    """Readers race a writer that grows the same matrix across several
    capacity doublings: the float64 mirror and its row norms are one published
    pair, so no reader ever scores a mirror against norms of another size —
    no exception, and every hit lies exactly where its key's vector is."""
    dim = 4
    index = (VectorIndex(dim) if backend == "flat" else
             IVFVectorIndex(dim, n_partitions=2, n_probe=2, train_threshold=8))
    held = {}

    def add(keys, vectors):
        held.update(zip(keys, np.float32(vectors).tolist()))  # known before it is stored
        index.add(keys, vectors)

    add([f"s{i}" for i in range(16)], rng.normal(size=(16, dim)))
    queries = rng.normal(size=(2, dim))
    errors, scans = [], []
    stop = threading.Event()

    def reader():
        try:
            while not stop.is_set():
                for query, hits in zip(queries.tolist(), index.query_batch(queries, k=3)):
                    for key, dist in hits:  # KeyError: a key that was never stored
                        assert abs(dist - math.dist(held[key], query)) < 1e-6, (key, dist)
                scans.append(1)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for i in range(2000):  # 16 -> 2016 rows: 32 -> 2048 capacity on the flat side
            add([f"w{i}"], rng.normal(size=(1, dim)))
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(scans) > 100
    assert len(index) == len(held) == 2016
    assert {key for key, _ in index.query(queries[0], k=2016)} == set(held)


# -- benchmark helpers (ground truth + recall) ------------------------------------
def test_exact_nearest_neighbors_matches_flat_index(rng):
    base = rng.normal(size=(200, 6))
    queries = rng.normal(size=(20, 6))
    idx = exact_nearest_neighbors(base, queries, 5)
    assert idx.shape == (20, 5)
    flat = VectorIndex(dim=6, dtype=np.float64)
    flat.add([str(i) for i in range(200)], base)
    for row, hits in zip(idx, flat.query_batch(queries, k=5)):
        assert [str(i) for i in row] == [k for k, _ in hits]


def test_exact_nearest_neighbors_chunking_and_degenerate_k(rng):
    base = rng.normal(size=(50, 4))
    queries = rng.normal(size=(30, 4))
    chunked = exact_nearest_neighbors(base, queries, 3, chunk_queries=7)
    unchunked = exact_nearest_neighbors(base, queries, 3, chunk_queries=1000)
    np.testing.assert_array_equal(chunked, unchunked)
    # k >= n clamps to n, rows are full permutations sorted nearest-first.
    full = exact_nearest_neighbors(base, queries, 99)
    assert full.shape == (30, 50)
    assert all(sorted(row) == list(range(50)) for row in full)
    assert exact_nearest_neighbors(base, np.empty((0, 4)), 3).shape == (0, 3)
    assert exact_nearest_neighbors(np.empty((0, 4)), queries, 3).shape == (30, 0)


def test_recall_at_k_semantics():
    assert recall_at_k([["a", "b"]], [["a", "b"]], 2) == 1.0
    assert recall_at_k([["a", "c"]], [["a", "b"]], 2) == 0.5
    # Order within the top-k does not matter.
    assert recall_at_k([["b", "a"]], [["a", "b"]], 2) == 1.0
    # Entries beyond k are ignored on both sides.
    assert recall_at_k([["x", "a"]], [["a", "y"]], 1) == 0.0
    # Degenerate: empty ground truth counts as perfect; empty inputs too.
    assert recall_at_k([["a"]], [[]], 3) == 1.0
    assert recall_at_k([], [], 5) == 1.0
    with pytest.raises(ValueError):
        recall_at_k([["a"]], [["a"], ["b"]], 1)
