"""Ablation — hierarchical (cluster-partitioned) lookup vs flat nearest-neighbour search.

The paper motivates the two-level search of fairDS (first find the cluster,
then search within it) by the cost of naive instance discrimination, which
"scales linearly with the size of the database".  This ablation measures query
latency of the flat exact index against the cluster-partitioned index as the
historical store grows, and verifies that both return the same nearest
neighbour when the partition is probed.

A second study measures the batched lookup engine: at 10k stored vectors and
a 256-query batch it compares the pre-refactor query path (per-vector Python
list storage, one ``np.vstack`` + distance computation per query) against the
contiguous ``query_batch`` path, and asserts the batched engine is at least
5x faster.  Index backends are constructed by name through the storage
registry, the way a deployment would select them from configuration.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.api.registry import create_component
from repro.clustering.kmeans import KMeans
from repro.utils.rng import default_rng
from repro.utils.stats import pairwise_squared_distances

from common import print_table, write_bench_json

STORE_SIZES = (2_000, 8_000, 32_000)
DIM = 16
N_CLUSTERS = 32
N_QUERIES = 200

BATCH_STORE_SIZE = 10_000
BATCH_SIZE = 256


class OldEquivalentFlatIndex:
    """The seed implementation's query path, kept as the refactor baseline.

    Vectors live in a Python list of per-row arrays and every query pays an
    ``np.vstack`` of the whole store plus a single-row distance computation —
    exactly what ``VectorIndex`` did before the contiguous/batched rebuild.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._vectors: List[np.ndarray] = []
        self._keys: List[str] = []

    def add(self, keys: Sequence[str], vectors: np.ndarray) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        self._keys.extend(str(k) for k in keys)
        self._vectors.extend(vectors)

    def query(self, vector: np.ndarray, k: int = 1) -> List[Tuple[str, float]]:
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        mat = np.vstack(self._vectors)
        d2 = pairwise_squared_distances(vector, mat)[0]
        k = min(k, d2.size)
        order = np.argpartition(d2, k - 1)[:k]
        order = order[np.argsort(d2[order])]
        return [(self._keys[i], float(np.sqrt(d2[i]))) for i in order]


def _timed_queries(index, queries) -> float:
    start = time.perf_counter()
    for q in queries:
        index.query(q, k=1)
    return (time.perf_counter() - start) / len(queries) * 1e3  # ms / query


def _clustered_store(rng, size: int, dim: int, n_clusters: int, blob_centers=None):
    """``(blob_centers, vectors, keys)`` drawn from a mixture of Gaussian blobs.

    Pass ``blob_centers`` to reuse one set of centres across several store
    sizes (as the scaling study does); omitted, fresh centres are drawn.
    """
    if blob_centers is None:
        blob_centers = rng.normal(scale=10.0, size=(n_clusters, dim))
    assignments = rng.integers(0, n_clusters, size=size)
    vectors = blob_centers[assignments] + rng.normal(size=(size, dim))
    keys = [f"k{i}" for i in range(size)]
    return blob_centers, vectors, keys


@pytest.mark.figure("ablation-lookup")
def test_ablation_lookup_scalability(benchmark, report_sink):
    rng = default_rng(0)
    # Clustered data: a mixture of Gaussian blobs, as produced by the embedding space.
    blob_centers = rng.normal(scale=10.0, size=(N_CLUSTERS, DIM))

    rows = []
    speedups = []
    for size in STORE_SIZES:
        _, vectors, keys = _clustered_store(rng, size, DIM, N_CLUSTERS, blob_centers=blob_centers)

        flat = create_component("index", "flat", dim=DIM)
        flat.add(keys, vectors)

        km = KMeans(n_clusters=N_CLUSTERS, n_init=1, max_iter=25, seed=0).fit(vectors[: min(size, 4000)])
        clustered = create_component("index", "clustered", centers=km.cluster_centers_, n_probe=2)
        clustered.add(keys, vectors, km.predict(vectors))

        queries = blob_centers[rng.integers(0, N_CLUSTERS, size=N_QUERIES)] + rng.normal(size=(N_QUERIES, DIM))
        flat_ms = _timed_queries(flat, queries)
        clustered_ms = _timed_queries(clustered, queries)
        rows.append((size, flat_ms, clustered_ms, flat_ms / max(clustered_ms, 1e-9)))
        speedups.append(flat_ms / max(clustered_ms, 1e-9))

        # Correctness spot-check: for a handful of queries both indexes agree on
        # the nearest neighbour (the probed partition contains it).
        agreements = 0
        for q in queries[:20]:
            if flat.query(q, k=1)[0][0] == clustered.query(q, k=1)[0][0]:
                agreements += 1
        assert agreements >= 18

    print_table(
        "Ablation — nearest-neighbour lookup latency [ms/query]: flat vs cluster-partitioned index",
        ["store_size", "flat_ms", "clustered_ms", "speedup"],
        rows, sink=report_sink,
    )

    # Shape checks: the hierarchical index wins, and its advantage grows with store size.
    assert all(s > 1.0 for s in speedups[1:])
    assert speedups[-1] >= speedups[0] * 0.8  # advantage does not collapse as the store grows

    # Benchmark target: one clustered query at the largest store size.
    last_query = blob_centers[0] + rng.normal(size=DIM)
    benchmark(lambda: clustered.query(last_query, k=1))


@pytest.mark.figure("ablation-lookup-batched")
def test_ablation_batched_lookup_throughput(benchmark, report_sink):
    """Old-equivalent per-vector path vs the contiguous batched engine."""
    rng = default_rng(1)
    blob_centers, vectors, keys = _clustered_store(rng, BATCH_STORE_SIZE, DIM, N_CLUSTERS)
    queries = blob_centers[rng.integers(0, N_CLUSTERS, size=BATCH_SIZE)] + rng.normal(size=(BATCH_SIZE, DIM))

    old = OldEquivalentFlatIndex(DIM)
    old.add(keys, vectors)
    flat = create_component("index", "flat", dim=DIM)
    flat.add(keys, vectors)

    km = KMeans(n_clusters=N_CLUSTERS, n_init=1, max_iter=25, seed=0).fit(vectors[:4000])
    clustered = create_component("index", "clustered", centers=km.cluster_centers_, n_probe=2)
    clustered.add(keys, vectors, km.predict(vectors))

    def throughput(fn, repeats=3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return BATCH_SIZE / best  # queries / s

    old_results = [old.query(q, k=1) for q in queries]
    old_qps = throughput(lambda: [old.query(q, k=1) for q in queries])
    loop_qps = throughput(lambda: [flat.query(q, k=1) for q in queries])
    batch_results = flat.query_batch(queries, k=1)
    batch_qps = throughput(lambda: flat.query_batch(queries, k=1))
    clustered_batch_qps = throughput(lambda: clustered.query_batch(queries, k=1))

    rows = [
        ("old per-vector (seed)", old_qps, 1.0),
        ("flat per-vector loop", loop_qps, loop_qps / old_qps),
        ("flat query_batch", batch_qps, batch_qps / old_qps),
        ("clustered query_batch", clustered_batch_qps, clustered_batch_qps / old_qps),
    ]
    print_table(
        f"Ablation — batched lookup throughput [queries/s] at {BATCH_STORE_SIZE} stored vectors, batch {BATCH_SIZE}",
        ["path", "queries_per_s", "speedup_vs_old"],
        rows, sink=report_sink,
    )

    # The batched path must return exactly what the pre-refactor path returned...
    assert [r[0][0] for r in batch_results] == [r[0][0] for r in old_results]
    # (distances agree to float32 storage precision; the old path stored float64)
    np.testing.assert_allclose(
        [r[0][1] for r in batch_results], [r[0][1] for r in old_results], rtol=1e-5, atol=1e-5
    )
    # ...and clear the acceptance bar: >= 5x throughput over the old-equivalent path.
    assert batch_qps >= 5.0 * old_qps

    write_bench_json(
        "ablation_lookup_scalability",
        metrics={
            "old_per_vector_qps": old_qps,
            "flat_loop_qps": loop_qps,
            "flat_batch_qps": batch_qps,
            "clustered_batch_qps": clustered_batch_qps,
            "batch_speedup_vs_old": batch_qps / old_qps,
        },
        params={"store_size": BATCH_STORE_SIZE, "batch_size": BATCH_SIZE, "dim": DIM,
                "n_clusters": N_CLUSTERS},
    )

    benchmark(lambda: flat.query_batch(queries, k=1))
