"""ANN lookup — IVF partition-probing vs exhaustive flat scan.

The IVF index exists to make nearest-labeled-sample lookup sublinear: a
coarse k-means quantizer routes each query to its ``n_probe`` nearest
partitions and only those inverted lists are scanned.  This benchmark pits
:class:`~repro.storage.ivf_index.IVFVectorIndex` against the exhaustive
:class:`~repro.storage.vector_index.VectorIndex` on the same clustered
vector corpus and charts the *recall@10 vs throughput* curve as ``n_probe``
sweeps — the exact trade-off the live serving knob retunes.

Acceptance bar (asserted, full mode): at **1M stored vectors** some point on
the sweep clears **>= 10x** the flat index's batched-lookup throughput while
keeping **recall@10 >= 0.95** against brute-force ground truth.  Smoke mode
shrinks the corpus but still asserts the recall bar, so every CI run checks
that partition probing does not silently lose neighbours.

Results land in ``BENCH_ann_lookup.json`` (see ``common.write_bench_json``).

Run standalone:  python benchmarks/bench_ann_lookup.py [--smoke]
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.storage import IVFVectorIndex, VectorIndex
from repro.utils.rng import default_rng

from common import exact_nearest_neighbors, print_table, recall_at_k, write_bench_json

# Embedding dimensionality of the stored vectors — same realistic range as
# the serving-throughput bench (fairDS embeddings are 8-64 dims).
DIM = 32
K = 10

FULL = dict(
    n_vectors=1_000_000, n_queries=256, n_blobs=1024, repeats=3,
    n_partitions="auto", train_size=32768, n_probe_sweep=(1, 2, 4, 8, 16, 32),
    assert_speedup=10.0, assert_recall=0.95,
)
SMOKE = dict(
    n_vectors=20_000, n_queries=128, n_blobs=128, repeats=2,
    n_partitions=64, train_size=8192, n_probe_sweep=(1, 4, 8, 16),
    assert_speedup=None, assert_recall=0.95,
)


def _make_corpus(n_vectors: int, n_queries: int, n_blobs: int, seed: int = 0):
    """Clustered float32 vectors + a query stream drawn from the same blobs."""
    rng = default_rng(seed)
    centers = rng.normal(scale=10.0, size=(n_blobs, DIM))
    vectors = (
        centers[rng.integers(0, n_blobs, size=n_vectors)]
        + rng.normal(size=(n_vectors, DIM))
    ).astype(np.float32)
    queries = (
        centers[rng.integers(0, n_blobs, size=n_queries)]
        + rng.normal(size=(n_queries, DIM))
    ).astype(np.float32)
    return vectors, queries


def _best_qps(index, queries: np.ndarray, repeats: int) -> float:
    """Best-of-``repeats`` batched-lookup throughput, in queries/second."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        index.query_batch(queries, k=K)
        best = max(best, queries.shape[0] / (time.perf_counter() - start))
    return best


def _retrieved_keys(index, queries: np.ndarray) -> List[List[str]]:
    return [[key for key, _ in hits] for hits in index.query_batch(queries, k=K)]


def run(smoke: bool = False, report_sink=None) -> Dict[str, object]:
    cfg = SMOKE if smoke else FULL
    n, n_queries, repeats = cfg["n_vectors"], cfg["n_queries"], cfg["repeats"]
    vectors, queries = _make_corpus(n, n_queries, cfg["n_blobs"])
    keys = [f"k{i:07d}" for i in range(n)]

    print(f"[bench] corpus: {n} vectors, dim={DIM}, {n_queries} queries")
    truth_idx = exact_nearest_neighbors(vectors, queries, K)
    truth_keys = [[keys[i] for i in row] for row in truth_idx]

    flat = VectorIndex(dim=DIM, dtype=np.float32)
    flat.add(keys, vectors)
    flat_qps = _best_qps(flat, queries, repeats)
    flat_recall = recall_at_k(_retrieved_keys(flat, queries), truth_keys, K)
    print(f"[bench] flat baseline: {flat_qps:.1f} q/s, recall@{K}={flat_recall:.4f}")

    build_start = time.perf_counter()
    ivf = IVFVectorIndex(
        dim=DIM,
        n_partitions=cfg["n_partitions"],
        n_probe=cfg["n_probe_sweep"][0],
        train_threshold=2,
        train_size=cfg["train_size"],
    )
    ivf.add(keys, vectors)
    build_s = time.perf_counter() - build_start
    stats = ivf.scan_stats()
    print(f"[bench] IVF built in {build_s:.1f}s: {stats['n_partitions']} partitions")

    sweep_rows = []
    curve = []
    for n_probe in cfg["n_probe_sweep"]:
        ivf.set_n_probe(n_probe)
        recall = recall_at_k(_retrieved_keys(ivf, queries), truth_keys, K)
        qps = _best_qps(ivf, queries, repeats)
        speedup = qps / flat_qps
        curve.append({"n_probe": n_probe, "recall_at_10": round(recall, 4),
                      "qps": round(qps, 1), "speedup": round(speedup, 2)})
        sweep_rows.append((n_probe, recall, qps, speedup))

    print_table(
        f"ANN lookup — IVF ({stats['n_partitions']} partitions) vs flat scan, "
        f"{n} stored vectors [queries/s]",
        ["n_probe", f"recall@{K}", "queries_per_s", "speedup_vs_flat"],
        sweep_rows,
        sink=report_sink,
    )

    # The acceptance point: the best-throughput sweep entry that clears the
    # recall bar.
    qualifying = [c for c in curve if c["recall_at_10"] >= cfg["assert_recall"]]
    best = max(qualifying, key=lambda c: c["speedup"]) if qualifying else None

    metrics = {
        "flat_qps": round(flat_qps, 1),
        "flat_recall_at_10": round(flat_recall, 4),
        "ivf_build_s": round(build_s, 2),
        "curve": curve,
        "best_qualifying": best,
        "n_partitions": stats["n_partitions"],
    }
    write_bench_json(
        "ann_lookup",
        metrics=metrics,
        params={
            "smoke": smoke,
            "n_vectors": n,
            "n_queries": n_queries,
            "dim": DIM,
            "k": K,
            "n_probe_sweep": list(cfg["n_probe_sweep"]),
            "train_size": cfg["train_size"],
            "repeats": repeats,
        },
    )

    # Acceptance bars.  Recall is asserted in every mode (smoke included, so
    # CI checks it per PR); the 10x-at-1M throughput bar only at full scale.
    assert best is not None, (
        f"no n_probe in {list(cfg['n_probe_sweep'])} reached "
        f"recall@{K} >= {cfg['assert_recall']} "
        f"(best recall {max(c['recall_at_10'] for c in curve):.4f})"
    )
    if cfg["assert_speedup"]:
        assert best["speedup"] >= cfg["assert_speedup"], (
            f"best qualifying point (n_probe={best['n_probe']}) reached only "
            f"{best['speedup']:.1f}x over flat (need >= {cfg['assert_speedup']}x "
            f"at recall@{K} >= {cfg['assert_recall']})"
        )
    else:
        assert best["speedup"] > 0.2, (
            f"smoke sanity: IVF collapsed to {best['speedup']:.2f}x of flat"
        )
    return metrics


def test_ann_lookup(report_sink):
    run(smoke=False, report_sink=report_sink)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI smoke runs (recall bar still asserted)")
    args = parser.parse_args()
    run(smoke=args.smoke)


if __name__ == "__main__":
    main()
