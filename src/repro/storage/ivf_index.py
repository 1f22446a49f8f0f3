"""IVF (inverted-file) approximate nearest-neighbour index.

The flat index scans every stored vector per query; the clustered index needs
cluster assignments handed to it by the caller.  :class:`IVFVectorIndex`
closes the gap for *self-contained sublinear lookup*: it fits its own coarse
quantizer (any registry ``"clustering"`` algorithm, k-means by default) over
the stored vectors, partitions them into inverted lists — one contiguous
per-partition float32 matrix, exactly like :class:`ClusteredVectorIndex` —
and answers a query by scanning only the lists of its ``n_probe`` nearest
centroids.

Lifecycle:

* **Cold start** — below ``train_threshold`` vectors there is nothing worth
  partitioning; adds and queries fall through to an internal exact
  :class:`~repro.storage.vector_index.VectorIndex`, so a small index is
  always exact and composes with any caller that expects the plain
  ``add(keys, vectors)`` / ``query_batch`` surface.
* **Training** — the add that crosses the threshold fits the coarse
  quantizer on a bounded subsample (``train_size``), assigns every stored
  vector to its nearest centroid in bounded-memory chunks, and publishes the
  partitioned state atomically; concurrent readers see either the old flat
  index or the fully built partitions, never a half-built hybrid.
* **Steady state** — adds route straight into partitions; queries are
  batch-routed by :func:`~repro.storage.vector_index.partitioned_topk` (each
  touched partition scanned once with the sub-batch of queries probing it).

``n_probe`` is a **live knob**: :meth:`set_n_probe` is a single atomic
attribute publication read once per query batch, so a serving runtime can
trade recall for latency under load without a restart or a rebuild.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.observability.metrics import default_registry
from repro.storage.vector_index import (
    QueryResult,
    VectorIndex,
    as_queries,
    partitioned_topk,
    routed_upsert,
)
from repro.utils.errors import ConfigurationError, ValidationError
from repro.utils.rng import SeedLike, default_rng, derive_seed
from repro.utils.stats import pairwise_squared_distances

#: Rows per chunk of the (rows x centroids) assignment distance matrix, the
#: largest transient of training; bounds it to ~64 MB at 1024 partitions.
_ASSIGN_CHUNK_CELLS = 8_000_000

#: Hard cap on the resolved partition count (``n_partitions="auto"``).
_MAX_AUTO_PARTITIONS = 4096


class _IVFState:
    """The trained, atomically published routing state."""

    __slots__ = ("centers", "partitions")

    def __init__(self, centers: np.ndarray, partitions: List[VectorIndex]):
        self.centers = centers
        self.partitions = partitions


class IVFVectorIndex:
    """Self-training inverted-file ANN index with a live ``n_probe`` knob.

    Parameters
    ----------
    dim:
        Dimensionality of the stored vectors.
    n_partitions:
        Inverted-list count, or ``"auto"`` for ``round(sqrt(n))`` at training
        time (clamped to ``[1, 4096]`` and the store size).
    n_probe:
        How many nearest partitions each query scans.  Higher is slower and
        more accurate; change it any time with :meth:`set_n_probe`.
    dtype:
        Storage dtype of the partition matrices (float32 by default).
    train_threshold:
        Store size at which the quantizer is fitted; below it the index is an
        exact flat scan.
    train_size:
        Quantizer training subsample cap — training cost stays bounded no
        matter how large the triggering add is.
    clustering_algorithm / quantizer_params:
        Registry name (kind ``"clustering"``) and extra constructor kwargs of
        the coarse quantizer.  Speed-oriented defaults (``n_init=1``, a small
        ``max_iter``) are *offered* and only applied when the factory's
        signature accepts them; ``quantizer_params`` always wins.
    seed:
        Seed for subsampling and quantizer fitting.
    cache_query_matrix:
        Forwarded to the per-partition :class:`VectorIndex` storage.
    """

    def __init__(
        self,
        dim: int,
        n_partitions: Union[int, str] = "auto",
        n_probe: int = 8,
        dtype=np.float32,
        train_threshold: int = 4096,
        train_size: int = 32768,
        clustering_algorithm: str = "kmeans",
        quantizer_params: Optional[Dict[str, Any]] = None,
        seed: SeedLike = 0,
        cache_query_matrix: bool = True,
    ):
        if dim < 1:
            raise ValidationError("dim must be >= 1")
        if isinstance(n_partitions, str):
            if n_partitions != "auto":
                raise ConfigurationError("n_partitions must be an integer >= 1 or 'auto'")
        elif not isinstance(n_partitions, (int, np.integer)) or isinstance(n_partitions, bool) \
                or n_partitions < 1:
            raise ConfigurationError("n_partitions must be an integer >= 1 or 'auto'")
        if train_threshold < 2:
            raise ConfigurationError("train_threshold must be >= 2")
        if train_size < 2:
            raise ConfigurationError("train_size must be >= 2")
        from repro.api.registry import is_registered

        if not is_registered("clustering", clustering_algorithm):
            raise ConfigurationError(
                f"unknown clustering algorithm {clustering_algorithm!r}; "
                "register it under kind 'clustering' first"
            )
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        self.n_partitions = n_partitions if n_partitions == "auto" else int(n_partitions)
        self.train_threshold = int(train_threshold)
        self.train_size = int(train_size)
        self.clustering_algorithm = clustering_algorithm
        self.quantizer_params = dict(quantizer_params or {})
        self.seed = seed
        self.cache_query_matrix = bool(cache_query_matrix)
        self.set_n_probe(n_probe)
        self._lock = threading.RLock()
        self._flat: Optional[VectorIndex] = VectorIndex(
            self.dim, dtype=self.dtype, cache_query_matrix=self.cache_query_matrix
        )
        self._state: Optional[_IVFState] = None
        # key -> partition id, maintained in trained mode only (the flat
        # fallback keeps its own key->row map); drives last-write-wins
        # upserts, including cross-partition moves when an updated vector
        # re-routes to a different inverted list.
        self._key_partition: Dict[str, int] = {}
        self._stats_lock = threading.Lock()
        self._stats = {
            "queries": 0,
            "batches": 0,
            "partitions_probed": 0,
            "candidates_scanned": 0,
            "flat_queries": 0,
        }
        # Cumulative scan effort also lands in the process-global metrics
        # registry (get-or-create: every IVF instance shares the series), so
        # a Prometheus scrape sees index load next to serving load.
        registry = default_registry()
        self._m_scans = registry.counter(
            "repro_index_scans_total", "ANN index queries answered"
        )
        self._m_partitions = registry.counter(
            "repro_index_partitions_probed_total",
            "Inverted lists scanned across all ANN queries",
        )
        self._m_candidates = registry.counter(
            "repro_index_candidates_scanned_total",
            "Candidate vectors distance-checked across all ANN queries",
        )

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        state = self._state
        if state is not None:
            return sum(len(p) for p in state.partitions)
        flat = self._flat
        return len(flat) if flat is not None else 0

    def __contains__(self, key: object) -> bool:
        if self._state is not None:
            return key in self._key_partition
        flat = self._flat
        return flat is not None and key in flat

    @property
    def is_trained(self) -> bool:
        """Whether the coarse quantizer has been fitted (partitioned mode)."""
        return self._state is not None

    @property
    def n_probe(self) -> int:
        return self._n_probe

    @n_probe.setter
    def n_probe(self, value: int) -> None:
        self.set_n_probe(value)

    def set_n_probe(self, n_probe: int) -> int:
        """Atomically change how many partitions each query scans.

        A single reference publication: in-flight query batches finish with
        the value they snapshotted, later batches see the new one.  Returns
        the value now in effect.
        """
        if not isinstance(n_probe, (int, np.integer)) or isinstance(n_probe, bool) \
                or n_probe < 1:
            raise ValidationError("n_probe must be an integer >= 1")
        self._n_probe = int(n_probe)
        return self._n_probe

    def scan_stats(self) -> Dict[str, int]:
        """Cumulative scan-effort counters (all plain ints).

        ``partitions_probed`` and ``candidates_scanned`` divide by ``queries``
        to give the per-query scan effort — the signal an autoscaler (or a
        human tuning ``n_probe``) watches; ``flat_queries`` counts queries
        answered by the pre-training exact fallback.
        """
        with self._stats_lock:
            stats = dict(self._stats)
        state = self._state
        stats["n_probe"] = self._n_probe
        stats["n_partitions"] = len(state.partitions) if state is not None else 0
        stats["size"] = len(self)
        stats["trained"] = int(state is not None)
        return stats

    def _record_scan(self, queries: int, partitions: int, candidates: int,
                     flat: int = 0) -> None:
        with self._stats_lock:
            self._stats["queries"] += queries
            self._stats["batches"] += 1
            self._stats["partitions_probed"] += partitions
            self._stats["candidates_scanned"] += candidates
            self._stats["flat_queries"] += flat
        self._m_scans.inc(queries)
        self._m_partitions.inc(partitions)
        self._m_candidates.inc(candidates)

    # -- writes ------------------------------------------------------------------
    def add(self, keys: Sequence[str], vectors: np.ndarray) -> None:
        """Add vectors; trains the quantizer when the store crosses
        ``train_threshold`` (the paid-once cost of the add that crosses it).

        Duplicate keys follow the same **last-write-wins** semantics as the
        flat :class:`VectorIndex`: a stored key is overwritten (evicted from
        its old inverted list and re-routed by its new vector — upserts may
        move a key between partitions), and within one call only the final
        occurrence of a repeated key is kept.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dim:
            raise ValidationError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if len(keys) != vectors.shape[0]:
            raise ValidationError("keys and vectors must have the same length")
        with self._lock:
            if self._state is None:
                assert self._flat is not None
                self._flat.add(keys, vectors)
                if len(self._flat) >= self.train_threshold:
                    self._train_locked()
            else:
                self._route_add(self._state, keys, vectors)

    def train(self) -> bool:
        """Fit the quantizer now, regardless of ``train_threshold``.

        Returns True if training ran; False when already trained or the
        store is too small to partition (fewer than 2 vectors).
        """
        with self._lock:
            if self._state is not None:
                return False
            assert self._flat is not None
            if len(self._flat) < 2:
                return False
            self._train_locked()
            return True

    def _resolve_partitions(self, n: int) -> int:
        if self.n_partitions == "auto":
            p = int(round(np.sqrt(n)))
            p = min(p, _MAX_AUTO_PARTITIONS)
        else:
            p = int(self.n_partitions)
        return max(1, min(p, n))

    def _make_quantizer(self, n_clusters: int):
        from repro.api.registry import component_factory, filter_supported_kwargs

        factory = component_factory("clustering", self.clustering_algorithm)
        # A coarse quantizer needs speed, not convergence: offer cheap
        # settings, applied only when the factory's signature takes them,
        # with user params overriding everything.
        offered = filter_supported_kwargs(factory, {
            "seed": derive_seed(self.seed, 9001),
            "n_init": 1,
            "max_iter": 16,
            "tol": 1e-3,
        })
        return factory(**{"n_clusters": n_clusters, **offered, **self.quantizer_params})

    def _assign(self, centers: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid ids for ``vectors``, chunked so the distance
        matrix transient stays bounded at any store size."""
        n = vectors.shape[0]
        chunk = max(1, _ASSIGN_CHUNK_CELLS // max(1, centers.shape[0]))
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            d2 = pairwise_squared_distances(vectors[start:stop], centers)
            out[start:stop] = np.argmin(d2, axis=1)
        return out

    def _train_locked(self) -> None:
        assert self._flat is not None and self._state is None
        flat = self._flat
        n = len(flat)
        vectors = np.asarray(flat.vectors, dtype=np.float64)
        keys = np.asarray(flat.keys, dtype=object)
        p = self._resolve_partitions(n)

        rng = default_rng(derive_seed(self.seed, 9002))
        n_train = min(self.train_size, n)
        train_rows = (rng.choice(n, size=n_train, replace=False)
                      if n_train < n else np.arange(n))
        quantizer = self._make_quantizer(min(p, n_train))
        quantizer.fit(vectors[train_rows])
        centers = np.atleast_2d(np.asarray(quantizer.cluster_centers_, dtype=np.float64))

        partitions = [
            VectorIndex(self.dim, dtype=self.dtype, cache_query_matrix=self.cache_query_matrix)
            for _ in range(centers.shape[0])
        ]
        state = _IVFState(centers, partitions)
        self._route_add(state, keys, vectors)
        # Publish fully built state first; only then retire the flat index,
        # so a concurrent reader always holds one complete view.
        self._state = state
        self._flat = None

    def _route_add(self, state: _IVFState, keys: Sequence[str], vectors: np.ndarray) -> None:
        routed_upsert(self._key_partition, state.partitions, keys,
                      self._assign(state.centers, vectors), vectors)

    # -- reads -------------------------------------------------------------------
    def query_batch(self, vectors: np.ndarray, k: int = 1) -> List[QueryResult]:
        """Top-``k`` ``(key, distance)`` pairs per query row, scanning only
        each query's ``n_probe`` nearest inverted lists once trained.  An
        empty index raises :class:`StorageError`.
        """
        queries = as_queries(vectors, self.dim, k)
        state = self._state
        if state is None:
            flat = self._flat
            if flat is None:  # training published between the two reads
                state = self._state
                assert state is not None
            else:
                results = flat.query_batch(queries, k=k)
                b = queries.shape[0]
                self._record_scan(b, partitions=b, candidates=b * len(flat), flat=b)
                return results
        # A trained index is never empty: training needs two vectors, and
        # the only removal is the eviction half of an upsert.
        n_probe = self._n_probe  # one snapshot: the live-knob read point

        center_d2 = pairwise_squared_distances(queries, state.centers)
        results, probed, scanned = partitioned_topk(
            queries, np.argsort(center_d2, axis=1, kind="stable"), state.partitions, n_probe, k)
        self._record_scan(queries.shape[0], partitions=probed, candidates=scanned)
        return results

    query = VectorIndex.query
