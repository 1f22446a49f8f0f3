"""Hyper-parameter tuning for embedding models.

The paper notes that the fairDS Training-Embedding module "supports tuning of
hyper-parameters such as batch size and learning rate associated with an
embedding module".  This module provides that capability: a small grid search
that scores each candidate embedder by how well its embedding space separates
the data into clusters (mean silhouette after k-means), which is exactly the
property downstream pseudo-labeling and model indexing depend on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.clustering.kmeans import KMeans
from repro.clustering.metrics import silhouette_score
from repro.embedding.base import Embedder
from repro.utils.errors import ConfigurationError, ValidationError
from repro.utils.rng import SeedLike, default_rng


@dataclass
class TuningResult:
    """Outcome of one hyper-parameter configuration."""

    params: Dict[str, Any]
    score: float
    embedder: Embedder


@dataclass
class TuningReport:
    """All configurations tried, sorted best first."""

    results: List[TuningResult] = field(default_factory=list)

    @property
    def best(self) -> TuningResult:
        if not self.results:
            raise ValidationError("no tuning results available")
        return self.results[0]

    def as_rows(self) -> List[tuple]:
        return [(r.params, r.score) for r in self.results]


def clustering_quality_score(
    embedder: Embedder,
    x: np.ndarray,
    n_clusters: int = 8,
    max_samples: int = 512,
    seed: SeedLike = 0,
) -> float:
    """Score an embedder by the silhouette of k-means clusters in its space.

    A subsample of at most ``max_samples`` points keeps the O(n^2) silhouette
    computation cheap.
    """
    if n_clusters < 2:
        raise ConfigurationError("n_clusters must be >= 2 for a silhouette score")
    z = np.asarray(embedder.transform(x), dtype=np.float64)
    if z.shape[0] > max_samples:
        idx = default_rng(seed).choice(z.shape[0], size=max_samples, replace=False)
        z = z[idx]
    if z.shape[0] <= n_clusters:
        raise ValidationError("not enough samples to score the embedding")
    km = KMeans(n_clusters=n_clusters, n_init=2, seed=seed).fit(z)
    labels = km.labels_
    if np.unique(labels).size < 2:
        return -1.0
    return silhouette_score(z, labels)


def grid_search_embedder(
    name: str,
    x: np.ndarray,
    param_grid: Mapping[str, Sequence[Any]],
    fixed_params: Optional[Mapping[str, Any]] = None,
    n_clusters: int = 8,
    scorer: Optional[Callable[[Embedder, np.ndarray], float]] = None,
    seed: SeedLike = 0,
) -> TuningReport:
    """Fit the embedder named ``name`` for every grid combination and rank them.

    Parameters
    ----------
    name:
        Registry name of the embedder (``"autoencoder"``, ``"byol"``, ...).
    x:
        Training data for the embedder.
    param_grid:
        Mapping of constructor keyword -> list of candidate values, e.g.
        ``{"lr": [1e-3, 3e-3], "batch_size": [32, 64]}``.
    fixed_params:
        Constructor keywords shared by every candidate.
    n_clusters:
        Number of clusters used by the default scoring function.
    scorer:
        Custom callable ``(embedder, x) -> float`` (higher is better);
        defaults to :func:`clustering_quality_score`.
    """
    if not param_grid:
        raise ConfigurationError("param_grid must contain at least one parameter")
    for key, values in param_grid.items():
        if not values:
            raise ConfigurationError(f"param_grid entry {key!r} has no candidate values")
    # Lazy: the registry's built-in table imports this package, not the reverse.
    from repro.api.registry import create_component

    fixed = dict(fixed_params or {})
    scorer = scorer or (lambda emb, data: clustering_quality_score(emb, data, n_clusters=n_clusters, seed=seed))

    keys = sorted(param_grid)
    results: List[TuningResult] = []
    for combo in itertools.product(*(param_grid[k] for k in keys)):
        params = dict(zip(keys, combo))
        embedder = create_component("embedder", name, **fixed, **params)
        embedder.fit(x)
        score = float(scorer(embedder, x))
        results.append(TuningResult(params=params, score=score, embedder=embedder))
    results.sort(key=lambda r: r.score, reverse=True)
    return TuningReport(results=results)
