"""K-means clustering with k-means++ initialisation."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.errors import NotFittedError, ValidationError
from repro.utils.rng import SeedLike, default_rng
from repro.utils.stats import pairwise_squared_distances


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``K``.
    max_iter:
        Maximum Lloyd iterations.
    tol:
        Convergence threshold on the change of total within-cluster sum of
        squares between iterations.
    n_init:
        Number of independent restarts; the best (lowest inertia) is kept.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        n_clusters: int = 8,
        max_iter: int = 100,
        tol: float = 1e-6,
        n_init: int = 3,
        seed: SeedLike = 0,
    ):
        if n_clusters < 1:
            raise ValidationError("n_clusters must be >= 1")
        if max_iter < 1 or n_init < 1:
            raise ValidationError("max_iter and n_init must be >= 1")
        if tol < 0:
            raise ValidationError("tol must be non-negative")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.n_init = int(n_init)
        self.seed = seed
        self.cluster_centers_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        self.n_iter_: int = 0

    # -- initialisation --------------------------------------------------------
    @staticmethod
    def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        n = x.shape[0]
        centers = np.empty((k, x.shape[1]), dtype=np.float64)
        centers[0] = x[rng.integers(0, n)]
        closest_d2 = pairwise_squared_distances(x, centers[:1])[:, 0]
        for i in range(1, k):
            total = closest_d2.sum()
            if total <= 0:
                centers[i] = x[rng.integers(0, n)]
            else:
                probs = closest_d2 / total
                centers[i] = x[rng.choice(n, p=probs)]
            d2_new = pairwise_squared_distances(x, centers[i : i + 1])[:, 0]
            np.minimum(closest_d2, d2_new, out=closest_d2)
        return centers

    @staticmethod
    def _assign(xt: np.ndarray, x_sq: np.ndarray, centers: np.ndarray):
        """Nearest centre of every sample, and the squared distance to it.

        ``xt`` is the feature-major ``(d, n)`` copy of the data and ``x_sq``
        its per-sample squared norms.  ``‖x‖²`` is the same for every centre,
        so the nearest one minimises ``‖c‖² − 2c·x``: a ``(K, n)`` matrix
        whose rows are contiguous, reduced over its K rows.  ``argmin`` along
        that axis would transpose it back and run once per sample; instead the
        rows that attain the minimum are ranked so that the first one — the
        centre ``argmin`` picks on a tie — has the highest rank.
        """
        k = centers.shape[0]
        partial = (-2.0 * centers) @ xt
        partial += np.einsum("kj,kj->k", centers, centers)[:, None]
        nearest_d2 = partial.min(axis=0)
        rank = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k))[:, None]
        labels = (k - 1) - ((partial == nearest_d2) * rank).max(axis=0).astype(np.intp)
        nearest_d2 += x_sq
        np.maximum(nearest_d2, 0.0, out=nearest_d2)
        return labels, nearest_d2

    def _lloyd(self, x: np.ndarray, xt: np.ndarray, x_sq: np.ndarray, centers: np.ndarray):
        """Lloyd's iterations from ``centers`` (updated in place) to convergence."""
        prev_inertia = np.inf
        n_iter = self.max_iter
        for iteration in range(1, self.max_iter + 1):
            labels, nearest_d2 = self._assign(xt, x_sq, centers)
            inertia = float(nearest_d2.sum())
            # Update step: per-cluster sums of every feature column, accumulated
            # in sample order like the mean over a cluster's rows.
            counts = np.bincount(labels, minlength=self.n_clusters)
            for j, column in enumerate(xt):
                centers[:, j] = np.bincount(labels, weights=column, minlength=self.n_clusters)
            centers /= np.maximum(counts, 1)[:, None]
            if not counts.all():
                # Re-seed empty clusters at the point farthest from its centre.
                centers[counts == 0] = x[np.argmax(nearest_d2)]
            if abs(prev_inertia - inertia) <= self.tol:
                n_iter = iteration
                break
            prev_inertia = inertia
        # The centres moved after the last assignment; ``labels_`` and
        # ``inertia_`` describe the centres returned, as ``predict`` does.
        labels, nearest_d2 = self._assign(xt, x_sq, centers)
        return centers, labels, float(nearest_d2.sum()), n_iter

    # -- public API ---------------------------------------------------------------
    def fit(self, x: np.ndarray, init: Optional[np.ndarray] = None) -> "KMeans":
        """Cluster ``x``: the best of ``n_init`` k-means++ starts — or, given
        ``init`` (``n_clusters`` centres, e.g. from an earlier fit of much the
        same data), the one Lloyd run from them: no seeding, no restarts, and
        cluster ``i`` is the cluster that grew from ``init[i]``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValidationError("expected 2-D input (n_samples, n_features)")
        if x.shape[0] < self.n_clusters:
            raise ValidationError(
                f"need at least n_clusters={self.n_clusters} samples, got {x.shape[0]}"
            )
        if init is None:
            rng = default_rng(self.seed)
            starts = (self._kmeanspp_init(x, self.n_clusters, rng) for _ in range(self.n_init))
        else:
            init = np.array(init, dtype=np.float64)  # a copy: Lloyd moves it
            if init.shape != (self.n_clusters, x.shape[1]):
                raise ValidationError(
                    f"init must have shape {(self.n_clusters, x.shape[1])}, got {init.shape}"
                )
            starts = (init,)
        # Every Lloyd iteration of every start reads these two.
        xt = np.ascontiguousarray(x.T)
        x_sq = np.einsum("jn,jn->n", xt, xt)
        best = None
        for centers in starts:
            run = self._lloyd(x, xt, x_sq, centers)
            if best is None or run[2] < best[2]:
                best = run
        assert best is not None
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Assign each sample to its nearest cluster centre."""
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans.predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.cluster_centers_.shape[1]:
            raise ValidationError(
                f"expected {self.cluster_centers_.shape[1]} features, got {x.shape[1]}"
            )
        return np.argmin(pairwise_squared_distances(x, self.cluster_centers_), axis=1)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Distances from each sample to every cluster centre."""
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans.transform() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.sqrt(pairwise_squared_distances(x, self.cluster_centers_))

    def cluster_pdf(self, x: np.ndarray) -> np.ndarray:
        """Cluster probability distribution of a dataset (fraction per cluster).

        This is the dataset fingerprint fairDS computes for an input dataset
        and fairMS stores for every model's training dataset.
        """
        labels = self.predict(x)
        counts = np.bincount(labels, minlength=self.n_clusters).astype(np.float64)
        return counts / counts.sum()
