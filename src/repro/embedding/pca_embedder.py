"""PCA embedder — a fast linear baseline.

Not in the paper's embedding list, but invaluable for tests and CI: it gives a
deterministic, training-free embedding that still separates the synthetic
datasets' drift phases, so the full fairDS/fairMS pipeline can be exercised in
seconds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.embedding.base import Embedder
from repro.utils.errors import NotFittedError, ValidationError


class PCAEmbedder(Embedder):
    """Projects samples onto the top ``embedding_dim`` principal components."""

    memoize = False  # a projection is cheaper than hashing its input

    def __init__(self, embedding_dim: int = 16, whiten: bool = False):
        super().__init__(embedding_dim)
        self.whiten = bool(whiten)
        self._mean: Optional[np.ndarray] = None
        self._components: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, **kwargs) -> "PCAEmbedder":
        flat = self.flatten(x)
        n, d = flat.shape
        if n < 2:
            raise ValidationError("PCA requires at least 2 samples")
        k = min(self.embedding_dim, d, n)
        self._mean = flat.mean(axis=0)
        centered = flat - self._mean
        if n >= d:
            # The right singular vectors are the eigenvectors of the d x d
            # Gram matrix and the squared singular values its eigenvalues
            # (``eigh`` returns them ascending): no n x d ``U`` is ever built.
            eigenvalues, eigenvectors = np.linalg.eigh(centered.T @ centered)
            squared = np.maximum(eigenvalues[::-1], 0.0)
            self._components = np.ascontiguousarray(eigenvectors[:, ::-1][:, :k].T)
        else:
            # Fewer samples than features: the economy SVD is the smaller problem.
            _, s, vt = np.linalg.svd(centered, full_matrices=False)
            squared = s**2
            self._components = vt[:k]
        variances = squared / max(n - 1, 1)
        total = variances.sum()
        self.explained_variance_ratio_ = variances[:k] / total if total > 0 else np.zeros(k)
        self._scale = np.sqrt(variances[:k]) + 1e-12 if self.whiten else None
        # If the requested dimension exceeds what the data supports, pad with zeros.
        self._pad = self.embedding_dim - k
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._components is None or self._mean is None:
            raise NotFittedError("PCAEmbedder.transform() called before fit()")
        flat = self.flatten(x)
        if flat.shape[1] != self._mean.shape[0]:
            raise ValidationError(
                f"expected {self._mean.shape[0]} features, got {flat.shape[1]}"
            )
        z = (flat - self._mean) @ self._components.T
        if self._scale is not None:
            z = z / self._scale
        if self._pad > 0:
            z = np.hstack([z, np.zeros((z.shape[0], self._pad))])
        return z
