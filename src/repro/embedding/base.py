"""Embedder interface."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import ensure_float
from repro.utils.errors import ConfigurationError


class Embedder:
    """Maps raw samples (images, flattened or not) to compact embedding vectors.

    Sub-classes implement :meth:`fit` and :meth:`transform`; ``fit_transform``
    and input flattening are provided here.  The fairDS system plane retrains
    the embedder whenever the uncertainty trigger fires, so ``fit`` must be
    callable repeatedly.
    """

    #: Whether fairDS memoises :meth:`transform` per sample, by content digest:
    #: False where it costs less than the digest or is not a pure function.
    memoize = True

    def __init__(self, embedding_dim: int = 16):
        if embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")
        self.embedding_dim = int(embedding_dim)

    # -- protocol ---------------------------------------------------------------
    def fit(self, x: np.ndarray, **kwargs) -> "Embedder":
        raise NotImplementedError

    def transform(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit_transform(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.fit(x, **kwargs).transform(x)

    # -- helpers ------------------------------------------------------------------
    @staticmethod
    def flatten(x: np.ndarray) -> np.ndarray:
        """Flatten per-sample dimensions: ``(n, ...) -> (n, features)``.

        Float inputs keep their dtype (no full-array cast copy); integer
        inputs are cast to the nn compute dtype.
        """
        x = ensure_float(x)
        if x.ndim == 1:
            return x.reshape(1, -1)
        return x.reshape(x.shape[0], -1)
