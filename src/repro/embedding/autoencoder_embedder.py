"""Autoencoder-based embedder (reconstruction bottleneck)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.embedding.base import Embedder
from repro.models.autoencoder import DenseAutoencoder
from repro.utils.errors import NotFittedError
from repro.utils.rng import SeedLike


class AutoencoderEmbedder(Embedder):
    """Embeds samples with the bottleneck of a trained dense autoencoder.

    This is the embedding the paper used successfully for CookieBox data but
    found too pixel-sensitive for Bragg peaks (see the BYOL embedder for the
    fix).
    """

    def __init__(
        self,
        embedding_dim: int = 16,
        hidden: int = 128,
        epochs: int = 20,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed: SeedLike = 0,
    ):
        super().__init__(embedding_dim)
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.seed = seed
        self._model: Optional[DenseAutoencoder] = None

    def fit(self, x: np.ndarray, **kwargs) -> "AutoencoderEmbedder":
        flat = self.flatten(x)
        self._model = DenseAutoencoder(
            flat.shape[1], latent_dim=self.embedding_dim, hidden=self.hidden, seed=self.seed
        )
        self._model.fit(
            flat, epochs=self.epochs, batch_size=self.batch_size, lr=self.lr, seed=self.seed
        )
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._model is None:
            raise NotFittedError("AutoencoderEmbedder.transform() called before fit()")
        return self._model.encode(self.flatten(x))
