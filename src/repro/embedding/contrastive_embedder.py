"""Contrastive (SimCLR-style) embedder."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.dataio.transforms import bragg_augmentation
from repro.embedding.base import Embedder
from repro.models.contrastive import SimCLREncoder
from repro.utils.errors import NotFittedError
from repro.utils.rng import SeedLike


class ContrastiveEmbedder(Embedder):
    """Embeds samples with an encoder trained by the NT-Xent contrastive loss."""

    def __init__(
        self,
        embedding_dim: int = 16,
        hidden: int = 64,
        epochs: int = 15,
        batch_size: int = 64,
        lr: float = 1e-3,
        temperature: float = 0.5,
        augment: Optional[Callable] = None,
        seed: SeedLike = 0,
    ):
        super().__init__(embedding_dim)
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.temperature = float(temperature)
        self.augment = augment or bragg_augmentation
        self.seed = seed
        self._model: Optional[SimCLREncoder] = None

    def fit(self, x: np.ndarray, **kwargs) -> "ContrastiveEmbedder":
        flat = self.flatten(x)
        self._model = SimCLREncoder(
            flat.shape[1],
            embedding_dim=self.embedding_dim,
            hidden=self.hidden,
            temperature=self.temperature,
            seed=self.seed,
        )
        self._model.fit(
            flat, self.augment, epochs=self.epochs, batch_size=self.batch_size,
            lr=self.lr, seed=self.seed,
        )
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._model is None:
            raise NotFittedError("ContrastiveEmbedder.transform() called before fit()")
        return self._model.encode(self.flatten(x))
