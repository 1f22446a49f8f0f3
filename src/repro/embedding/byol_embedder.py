"""BYOL embedder — the method the paper adopted for Bragg peaks."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.dataio.transforms import bragg_augmentation
from repro.embedding.base import Embedder
from repro.models.byol import BYOLLearner
from repro.utils.errors import NotFittedError
from repro.utils.rng import SeedLike


class BYOLEmbedder(Embedder):
    """Embeds samples with a BYOL online encoder.

    Trained with physics-inspired augmentations (rotations, flips, detector
    noise) so that physically equivalent peaks — e.g. a peak and its rotation
    — map to nearby embeddings.
    """

    def __init__(
        self,
        embedding_dim: int = 16,
        hidden: int = 64,
        epochs: int = 15,
        batch_size: int = 64,
        lr: float = 1e-3,
        ema_decay: float = 0.99,
        augment: Optional[Callable] = None,
        seed: SeedLike = 0,
    ):
        super().__init__(embedding_dim)
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.ema_decay = float(ema_decay)
        self.augment = augment or bragg_augmentation
        self.seed = seed
        self._model: Optional[BYOLLearner] = None

    def fit(self, x: np.ndarray, **kwargs) -> "BYOLEmbedder":
        flat = self.flatten(x)
        self._model = BYOLLearner(
            flat.shape[1],
            embedding_dim=self.embedding_dim,
            hidden=self.hidden,
            ema_decay=self.ema_decay,
            seed=self.seed,
        )
        self._model.fit(
            flat, self.augment, epochs=self.epochs, batch_size=self.batch_size,
            lr=self.lr, seed=self.seed,
        )
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._model is None:
            raise NotFittedError("BYOLEmbedder.transform() called before fit()")
        return self._model.encode(self.flatten(x))
