"""Embedding service: pluggable self-supervised representation learners.

fairDS transforms bulky image data into compact, semantically meaningful
embedding vectors before clustering and lookup.  The paper ships several
built-in embedding methods (autoencoder, contrastive learning, BYOL) behind a
common interface and lets the user plug in their own; this package mirrors
that design:

* :class:`~repro.embedding.base.Embedder` — the interface (``fit`` /
  ``transform`` / ``embedding_dim``), extendable by users.
* :class:`~repro.embedding.autoencoder_embedder.AutoencoderEmbedder`
* :class:`~repro.embedding.contrastive_embedder.ContrastiveEmbedder`
* :class:`~repro.embedding.byol_embedder.BYOLEmbedder`
* :class:`~repro.embedding.pca_embedder.PCAEmbedder` — a cheap linear
  baseline useful for tests and quick experiments.

Embedders are constructed by name through the package-wide component registry
(``create_component("embedder", "pca", embedding_dim=8)``); a user embedder
joins with ``@register_component("embedder", "my-name")`` — see
:mod:`repro.api.registry`.  This package never imports the registry itself.
"""

from repro.embedding.base import Embedder
from repro.embedding.autoencoder_embedder import AutoencoderEmbedder
from repro.embedding.contrastive_embedder import ContrastiveEmbedder
from repro.embedding.byol_embedder import BYOLEmbedder
from repro.embedding.pca_embedder import PCAEmbedder
from repro.embedding.tuning import (
    TuningReport,
    TuningResult,
    clustering_quality_score,
    grid_search_embedder,
)

__all__ = [
    "TuningReport",
    "TuningResult",
    "clustering_quality_score",
    "grid_search_embedder",
    "Embedder",
    "AutoencoderEmbedder",
    "ContrastiveEmbedder",
    "BYOLEmbedder",
    "PCAEmbedder",
]
