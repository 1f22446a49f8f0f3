"""fairMS — the FAIR model service.

Given a new dataset's cluster distribution (computed by fairDS), the Model
Manager ranks every model in the Zoo by the Jensen-Shannon divergence between
the new distribution and the distribution of the model's training dataset, and
recommends the closest one as the foundation model for fine-tuning.  A
user-defined distance threshold decides when nothing in the Zoo is close
enough and a model must instead be trained from scratch (paper Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.distribution import DatasetDistribution
from repro.core.model_zoo import ModelRecord, ModelZoo
from repro.nn.network import Sequential
from repro.utils.errors import ConfigurationError, ValidationError


@dataclass
class Recommendation:
    """A ranked Zoo model."""

    record: ModelRecord
    distance: float
    rank: int

    @property
    def model_id(self) -> str:
        return self.record.model_id


class FairMS:
    """The FAIR model service (Model Manager + Zoo access).

    Parameters
    ----------
    zoo:
        The :class:`~repro.core.model_zoo.ModelZoo` holding candidate models.
    distance_threshold:
        Maximum acceptable JSD between the input dataset and a Zoo model's
        training dataset; above it :meth:`should_train_from_scratch` returns
        True.
    """

    def __init__(self, zoo: ModelZoo, distance_threshold: float = 0.5):
        if not 0.0 < distance_threshold <= 1.0:
            raise ConfigurationError("distance_threshold must be in (0, 1]")
        self.zoo = zoo
        self.distance_threshold = float(distance_threshold)

    # -- ranking --------------------------------------------------------------------
    def rank(self, distribution: DatasetDistribution) -> List[Recommendation]:
        """All Zoo models sorted by ascending JSD to ``distribution``."""
        records = self.zoo.records()
        if not records:
            raise ValidationError("the model Zoo is empty")
        scored = sorted(
            ((distribution.distance(rec.distribution), rec) for rec in records),
            key=lambda pair: pair[0],  # stable: equal distances keep Zoo order
        )
        return [
            Recommendation(record=rec, distance=distance, rank=i)
            for i, (distance, rec) in enumerate(scored)
        ]

    def recommend(self, distribution: DatasetDistribution) -> Recommendation:
        """The best (smallest-distance) Zoo model for ``distribution``."""
        return self.rank(distribution)[0]

    def recommend_best_median_worst(
        self, distribution: DatasetDistribution
    ) -> List[Recommendation]:
        """The best, median and worst ranked models (the Fig. 13/14 comparison set)."""
        ranking = self.rank(distribution)
        return [ranking[0], ranking[len(ranking) // 2], ranking[-1]]

    def should_train_from_scratch(self, distribution: DatasetDistribution) -> bool:
        """True when no Zoo model's training data is within the distance threshold."""
        if len(self.zoo) == 0:
            return True
        return self.recommend(distribution).distance > self.distance_threshold

    # -- retrieval -------------------------------------------------------------------
    def load(self, recommendation: Recommendation) -> Sequential:
        """Load the recommended model ready for fine-tuning."""
        return self.zoo.load_model(recommendation.model_id)

    def register(
        self,
        model: Sequential,
        distribution: DatasetDistribution,
        metrics: Optional[dict] = None,
        **metadata,
    ) -> ModelRecord:
        """Add a newly trained/fine-tuned model to the Zoo (paper: the Zoo
        "can respond with this model in the future if presented with a similar
        data distribution")."""
        return self.zoo.add(model, distribution, metrics=metrics, **metadata)
