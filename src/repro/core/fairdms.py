"""fairDMS — the end-to-end rapid model-training workflow.

Combines fairDS and fairMS into the user-plane operation the paper evaluates
in Section III-G/H: when a model has degraded, update it for the new data as
fast as possible by

1. transferring the new (unlabeled) data to the compute facility,
2. checking fairDS cluster-assignment certainty and, if it has dropped below
   the configured threshold, refreshing the system plane (retrain embedding +
   clustering, update the store and model index),
3. pseudo-labeling the new data with fairDS instead of running the expensive
   physics-based labeling code,
4. asking fairMS for the closest Zoo model and fine-tuning it (or training
   from scratch when nothing in the Zoo is within the distance threshold),
5. registering the updated model (and its training-data distribution) back
   into the Zoo, and
6. transferring the model back to the user.

Every step is timed so the label/train/end-to-end breakdown of Fig. 15 can be
reported directly from the returned :class:`ModelUpdateReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distribution import DatasetDistribution
from repro.core.fairds import FairDS, LookupResult
from repro.core.fairms import FairMS, Recommendation
from repro.core.model_zoo import ModelRecord, ModelZoo
from repro.monitoring.triggers import CertaintyTrigger
from repro.nn.network import Sequential
from repro.nn.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.utils.errors import ConfigurationError, ValidationError
from repro.utils.rng import SeedLike
from repro.utils.timing import StopWatch
from repro.workflow.transfer import TransferService


@dataclass
class UpdatePolicy:
    """Knobs controlling a fairDMS model update."""

    #: JSD above which no Zoo model is considered a useful foundation.
    distance_threshold: float = 0.5
    #: Cluster-assignment certainty (percent) below which the system plane is refreshed.
    certainty_threshold: float = 80.0
    #: Learning-rate scale applied when fine-tuning relative to from-scratch training.
    fine_tune_lr_scale: float = 0.5
    #: Number of leading parameterised layers to freeze during fine-tuning.
    freeze_layers: int = 0
    #: Fraction of the pseudo-labeled data held out for validation during training.
    validation_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.distance_threshold <= 1.0:
            raise ConfigurationError("distance_threshold must be in (0, 1]")
        if not 0.0 < self.certainty_threshold <= 100.0:
            raise ConfigurationError("certainty_threshold must be in (0, 100]")
        if not 0.0 < self.fine_tune_lr_scale <= 1.0:
            raise ConfigurationError("fine_tune_lr_scale must be in (0, 1]")
        if self.freeze_layers < 0:
            raise ConfigurationError("freeze_layers must be non-negative")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in (0, 1)")


@dataclass
class TrainingOutcome:
    """Result of the recommend+train stage of a model update."""

    model: Sequential
    history: TrainingHistory
    strategy: str
    recommendation: Optional[Recommendation]


@dataclass
class ModelUpdateReport:
    """Everything the user gets back from :meth:`FairDMS.update_model`."""

    model: Sequential
    history: TrainingHistory
    strategy: str
    recommendation: Optional[Recommendation]
    input_distribution: DatasetDistribution
    lookup: LookupResult
    zoo_record: ModelRecord
    certainty: float
    triggered_refresh: bool
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def label_time(self) -> float:
        return self.timings.get("label", 0.0)

    @property
    def train_time(self) -> float:
        return self.timings.get("train", 0.0)

    @property
    def end_to_end_time(self) -> float:
        return float(sum(self.timings.values()))


class FairDMS:
    """End-to-end rapid model training service.

    Parameters
    ----------
    fairds:
        A fitted (or to-be-bootstrapped) :class:`FairDS` instance.
    fairms:
        The model service; created around a fresh Zoo when omitted.
    model_builder:
        Zero-argument callable returning a freshly initialised model of the
        application architecture (used for from-scratch training and for the
        initial bootstrap model).
    training_config:
        Default :class:`TrainingConfig` for from-scratch training; fine-tuning
        uses the same config with the policy's learning-rate scale.
    transfer:
        Optional :class:`TransferService` to account data/model movement.
    policy:
        :class:`UpdatePolicy` thresholds.
    """

    def __init__(
        self,
        fairds: FairDS,
        model_builder: Callable[[], Sequential],
        training_config: TrainingConfig,
        fairms: Optional[FairMS] = None,
        transfer: Optional[TransferService] = None,
        policy: Optional[UpdatePolicy] = None,
        seed: SeedLike = 0,
    ):
        self.fairds = fairds
        self.policy = policy or UpdatePolicy()
        self.fairms = fairms or FairMS(
            ModelZoo(db=fairds.db), distance_threshold=self.policy.distance_threshold
        )
        self.model_builder = model_builder
        self.training_config = training_config
        self.transfer = transfer
        self.seed = seed
        self.certainty_trigger = CertaintyTrigger(self.policy.certainty_threshold)

    # -- bootstrap -----------------------------------------------------------------------
    def bootstrap(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata=None,
        train_initial_model: bool = True,
    ) -> Optional[ModelRecord]:
        """Populate fairDS with historical labeled data and (optionally) train
        and register an initial model on it."""
        self.fairds.fit(images, labels, metadata=metadata)
        if not train_initial_model:
            return None
        model = self.model_builder()
        x_train, y_train, x_val, y_val = self._split(images, labels)
        Trainer(model).fit((x_train, y_train), val=(x_val, y_val), config=self.training_config)
        distribution = self.fairds.dataset_distribution(images, label="bootstrap")
        return self.fairms.register(model, distribution, origin="bootstrap")

    # -- helpers ----------------------------------------------------------------------------
    def _split(self, images: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = images.shape[0]
        if n < 4:
            raise ValidationError("need at least 4 samples to split train/validation")
        n_val = max(1, int(round(n * self.policy.validation_fraction)))
        return images[n_val:], labels[n_val:], images[:n_val], labels[:n_val]

    # -- batched pseudo-labeling ---------------------------------------------------------
    def pseudo_label_batch(
        self, datasets: "Sequence[np.ndarray]", label: str = "batch"
    ) -> "List[LookupResult]":
        """Pseudo-label several arriving datasets in one user-plane call.

        Equivalent to one ``FairDS.lookup(dataset, label=label)`` per dataset
        (results are identical, in order), but the historical store is
        scanned once and all payloads are fetched in a single round trip —
        the batched discipline the lookup engine provides end to end.
        """
        return self.fairds.lookup_batch(datasets, labels=[label] * len(datasets))

    def train_on_lookup(
        self, lookup: LookupResult, watch: Optional[StopWatch] = None
    ) -> TrainingOutcome:
        """Produce an updated model from an existing pseudo-label lookup.

        The recommend/fine-tune-or-scratch stage of :meth:`update_model`,
        exposed on its own so the continual-learning pipeline can run
        labeling and training as separate (checkpointed) steps of its chain.  When a
        ``watch`` is given, the ``recommend`` and ``train`` phases are timed
        into it.
        """
        watch = watch if watch is not None else StopWatch()
        x_train, y_train, x_val, y_val = self._split(lookup.images, lookup.labels)
        input_distribution = lookup.input_distribution
        recommendation: Optional[Recommendation] = None
        scratch = len(self.fairms.zoo) == 0 or self.fairms.should_train_from_scratch(input_distribution)
        if scratch:
            strategy = "scratch"
            model = self.model_builder()
            with watch.measure("train"):
                history = Trainer(model).fit(
                    (x_train, y_train), val=(x_val, y_val), config=self.training_config
                )
        else:
            strategy = "fine-tune"
            with watch.measure("recommend"):
                recommendation = self.fairms.recommend(input_distribution)
                model = self.fairms.load(recommendation)
            with watch.measure("train"):
                history = Trainer(model).fine_tune(
                    (x_train, y_train),
                    val=(x_val, y_val),
                    config=self.training_config,
                    freeze_layers=self.policy.freeze_layers,
                    lr_scale=self.policy.fine_tune_lr_scale,
                )
        return TrainingOutcome(
            model=model, history=history, strategy=strategy, recommendation=recommendation
        )

    # -- the headline operation ---------------------------------------------------------------
    def update_model(
        self,
        new_images: np.ndarray,
        label: str = "update",
        register: bool = True,
    ) -> ModelUpdateReport:
        """Produce an updated model for ``new_images`` (which arrive unlabeled)."""
        new_images = np.asarray(new_images, dtype=np.float64)
        if new_images.shape[0] < 4:
            raise ValidationError("need at least 4 new samples to update a model")
        watch = StopWatch()

        # 1. Transfer the new data to the compute facility.
        if self.transfer is not None:
            record = self.transfer.transfer_array(new_images, label=f"{label}:data")
            watch.add("transfer_data", record.simulated_seconds)

        # 2. System-plane health check: refresh when certainty drops.
        with watch.measure("certainty"):
            certainty = self.fairds.certainty(new_images)
        triggered = self.certainty_trigger.observe(certainty)
        if triggered:
            with watch.measure("system_refresh"):
                self.fairds.refresh()

        # 3. Pseudo-label via fairDS (reuse historical labels).
        with watch.measure("label"):
            lookup = self.fairds.lookup(new_images, label=label)
        input_distribution = lookup.input_distribution

        # 4. Model recommendation and training.
        outcome = self.train_on_lookup(lookup, watch=watch)
        model, history = outcome.model, outcome.history
        strategy, recommendation = outcome.strategy, outcome.recommendation

        # 5. Register the updated model in the Zoo.
        metrics = {"val_loss": history.best_val_loss, "epochs": float(history.epochs_run)}
        zoo_record = None
        if register:
            with watch.measure("register"):
                zoo_record = self.fairms.register(
                    model, input_distribution, metrics=metrics, origin=label, strategy=strategy
                )

        # 6. Transfer the model back to the user.
        if self.transfer is not None and zoo_record is not None:
            record = self.transfer.transfer_bytes(
                self.fairms.zoo.model_bytes(zoo_record.model_id), label=f"{label}:model"
            )
            watch.add("transfer_model", record.simulated_seconds)

        return ModelUpdateReport(
            model=model,
            history=history,
            strategy=strategy,
            recommendation=recommendation,
            input_distribution=input_distribution,
            lookup=lookup,
            zoo_record=zoo_record if zoo_record is not None else self._ephemeral_record(model, input_distribution, metrics),
            certainty=certainty,
            triggered_refresh=triggered,
            timings=watch.as_dict(),
        )

    @staticmethod
    def _ephemeral_record(model: Sequential, distribution: DatasetDistribution, metrics: Dict[str, float]) -> ModelRecord:
        return ModelRecord(model_id="<unregistered>", name=model.name, distribution=distribution, metrics=metrics)
