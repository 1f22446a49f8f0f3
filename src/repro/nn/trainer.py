"""Mini-batch training loops: fit from scratch, evaluate, and fine-tune.

The paper's key fairMS figure of merit is the number of epochs a fine-tuned
model needs to reach a target validation error compared with training from
randomly initialised parameters (Figs. 13 and 14).  :class:`Trainer` records
the per-epoch validation error so the benchmark harness can regenerate those
learning curves, and exposes ``epochs_to_converge`` with the same convergence
criterion for every strategy so the comparison is fair.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.dtype import cast
from repro.nn.losses import Loss, MSELoss
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam, Optimizer
from repro.observability.metrics import default_registry
from repro.utils.errors import ConfigurationError, ValidationError
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, default_rng

logger = get_logger("repro.nn.trainer")

ArrayPair = Tuple[np.ndarray, np.ndarray]
BatchIterable = Iterable[ArrayPair]


@dataclass
class TrainingConfig:
    """Hyper-parameters for a training run."""

    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    shuffle: bool = True
    # Early stopping: stop when the validation loss has not improved by
    # ``min_delta`` for ``patience`` epochs, or when it drops below
    # ``target_loss`` (the explicit convergence criterion used when comparing
    # fine-tuning strategies).
    patience: Optional[int] = None
    min_delta: float = 0.0
    target_loss: Optional[float] = None
    verbose: bool = False
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.lr <= 0:
            raise ConfigurationError("lr must be positive")
        if self.patience is not None and self.patience <= 0:
            raise ConfigurationError("patience must be positive when set")


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    epoch_time: List[float] = field(default_factory=list)
    io_time: List[float] = field(default_factory=list)
    stopped_early: bool = False
    converged_epoch: Optional[int] = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def best_val_loss(self) -> float:
        return float(min(self.val_loss)) if self.val_loss else float("nan")

    @property
    def total_time(self) -> float:
        return float(sum(self.epoch_time))

    def epochs_to_converge(self, target_loss: float) -> Optional[int]:
        """First epoch (1-based) whose validation loss is <= ``target_loss``."""
        for i, loss in enumerate(self.val_loss):
            if loss <= target_loss:
                return i + 1
        return None

    def as_dict(self) -> dict:
        return {
            "train_loss": list(self.train_loss),
            "val_loss": list(self.val_loss),
            "epoch_time": list(self.epoch_time),
            "io_time": list(self.io_time),
            "stopped_early": self.stopped_early,
            "converged_epoch": self.converged_epoch,
        }


def _iterate_minibatches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    shuffle: bool,
    rng: np.random.Generator,
) -> Iterable[ArrayPair]:
    n = x.shape[0]
    indices = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        batch_idx = indices[start : start + batch_size]
        yield x[batch_idx], y[batch_idx]


class Trainer:
    """Runs mini-batch gradient descent for a :class:`Sequential` model.

    Parameters
    ----------
    model:
        The network to optimise.
    loss:
        Loss object; defaults to mean squared error (the paper's regression
        applications all optimise MSE-style objectives).
    optimizer_factory:
        Callable ``(params, lr) -> Optimizer``; defaults to Adam.
    """

    def __init__(
        self,
        model: Sequential,
        loss: Optional[Loss] = None,
        optimizer_factory: Optional[Callable[[Sequence, float], Optimizer]] = None,
    ):
        self.model = model
        self.loss = loss or MSELoss()
        self._optimizer_factory = optimizer_factory or (lambda params, lr: Adam(params, lr=lr))
        self._best_val = float("inf")
        self._epochs_since_improvement = 0

    # -- evaluation -----------------------------------------------------------
    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> float:
        """Mean loss over ``(x, y)`` computed in inference mode.

        Inputs are cast to the model's compute dtype one batch slice at a
        time (a no-op when the dtype already matches) — never as full-array
        copies of ``x``/``y`` per call.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ValidationError("x and y must have the same number of samples")
        dtype = self.model.dtype
        total, count = 0.0, 0
        for start in range(0, x.shape[0], batch_size):
            xb = cast(x[start : start + batch_size], dtype)
            yb = cast(y[start : start + batch_size], dtype)
            pred = self.model.forward(xb, training=False)
            total += self.loss.forward(pred, yb) * xb.shape[0]
            count += xb.shape[0]
        return total / max(count, 1)

    # -- core loop -------------------------------------------------------------
    def fit(
        self,
        train: Union[ArrayPair, Callable[[], BatchIterable]],
        val: Optional[ArrayPair] = None,
        config: Optional[TrainingConfig] = None,
    ) -> TrainingHistory:
        """Train the model and return the learning-curve history.

        ``train`` is either an ``(x, y)`` array pair or a zero-argument
        callable returning an iterable of ``(x_batch, y_batch)`` pairs (one
        epoch); the latter form is how store-backed
        :class:`repro.dataio.dataloader.DataLoader` objects plug in.
        """
        config = config or TrainingConfig()
        rng = default_rng(config.seed)
        optimizer = self._optimizer_factory(self.model.parameters(), config.lr)
        history = TrainingHistory()
        dtype = self.model.dtype

        x_train: Optional[np.ndarray] = None
        y_train: Optional[np.ndarray] = None
        if not callable(train):
            # Validate and cast ONCE per fit — not per epoch, and never as a
            # redundant copy when the arrays are already in the compute dtype.
            x_train = cast(train[0], dtype)
            y_train = cast(train[1], dtype)
            if x_train.shape[0] != y_train.shape[0]:
                raise ValidationError("x and y must have the same number of samples")
            if x_train.shape[0] == 0:
                raise ValidationError("cannot train on an empty dataset")

        self._best_val = float("inf")
        self._epochs_since_improvement = 0

        for epoch in range(config.epochs):
            epoch_start = time.perf_counter()
            io_time = 0.0
            epoch_loss, n_batches = 0.0, 0

            if callable(train):
                batches: BatchIterable = train()
            else:
                batches = _iterate_minibatches(
                    x_train, y_train, config.batch_size, config.shuffle, rng
                )

            fetch_start = time.perf_counter()
            for xb, yb in batches:
                io_time += time.perf_counter() - fetch_start
                # No-op for the array path (cast above); covers loader-fed
                # batches so loss/backward never mix dtypes mid-pipeline.
                xb = cast(xb, dtype)
                yb = cast(yb, dtype)
                pred = self.model.forward(xb, training=True)
                batch_loss = self.loss.forward(pred, yb)
                grad = self.loss.backward(pred, yb)
                optimizer.zero_grad()
                self.model.backward(grad, need_input_grad=False)
                optimizer.step()
                epoch_loss += batch_loss
                n_batches += 1
                fetch_start = time.perf_counter()

            if n_batches == 0:
                raise ValidationError("training iterable produced no batches")
            if self._finish_epoch(
                history, config, epoch, epoch_loss / n_batches, io_time, epoch_start, val
            ):
                break

        if history.converged_epoch is None and config.target_loss is not None:
            history.converged_epoch = history.epochs_to_converge(config.target_loss)
        return history

    def _finish_epoch(
        self,
        history: TrainingHistory,
        config: TrainingConfig,
        epoch: int,
        train_loss: float,
        io_time: float,
        epoch_start: float,
        val: Optional[ArrayPair],
    ) -> bool:
        """Per-epoch bookkeeping: history, validation, metrics/logging,
        early stopping.  Returns True when training should stop."""
        history.train_loss.append(train_loss)
        history.io_time.append(io_time)
        if val is not None:
            val_loss = self.evaluate(val[0], val[1], batch_size=config.batch_size)
        else:
            val_loss = history.train_loss[-1]
        history.val_loss.append(val_loss)
        history.epoch_time.append(time.perf_counter() - epoch_start)

        # Same fields reach the metrics registry and (at verbose) the
        # log stream, so dashboards and console output never disagree.
        registry = default_registry()
        registry.counter("repro_train_epochs_total", "Training epochs completed").inc()
        registry.histogram(
            "repro_train_epoch_seconds", "Wall-clock duration of one training epoch"
        ).observe(history.epoch_time[-1])
        loss_gauge = registry.gauge(
            "repro_train_loss", "Latest per-epoch training/validation loss", ("split",)
        )
        loss_gauge.labels(split="train").set(history.train_loss[-1])
        loss_gauge.labels(split="val").set(val_loss)
        logger.log(
            logging.INFO if config.verbose else logging.DEBUG,
            "epoch %d/%d: train=%.5f val=%.5f epoch_s=%.3f io_s=%.3f",
            epoch + 1, config.epochs, history.train_loss[-1], val_loss,
            history.epoch_time[-1], io_time,
        )

        # Convergence / early-stopping bookkeeping.
        if config.target_loss is not None and val_loss <= config.target_loss:
            history.converged_epoch = epoch + 1
            history.stopped_early = True
            return True
        if val_loss < self._best_val - config.min_delta:
            self._best_val = val_loss
            self._epochs_since_improvement = 0
        else:
            self._epochs_since_improvement += 1
        if config.patience is not None and self._epochs_since_improvement >= config.patience:
            history.stopped_early = True
            return True
        return False

    # -- fine-tuning ------------------------------------------------------------
    def fine_tune(
        self,
        train: Union[ArrayPair, Callable[[], BatchIterable]],
        val: Optional[ArrayPair] = None,
        config: Optional[TrainingConfig] = None,
        freeze_layers: int = 0,
        lr_scale: float = 0.1,
    ) -> TrainingHistory:
        """Fine-tune the (already initialised) model on new data.

        Implements the paper's fine-tuning protocol: optionally freeze the
        first ``freeze_layers`` parameterised layers and train the remainder
        with a learning rate scaled down by ``lr_scale`` relative to the
        from-scratch configuration.
        """
        config = config or TrainingConfig()
        if not 0.0 < lr_scale <= 1.0:
            raise ConfigurationError("lr_scale must be in (0, 1]")
        ft_config = TrainingConfig(
            epochs=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr * lr_scale,
            shuffle=config.shuffle,
            patience=config.patience,
            min_delta=config.min_delta,
            target_loss=config.target_loss,
            verbose=config.verbose,
            seed=config.seed,
        )
        if freeze_layers:
            self.model.freeze_layers(freeze_layers)
        try:
            return self.fit(train, val=val, config=ft_config)
        finally:
            if freeze_layers:
                self.model.unfreeze_all()
