"""Tests for the training / fine-tuning loops and MC dropout."""

import inspect

import numpy as np
import pytest

from repro.core.fairdms import FairDMS
from repro.monitoring.drift_detector import DegradationDetector
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.mc_dropout import _z_value, mc_dropout_predict, prediction_interval_width
from repro.nn.metrics import (
    euclidean_pixel_error,
    mean_absolute_error,
    mean_squared_error,
    r2_score,
)
from repro.nn.network import Sequential
from repro.nn.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.utils.errors import ConfigurationError, ValidationError


def _regression_data(n=200, seed=0, w_seed=0):
    """Linear-regression data; ``w_seed`` fixes the underlying mapping so two
    datasets with the same ``w_seed`` come from the same distribution."""
    w = np.random.default_rng(w_seed).normal(size=(5, 2))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    y = x @ w + 0.01 * rng.normal(size=(n, 2))
    return x, y


def _model(seed=0, dropout=0.0):
    layers = [Dense(5, 16, seed=seed), ReLU()]
    if dropout:
        layers.append(Dropout(dropout, seed=seed))
    layers.append(Dense(16, 2, seed=seed + 1))
    return Sequential(layers)


# -- TrainingConfig -----------------------------------------------------------
def test_training_config_validation():
    with pytest.raises(ConfigurationError):
        TrainingConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainingConfig(lr=0)
    with pytest.raises(ConfigurationError):
        TrainingConfig(patience=0)


# -- fit -------------------------------------------------------------------------
def test_fit_reduces_validation_loss():
    x, y = _regression_data()
    model = _model()
    trainer = Trainer(model)
    history = trainer.fit((x[:150], y[:150]), val=(x[150:], y[150:]),
                          config=TrainingConfig(epochs=30, batch_size=32, lr=0.01, seed=0))
    assert history.epochs_run == 30
    assert history.val_loss[-1] < history.val_loss[0]
    assert history.best_val_loss <= history.val_loss[0]
    assert history.total_time > 0


def test_fit_records_history_lengths():
    x, y = _regression_data(80)
    history = Trainer(_model()).fit((x, y), config=TrainingConfig(epochs=5, seed=1))
    assert len(history.train_loss) == len(history.val_loss) == len(history.epoch_time) == 5


def test_fit_early_stopping_with_patience():
    x, y = _regression_data(100)
    history = Trainer(_model()).fit(
        (x, y), val=(x, y),
        config=TrainingConfig(epochs=200, batch_size=32, lr=0.01, patience=3, seed=0),
    )
    assert history.stopped_early
    assert history.epochs_run < 200


def test_fit_stops_at_target_loss():
    x, y = _regression_data(200)
    history = Trainer(_model()).fit(
        (x, y), val=(x, y),
        config=TrainingConfig(epochs=300, batch_size=32, lr=0.02, target_loss=0.05, seed=0),
    )
    assert history.converged_epoch is not None
    assert history.val_loss[history.converged_epoch - 1] <= 0.05


def test_fit_with_callable_batch_source():
    x, y = _regression_data(64)

    def loader():
        for i in range(0, 64, 16):
            yield x[i : i + 16], y[i : i + 16]

    history = Trainer(_model()).fit(loader, val=(x, y), config=TrainingConfig(epochs=3, seed=0))
    assert history.epochs_run == 3


def test_fit_is_reproducible_from_the_seeds():
    x, y = _regression_data(120)
    config = TrainingConfig(epochs=6, batch_size=16, lr=0.01, seed=3)

    def fit():
        model = _model(seed=2, dropout=0.2)
        history = Trainer(model).fit((x[:90], y[:90]), val=(x[90:], y[90:]), config=config)
        return history, model.forward(x, training=False)

    (h1, p1), (h2, p2) = fit(), fit()
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    np.testing.assert_array_equal(p1, p2)


def test_fit_rejects_mismatched_shapes():
    x, y = _regression_data(20)
    with pytest.raises(ValidationError):
        Trainer(_model()).fit((x, y[:10]), config=TrainingConfig(epochs=1))


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValidationError):
        Trainer(_model()).fit((np.zeros((0, 5)), np.zeros((0, 2))), config=TrainingConfig(epochs=1))


def test_evaluate_matches_loss():
    x, y = _regression_data(50)
    model = _model()
    trainer = Trainer(model)
    loss_val = trainer.evaluate(x, y)
    pred = model.predict(x)
    assert loss_val == pytest.approx(mean_squared_error(pred, y), rel=1e-6)


# -- fine-tuning ---------------------------------------------------------------------
def test_fine_tune_converges_faster_than_scratch():
    """Core fairMS premise: fine-tuning a well-matched checkpoint needs fewer epochs."""
    x, y = _regression_data(300, seed=0)
    target = 0.05

    # Pre-train a model on the same distribution (the "best Zoo model").
    pretrained = _model(seed=0)
    Trainer(pretrained).fit((x, y), val=(x, y),
                            config=TrainingConfig(epochs=60, batch_size=32, lr=0.01, seed=0))

    # New data from the same distribution.
    x_new, y_new = _regression_data(150, seed=5)

    scratch = _model(seed=42)
    hist_scratch = Trainer(scratch).fit(
        (x_new, y_new), val=(x_new, y_new),
        config=TrainingConfig(epochs=100, batch_size=32, lr=0.01, target_loss=target, seed=1),
    )
    ft_model = pretrained.clone()
    hist_ft = Trainer(ft_model).fine_tune(
        (x_new, y_new), val=(x_new, y_new),
        config=TrainingConfig(epochs=100, batch_size=32, lr=0.01, target_loss=target, seed=1),
        lr_scale=0.5,
    )
    e_scratch = hist_scratch.converged_epoch or 101
    e_ft = hist_ft.converged_epoch or 101
    assert e_ft < e_scratch


def test_fine_tune_freeze_keeps_frozen_weights():
    x, y = _regression_data(100)
    model = _model(seed=0)
    before = model.layers[0].parameters()[0].data.copy()
    Trainer(model).fine_tune((x, y), config=TrainingConfig(epochs=3, seed=0), freeze_layers=1)
    after = model.layers[0].parameters()[0].data
    np.testing.assert_array_equal(before, after)
    # And the model is unfrozen again afterwards.
    assert all(p.trainable for p in model.parameters())


def test_fine_tune_invalid_lr_scale():
    x, y = _regression_data(20)
    with pytest.raises(ConfigurationError):
        Trainer(_model()).fine_tune((x, y), config=TrainingConfig(epochs=1), lr_scale=0.0)


# -- TrainingHistory -------------------------------------------------------------------
def test_history_epochs_to_converge():
    h = TrainingHistory(val_loss=[0.5, 0.3, 0.1, 0.05])
    assert h.epochs_to_converge(0.3) == 2
    assert h.epochs_to_converge(0.01) is None
    assert h.as_dict()["val_loss"] == [0.5, 0.3, 0.1, 0.05]


# -- MC dropout -----------------------------------------------------------------------
def test_mc_dropout_predict_shapes_and_spread():
    x, y = _regression_data(50)
    model = _model(dropout=0.3)
    mean, std = mc_dropout_predict(model, x, n_samples=10)
    assert mean.shape == (50, 2)
    assert std.shape == (50, 2)
    assert np.all(std >= 0)
    assert std.mean() > 0  # dropout induces spread


def test_mc_dropout_probe_is_reproducible_and_redraws_its_masks():
    x, _ = _regression_data(40)
    mean_a, std_a = mc_dropout_predict(_model(dropout=0.3), x, n_samples=16)
    mean_b, std_b = mc_dropout_predict(_model(dropout=0.3), x, n_samples=16)
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_array_equal(std_a, std_b)
    # A second probe on the same model draws fresh masks: different samples,
    # same distribution.
    model = _model(dropout=0.3)
    first = mc_dropout_predict(model, x, n_samples=64)
    second = mc_dropout_predict(model, x, n_samples=64)
    assert not np.array_equal(first[1], second[1])
    deterministic = model.forward(x, training=False)
    assert np.abs(first[0] - second[0]).mean() < 0.25 * np.abs(deterministic).mean()
    assert second[1].mean() == pytest.approx(first[1].mean(), rel=0.25)


@pytest.mark.parametrize(
    "entry", [Trainer, mc_dropout_predict, FairDMS, DegradationDetector],
    ids=lambda entry: entry.__name__,
)
def test_training_and_probe_entry_points_take_no_executor(entry):
    # Training and MC dropout run in-process only; no knob selects a path.
    params = inspect.signature(entry).parameters
    assert "executor" not in params
    if entry is mc_dropout_predict:
        assert "seed" not in params


def test_mc_dropout_requires_dropout_layer():
    x, _ = _regression_data(10)
    with pytest.raises(ConfigurationError):
        mc_dropout_predict(_model(dropout=0.0), x)


def test_mc_dropout_requires_multiple_samples():
    x, _ = _regression_data(10)
    with pytest.raises(ConfigurationError):
        mc_dropout_predict(_model(dropout=0.3), x, n_samples=1)


def test_prediction_interval_width_positive_and_monotone_in_confidence():
    x, _ = _regression_data(30)
    model = _model(dropout=0.3)
    w95 = prediction_interval_width(model, x, n_samples=10, confidence=0.95)
    w50 = prediction_interval_width(model, x, n_samples=10, confidence=0.50)
    assert w95 > 0
    assert w95 > w50 * 0.5  # same order of magnitude; wider for higher confidence on average
    # The width scales std by the two-sided standard-normal quantile; a fresh
    # model replays the same dropout masks, so the width is reproduced exactly.
    _, std = mc_dropout_predict(_model(dropout=0.3), x, n_samples=10)
    for confidence, z in [
        (0.5, 0.6744897501960817),
        (0.9, 1.6448536269514722),
        (0.95, 1.959963984540054),
        (0.99, 2.5758293035489004),
    ]:
        assert _z_value(confidence) == pytest.approx(z, abs=1e-12)
        width = prediction_interval_width(_model(dropout=0.3), x, n_samples=10, confidence=confidence)
        assert width == float(np.mean(2.0 * z * std))


def test_prediction_interval_invalid_confidence():
    x, _ = _regression_data(5)
    with pytest.raises(ConfigurationError):
        prediction_interval_width(_model(dropout=0.2), x, confidence=1.5)


# -- metrics ---------------------------------------------------------------------------
def test_metrics_basic_values():
    pred = np.array([[1.0, 1.0], [2.0, 2.0]])
    target = np.array([[1.0, 1.0], [2.0, 4.0]])
    assert mean_squared_error(pred, target) == pytest.approx(1.0)
    assert mean_absolute_error(pred, target) == pytest.approx(0.5)
    assert r2_score(target, target) == 1.0


def test_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        mean_squared_error(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        euclidean_pixel_error(np.zeros((3, 3)), np.zeros((3, 3)))


def test_euclidean_pixel_error():
    pred = np.array([[0.0, 0.0], [3.0, 4.0]])
    target = np.zeros((2, 2))
    np.testing.assert_allclose(euclidean_pixel_error(pred, target), [0.0, 5.0])
