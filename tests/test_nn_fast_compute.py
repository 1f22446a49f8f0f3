"""Equivalence and golden-value tests for the vectorized float32 compute plane.

Pins the rewritten kernels to the frozen pre-optimisation reference
implementations in ``benchmarks/nn_reference.py``:

* sliding-window im2col / slice-add col2im  vs  index-gather / ``np.add.at``,
* workspace Conv2D                          vs  the legacy float64 Conv2D,
* packed flat-buffer SGD/Adam               vs  the per-parameter loops,
* batched (folded) MC dropout               vs  one forward pass per sample,
* float32 training curves                   vs  the float64 baseline.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Dropout,
    MSELoss,
    Parameter,
    ReLU,
    SGD,
    Sequential,
    Trainer,
    TrainingConfig,
    dtype_scope,
    get_default_dtype,
    mc_dropout_predict,
)
from repro.nn.layers import col2im, im2col
from repro.models import build_braggnn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from nn_reference import (  # noqa: E402
    LegacyConv2D,
    LoopedAdam,
    LoopedSGD,
    legacy_variant,
    looped_mc_dropout_predict,
    reference_col2im,
    reference_im2col,
)


# -- im2col / col2im golden values --------------------------------------------
IM2COL_CASES = [
    # (n, c, h, w, kh, kw, stride, pad)
    (2, 3, 6, 6, 3, 3, 1, 1),
    (1, 1, 5, 5, 3, 3, 1, 0),
    (2, 2, 7, 7, 3, 3, 2, 0),
    (3, 1, 4, 4, 2, 2, 2, 0),
    (1, 4, 8, 8, 5, 5, 1, 2),
    (2, 2, 9, 7, 3, 3, 2, 1),
]


@pytest.mark.parametrize("n,c,h,w,kh,kw,stride,pad", IM2COL_CASES)
def test_im2col_matches_reference(rng, n, c, h, w, kh, kw, stride, pad):
    x = rng.normal(size=(n, c, h, w))
    cols, oh, ow = im2col(x, kh, kw, stride, pad)
    ref_cols, ref_oh, ref_ow = reference_im2col(x, kh, kw, stride, pad)
    assert (oh, ow) == (ref_oh, ref_ow)
    np.testing.assert_array_equal(cols, ref_cols)


@pytest.mark.parametrize("n,c,h,w,kh,kw,stride,pad", IM2COL_CASES)
def test_col2im_matches_reference(rng, n, c, h, w, kh, kw, stride, pad):
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    cols = rng.normal(size=(c * kh * kw, oh * ow * n))
    out = col2im(cols, (n, c, h, w), kh, kw, stride, pad)
    ref = reference_col2im(cols, (n, c, h, w), kh, kw, stride, pad)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_conv2d_naive_reference_conv(rng):
    """Golden check of the full layer against a from-scratch loop convolution."""
    layer = Conv2D(2, 3, kernel_size=3, stride=2, padding=1, seed=0, dtype=np.float64)
    x = rng.normal(size=(2, 2, 7, 7))
    out = layer.forward(x)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    oh, ow = layer.output_shape(7, 7)
    naive = np.zeros((2, 3, oh, ow))
    for n in range(2):
        for oc in range(3):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    naive[n, oc, i, j] = np.sum(patch * layer.weight.data[oc]) + layer.bias.data[oc]
    np.testing.assert_allclose(out, naive, atol=1e-12)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_forward_backward_matches_legacy(rng, stride, pad):
    new = Conv2D(2, 4, kernel_size=3, stride=stride, padding=pad, seed=7, dtype=np.float64)
    old = LegacyConv2D(2, 4, kernel_size=3, stride=stride, padding=pad, seed=7)
    old.weight.data[...] = new.weight.data
    old.bias.data[...] = new.bias.data

    x = rng.normal(size=(3, 2, 9, 9))
    out_new = new.forward(x, training=True)
    out_old = old.forward(x, training=True)
    np.testing.assert_allclose(out_new, out_old, atol=1e-12)

    grad = rng.normal(size=out_new.shape)
    gx_new = new.backward(grad)
    gx_old = old.backward(grad)
    np.testing.assert_allclose(gx_new, gx_old, atol=1e-12)
    np.testing.assert_allclose(new.weight.grad, old.weight.grad, atol=1e-12)
    np.testing.assert_allclose(new.bias.grad, old.bias.grad, atol=1e-12)


# -- packed optimizers vs per-parameter loops ---------------------------------
def _param_set(rng, dtype=np.float64, trainable=(True, True, True)):
    shapes = [(4, 3), (3,), (2, 5)]
    return [
        Parameter(rng.normal(size=s), name=f"p{i}", trainable=t, dtype=dtype)
        for i, (s, t) in enumerate(zip(shapes, trainable))
    ]


def _run_steps(opt, params, grads):
    for step_grads in grads:
        opt.zero_grad()
        for p, g in zip(params, step_grads):
            p.grad[...] = g
        opt.step()
    return [p.data.copy() for p in params]


@pytest.mark.parametrize(
    "fast_factory,ref_factory",
    [
        (lambda p: SGD(p, lr=0.05), lambda p: LoopedSGD(p, lr=0.05)),
        (
            lambda p: SGD(p, lr=0.02, momentum=0.9, weight_decay=0.01),
            lambda p: LoopedSGD(p, lr=0.02, momentum=0.9, weight_decay=0.01),
        ),
        (lambda p: Adam(p, lr=0.01), lambda p: LoopedAdam(p, lr=0.01)),
        (
            lambda p: Adam(p, lr=0.01, weight_decay=0.02),
            lambda p: LoopedAdam(p, lr=0.01, weight_decay=0.02),
        ),
    ],
)
def test_packed_optimizer_matches_looped(rng, fast_factory, ref_factory):
    params_fast = _param_set(rng)
    params_ref = [p.copy() for p in params_fast]
    grads = [[rng.normal(size=p.shape) for p in params_fast] for _ in range(7)]
    got = _run_steps(fast_factory(params_fast), params_fast, grads)
    want = _run_steps(ref_factory(params_ref), params_ref, grads)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)


def test_packed_optimizer_skips_frozen_segment(rng):
    params_fast = _param_set(rng, trainable=(True, False, True))
    params_ref = [p.copy() for p in params_fast]
    grads = [[rng.normal(size=p.shape) for p in params_fast] for _ in range(5)]
    got = _run_steps(Adam(params_fast, lr=0.05), params_fast, grads)
    want = _run_steps(LoopedAdam(params_ref, lr=0.05), params_ref, grads)
    for g, w, p in zip(got, want, params_ref):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(got[1], want[1])  # frozen stayed put


def test_packed_optimizer_handles_trainable_toggled_after_construction(rng):
    params_fast = _param_set(rng)
    params_ref = [p.copy() for p in params_fast]
    opt_fast, opt_ref = SGD(params_fast, lr=0.1), LoopedSGD(params_ref, lr=0.1)
    params_fast[0].trainable = False
    params_ref[0].trainable = False
    grads = [[rng.normal(size=p.shape) for p in params_fast] for _ in range(3)]
    got = _run_steps(opt_fast, params_fast, grads)
    want = _run_steps(opt_ref, params_ref, grads)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12)


def test_repacking_by_second_optimizer_keeps_first_correct(rng):
    """A fine-tune phase repacks the params; the original optimizer must not
    silently write into stale buffers."""
    params = _param_set(rng)
    first = SGD(params, lr=0.1)
    SGD(params, lr=0.1)  # repacks, superseding first's views
    g = [np.ones(p.shape) for p in params]
    ref = [p.data - 0.1 * gi for p, gi in zip(params, g)]
    first.zero_grad()
    for p, gi in zip(params, g):
        p.grad[...] = gi
    first.step()
    for p, r in zip(params, ref):
        np.testing.assert_allclose(p.data, r, rtol=1e-12)


def test_parameter_views_survive_packing(rng):
    layer = Dense(3, 2, seed=0)
    opt = Adam(layer.parameters(), lr=0.01)
    # Layer writes flow into the pack; state_dict loads stay in place.
    state = layer.state_dict()
    layer.load_state_dict(state)
    x = np.asarray(rng.normal(size=(4, 3)), dtype=layer.dtype)
    out = layer.forward(x, training=True)
    layer.backward(np.ones_like(out))
    assert float(np.abs(layer.weight.grad).sum()) > 0
    opt.step()  # must not raise and must update through the views
    assert not np.allclose(layer.weight.data, state[layer.weight.name])


# -- dtype policy -------------------------------------------------------------
def test_default_dtype_is_float32():
    assert get_default_dtype() == np.float32
    model = build_braggnn(width=2, seed=0)
    assert model.dtype == np.float32
    assert all(p.data.dtype == np.float32 for p in model.parameters())


def test_dtype_scope_constructs_float64_models():
    with dtype_scope(np.float64):
        model = build_braggnn(width=2, seed=0)
    assert model.dtype == np.float64
    assert get_default_dtype() == np.float32  # restored


def test_forward_output_dtype_follows_policy(rng):
    x = rng.normal(size=(3, 1, 15, 15))  # float64 input
    model32 = build_braggnn(width=2, seed=0)
    model64 = build_braggnn(width=2, seed=0, dtype=np.float64)
    assert model32.forward(x).dtype == np.float32
    assert model64.forward(x).dtype == np.float64


def test_to_dtype_round_trip_preserves_values(rng):
    model = build_braggnn(width=2, seed=3)
    x = rng.normal(size=(2, 1, 15, 15)).astype(np.float32)
    before = model.forward(x)
    model.to_dtype(np.float64).to_dtype(np.float32)
    np.testing.assert_allclose(model.forward(x), before, rtol=1e-6)


def test_state_dict_cross_dtype_load(rng):
    src = build_braggnn(width=2, seed=1, dtype=np.float64)
    dst = build_braggnn(width=2, seed=9)  # float32
    dst.load_state_dict(src.state_dict())
    x = rng.normal(size=(2, 1, 15, 15))
    np.testing.assert_allclose(dst.forward(x), src.forward(x), rtol=1e-5, atol=1e-6)


# -- training-curve equivalence ----------------------------------------------
def _toy_regression(rng, n=256, d=12):
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, 3))
    y = np.tanh(x @ w) + 0.05 * rng.normal(size=(n, 3))
    return x, y


def _dense_model(seed, dtype=None):
    return Sequential(
        [
            Dense(12, 32, seed=seed, dtype=dtype),
            ReLU(dtype=dtype),
            Dense(32, 3, seed=seed + 1, dtype=dtype),
        ],
        name="toy",
    )


def test_float32_training_curve_matches_float64(rng):
    x, y = _toy_regression(rng)
    config = TrainingConfig(epochs=6, batch_size=32, lr=3e-3, seed=11)
    hist32 = Trainer(_dense_model(5)).fit((x, y), config=config)
    hist64 = Trainer(_dense_model(5, dtype=np.float64)).fit((x, y), config=config)
    # Same shuffle stream and same initial weights (to float32 rounding):
    # float32 drift over a few epochs stays within a tight relative band.
    np.testing.assert_allclose(hist32.train_loss, hist64.train_loss, rtol=1e-3)


def test_legacy_variant_tracks_fast_braggnn_training(rng):
    x = rng.normal(size=(96, 1, 15, 15))
    y = rng.random((96, 2))
    config = TrainingConfig(epochs=3, batch_size=32, lr=2e-3, seed=0)
    fast = build_braggnn(width=2, seed=4)
    legacy = legacy_variant(build_braggnn(width=2, seed=4))
    hist_fast = Trainer(fast).fit((x, y), config=config)
    hist_legacy = Trainer(
        legacy, optimizer_factory=lambda p, lr: LoopedAdam(p, lr=lr)
    ).fit((x, y), config=config)
    np.testing.assert_allclose(hist_fast.train_loss, hist_legacy.train_loss, rtol=5e-3)


def test_trainer_evaluate_accepts_float64_inputs_on_float32_model(rng):
    x, y = _toy_regression(rng, n=64)
    trainer = Trainer(_dense_model(2))
    loss = trainer.evaluate(x, y, batch_size=16)
    assert np.isfinite(loss)


# -- batched MC dropout --------------------------------------------------------
def _dropout_model(seed=0, dtype=None):
    return Sequential(
        [
            Dense(6, 16, seed=seed, dtype=dtype),
            ReLU(dtype=dtype),
            Dropout(0.3, seed=123, dtype=dtype),
            Dense(16, 2, seed=seed + 1, dtype=dtype),
        ],
        name="mc",
    )


def test_batched_mc_dropout_matches_looped_under_fixed_rng(rng):
    x = rng.normal(size=(9, 6))
    mean_loop, std_loop = looped_mc_dropout_predict(_dropout_model(), x, n_samples=16)
    mean_fold, std_fold = mc_dropout_predict(_dropout_model(), x, n_samples=16)
    # Same dropout seed => the folded pass consumes the identical mask stream.
    np.testing.assert_allclose(mean_fold, mean_loop, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(std_fold, std_loop, rtol=1e-4, atol=1e-6)


def test_chunked_mc_dropout_matches_unchunked(rng):
    x = rng.normal(size=(10, 6))
    mean_a, std_a = mc_dropout_predict(_dropout_model(), x, n_samples=12)
    mean_b, std_b = mc_dropout_predict(_dropout_model(), x, n_samples=12, max_rows=25)
    np.testing.assert_allclose(mean_b, mean_a, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(std_b, std_a, rtol=1e-4, atol=1e-6)


def test_mc_dropout_max_rows_zero_forces_looped_path(rng):
    x = rng.normal(size=(4, 6))
    mean, std = mc_dropout_predict(_dropout_model(), x, n_samples=8, max_rows=0)
    assert mean.shape == (4, 2) and std.shape == (4, 2)
    assert np.all(std >= 0)
