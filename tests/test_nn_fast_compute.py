"""Equivalence and golden-value tests for the vectorized float32 compute plane.

Pins the rewritten kernels to the frozen pre-optimisation reference
implementations in ``benchmarks/nn_reference.py``:

* shift-convolution Conv2D                  vs  the legacy float64 Conv2D
                                               (index-gather / ``np.add.at``),
* packed flat-buffer SGD/Adam               vs  the per-parameter loops,
* batched (folded) MC dropout               vs  one forward pass per sample,
* float32 training curves                   vs  the float64 baseline.
"""

import sys
import threading
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
from repro.models import build_braggnn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from nn_reference import (  # noqa: E402
    LegacyConv2D,
    LoopedAdam,
    LoopedSGD,
    legacy_variant,
    looped_mc_dropout_predict,
)


# -- Conv2D golden values -----------------------------------------------------
CONV_CASES = [
    # (n, c, h, w, k, stride, pad)
    (2, 3, 6, 6, 3, 1, 1),
    (1, 1, 5, 5, 3, 1, 0),
    (2, 2, 7, 7, 3, 2, 0),
    (3, 1, 4, 4, 2, 2, 0),
    (1, 4, 8, 8, 5, 1, 2),
    (2, 2, 9, 7, 3, 2, 1),
]


def _conv_pair(c, k, stride, pad, oc=3, seed=5):
    new = Conv2D(c, oc, kernel_size=k, stride=stride, padding=pad, seed=seed, dtype=np.float64)
    old = LegacyConv2D(c, oc, kernel_size=k, stride=stride, padding=pad, seed=seed)
    bias = np.linspace(-0.5, 0.5, oc)  # non-zero, so the bias path is checked
    new.bias.data[...] = bias
    old.weight.data[...] = new.weight.data
    old.bias.data[...] = bias
    return new, old


@pytest.mark.parametrize("n,c,h,w,k,stride,pad", CONV_CASES)
def test_conv2d_matches_legacy_on_golden_cases(rng, n, c, h, w, k, stride, pad):
    """Forward output and all three gradients against the index-gather /
    ``np.add.at`` Conv2D, across kernels 2/3/5, strides 1/2, pads 0/1/2,
    non-square inputs and batch 1."""
    new, old = _conv_pair(c, k, stride, pad)
    x = rng.normal(size=(n, c, h, w))
    out_new = new.forward(x, training=True)
    out_old = old.forward(x, training=True)
    assert out_new.shape == out_old.shape == (n, 3) + new.output_shape(h, w)
    np.testing.assert_allclose(out_new, out_old, atol=1e-12)

    grad = rng.normal(size=out_new.shape)
    np.testing.assert_allclose(new.backward(grad), old.backward(grad), atol=1e-12)
    np.testing.assert_allclose(new.weight.grad, old.weight.grad, atol=1e-12)
    np.testing.assert_allclose(new.bias.grad, old.bias.grad, atol=1e-12)


def _poison(ws, layer, h, w):
    """NaN every workspace byte that carries no zero invariant: all of
    ``cols`` and ``gxt``, the interior of ``xpt`` and the output positions
    of ``grad_grid``."""
    p = layer.padding
    ws.cols.fill(np.nan)
    ws.gxt.fill(np.nan)
    ws.xpt[:, :, p : p + h, p : p + w] = np.nan
    layer._outputs(ws.grad_grid, ws)[...] = np.nan


@pytest.fixture
def nan_empty(monkeypatch):
    """``np.empty`` / ``np.empty_like`` hand out NaN-filled float memory, so
    a read of a never-written byte (the forward grid's tail past ``m``
    included) shows up as a NaN instead of as whatever memory held."""
    empty, empty_like = np.empty, np.empty_like

    def poisoned(make):
        def wrapper(*args, **kwargs):
            arr = make(*args, **kwargs)
            if arr.dtype.kind == "f":
                arr.fill(np.nan)
            return arr
        return wrapper

    monkeypatch.setattr(np, "empty", poisoned(empty))
    monkeypatch.setattr(np, "empty_like", poisoned(empty_like))


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (2, 0)])
def test_conv2d_poisoned_workspace_never_reaches_a_result(rng, nan_empty, stride, pad):
    """The GEMM tail beyond ``m``, the grid positions that are not outputs and
    the columns that straddle rows or samples must never be read."""
    x = rng.normal(size=(3, 2, 9, 8))
    clean, _ = _conv_pair(2, 3, stride, pad)
    poisoned, _ = _conv_pair(2, 3, stride, pad)
    ws = poisoned._workspace(x.shape, np.dtype(np.float64))
    _poison(ws, poisoned, 9, 8)

    for _ in range(2):  # the second round runs on buffers the first left behind
        out = poisoned.forward(x, training=True)
        want = clean.forward(x, training=True)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, want)
        grad = rng.normal(size=out.shape)
        gx = poisoned.backward(grad)
        assert np.isfinite(gx).all()
        np.testing.assert_array_equal(gx, clean.backward(grad))
        for got, ref in zip(poisoned.parameters(), clean.parameters()):
            assert np.isfinite(got.grad).all()
            np.testing.assert_array_equal(got.grad, ref.grad)
        _poison(ws, poisoned, 9, 8)

    # The zero invariants survived: the padding border and the non-output
    # positions of the gradient grid.
    assert np.count_nonzero(np.nan_to_num(ws.xpt, nan=0.0)) == 0
    grad_grid = ws.grad_grid.copy()
    poisoned._outputs(grad_grid, ws)[...] = 0
    assert np.count_nonzero(grad_grid) == 0


def test_conv2d_second_backward_without_forward_raises(rng):
    """The backward overwrites the forward's columns with the column
    gradient, so each training forward admits exactly one backward."""
    layer = Conv2D(2, 3, kernel_size=3, padding=1, seed=0)
    out = layer.forward(rng.normal(size=(2, 2, 5, 5)), training=True)
    layer.backward(np.ones_like(out))
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(out))
    layer.forward(rng.normal(size=(2, 2, 5, 5)), training=True)
    layer.backward_params_only(np.ones_like(out))
    with pytest.raises(RuntimeError):
        layer.backward_params_only(np.ones_like(out))


def test_conv2d_workspaces_are_thread_local(rng):
    """Two threads predicting different batch sizes through one BraggNN,
    with the GIL handed over every few bytecodes, get the serial answers."""
    model = build_braggnn(patch_size=11, width=4, seed=0)
    batches = [rng.normal(size=(b, 1, 11, 11)).astype(np.float32) for b in (5, 8)]
    serial = [model.predict(xb) for xb in batches]
    results = {}

    def worker(i):
        results[i] = [model.predict(batches[i]) for _ in range(20)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    for i, want in enumerate(serial):
        assert len(results[i]) == 20
        for got in results[i]:
            np.testing.assert_array_equal(got, want)


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


def test_adam_steps_float32_parameters_in_float32(rng):
    """Every operation of a float32 step runs in float32: the update equals, bit
    for bit, the same arithmetic with float32 constants (a float64 bias
    correction would compute in float64 and cast back)."""
    f32 = np.float32
    param = Parameter(rng.normal(size=257), dtype=np.float32)
    opt = Adam([param], lr=0.01)
    theta, m, v = param.data.copy(), np.zeros(257, f32), np.zeros(257, f32)
    for t in range(1, 6):
        g = rng.normal(size=257).astype(f32)
        opt.zero_grad()
        param.grad[...] = g
        opt.step()
        m = m * f32(0.9) + g * f32(1 - 0.9)
        v = v * f32(0.999) + g * g * f32(1 - 0.999)
        denominator = np.sqrt(v) * f32(1 / np.sqrt(1 - 0.999**t)) + f32(1e-8)
        theta = theta - m / denominator * f32(0.01 / (1 - 0.9**t))
        assert theta.dtype == param.data.dtype == f32
        np.testing.assert_array_equal(param.data, theta)


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
