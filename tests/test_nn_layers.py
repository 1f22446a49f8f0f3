"""Gradient checks and behavioural tests for repro.nn.layers."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm1d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Reshape,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.utils.errors import ConfigurationError

from tests.conftest import check_layer_gradients, numerical_gradient


# -- Dense ---------------------------------------------------------------------
def test_dense_forward_shape(rng):
    layer = Dense(4, 3, seed=0)
    out = layer.forward(rng.normal(size=(5, 4)))
    assert out.shape == (5, 3)


def test_dense_gradients(rng):
    layer = Dense(4, 3, seed=0)
    check_layer_gradients(layer, rng.normal(size=(6, 4)))


def test_dense_no_bias_gradients(rng):
    layer = Dense(3, 2, bias=False, seed=1)
    assert len(layer.parameters()) == 1
    check_layer_gradients(layer, rng.normal(size=(4, 3)))


def test_dense_rejects_bad_input_shape(rng):
    layer = Dense(4, 3)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(5, 7)))
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(5, 4, 1)))


def test_dense_invalid_config():
    with pytest.raises(ConfigurationError):
        Dense(0, 3)


def test_dense_backward_before_forward_raises(rng):
    layer = Dense(2, 2)
    with pytest.raises(RuntimeError):
        layer.backward(rng.normal(size=(3, 2)))


# -- Conv2D ------------------------------------------------------------------------
def test_conv2d_output_shape(rng):
    layer = Conv2D(2, 4, kernel_size=3, stride=1, padding=1, seed=0)
    x = rng.normal(size=(3, 2, 8, 8))
    out = layer.forward(x)
    assert out.shape == (3, 4, 8, 8)
    assert layer.output_shape(8, 8) == (8, 8)


def test_conv2d_stride_and_no_padding(rng):
    layer = Conv2D(1, 2, kernel_size=3, stride=2, padding=0, seed=0)
    out = layer.forward(rng.normal(size=(2, 1, 7, 7)))
    assert out.shape == (2, 2, 3, 3)


def test_conv2d_gradients(rng):
    layer = Conv2D(2, 3, kernel_size=3, stride=1, padding=1, seed=0)
    check_layer_gradients(layer, rng.normal(size=(2, 2, 5, 5)), atol=1e-4)


def test_conv2d_gradients_stride2(rng):
    layer = Conv2D(1, 2, kernel_size=2, stride=2, padding=0, seed=3)
    check_layer_gradients(layer, rng.normal(size=(2, 1, 4, 4)), atol=1e-4)


def test_conv2d_channel_mismatch(rng):
    layer = Conv2D(3, 2)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(1, 2, 5, 5)))


def test_conv2d_input_gradient_counts_patch_coverage(rng):
    # With all-ones weights and an all-ones output gradient, the input
    # gradient of each pixel is the number of kernel windows covering it.
    layer = Conv2D(1, 1, kernel_size=3, padding=1, bias=False, dtype=np.float64)
    layer.weight.data[...] = 1.0
    out = layer.forward(rng.normal(size=(2, 1, 6, 5)), training=True)
    grad = layer.backward(np.ones_like(out))
    rows, cols = np.array([2, 3, 3, 3, 3, 2.0]), np.array([2, 3, 3, 3, 2.0])
    np.testing.assert_array_equal(grad, np.broadcast_to(np.outer(rows, cols), (2, 1, 6, 5)))


def test_conv2d_matches_naive_convolution(rng):
    # float64 so the comparison against the float64 naive loop is exact.
    layer = Conv2D(1, 1, kernel_size=3, stride=1, padding=0, bias=False, seed=0, dtype=np.float64)
    x = rng.normal(size=(1, 1, 5, 5))
    out = layer.forward(x)
    w = layer.weight.data[0, 0]
    naive = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            naive[i, j] = np.sum(x[0, 0, i : i + 3, j : j + 3] * w)
    np.testing.assert_allclose(out[0, 0], naive, atol=1e-10)


# -- MaxPool2D ---------------------------------------------------------------------
def test_maxpool_forward(rng):
    layer = MaxPool2D(2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = layer.forward(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradients(rng):
    layer = MaxPool2D(2)
    check_layer_gradients(layer, rng.normal(size=(2, 2, 4, 4)), atol=1e-5)


def test_maxpool_invalid_spatial_dims(rng):
    with pytest.raises(ValueError):
        MaxPool2D(3).forward(rng.normal(size=(1, 1, 4, 4)))


# -- activations -------------------------------------------------------------------
@pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU, Sigmoid, Tanh, Softmax])
def test_activation_gradients(layer_cls, rng):
    layer = layer_cls()
    check_layer_gradients(layer, rng.normal(size=(4, 6)))


def test_relu_zeroes_negatives():
    out = ReLU().forward(np.array([[-1.0, 0.5]]))
    np.testing.assert_array_equal(out, [[0.0, 0.5]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_backward_equals_select_form(rng, dtype):
    layer = LeakyReLU(0.01, dtype=dtype)
    x = rng.normal(size=(4, 3, 5, 5)).astype(dtype)
    x.flat[::7] = 0.0  # x == 0 takes the slope branch
    g = rng.normal(size=x.shape).astype(dtype)
    layer.forward(x, training=True)
    got = layer.backward(g)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, np.where(x > 0, g, g * dtype(0.01)))


def test_leaky_relu_slope():
    out = LeakyReLU(0.1).forward(np.array([[-2.0, 2.0]]))
    np.testing.assert_allclose(out, [[-0.2, 2.0]])


def test_sigmoid_range_and_stability():
    out = Sigmoid().forward(np.array([[-1000.0, 0.0, 1000.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.5)
    assert out[0, 2] == pytest.approx(1.0)


def test_softmax_rows_sum_to_one(rng):
    out = Softmax().forward(rng.normal(size=(5, 7)))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-6)  # float32 compute


# -- shape layers --------------------------------------------------------------------
def test_flatten_roundtrip(rng):
    layer = Flatten()
    x = rng.normal(size=(3, 2, 4, 4))
    out = layer.forward(x, training=True)
    assert out.shape == (3, 32)
    back = layer.backward(out)
    assert back.shape == x.shape


def test_reshape_roundtrip(rng):
    layer = Reshape((2, 8))
    x = rng.normal(size=(3, 16))
    out = layer.forward(x, training=True)
    assert out.shape == (3, 2, 8)
    assert layer.backward(out).shape == x.shape


# -- Dropout --------------------------------------------------------------------------
def test_dropout_identity_in_eval_mode(rng):
    layer = Dropout(0.5, seed=0)
    x = rng.normal(size=(10, 10)).astype(layer.dtype)
    out = layer.forward(x, training=False)
    assert out is x  # identity, not even a cast copy


def test_dropout_masks_in_training_mode(rng):
    layer = Dropout(0.5, seed=0)
    x = np.ones((200, 50))
    out = layer.forward(x, training=True)
    zero_fraction = np.mean(out == 0)
    assert 0.3 < zero_fraction < 0.7
    # Inverted dropout preserves the expected value.
    assert out.mean() == pytest.approx(1.0, rel=0.1)


def test_dropout_backward_uses_same_mask(rng):
    layer = Dropout(0.5, seed=0)
    x = rng.normal(size=(20, 20))
    out = layer.forward(x, training=True)
    grad = layer.backward(np.ones_like(x))
    np.testing.assert_array_equal(grad == 0, out == 0)


def test_dropout_invalid_rate():
    with pytest.raises(ConfigurationError):
        Dropout(1.0)
    with pytest.raises(ConfigurationError):
        Dropout(-0.1)


# -- BatchNorm1d ------------------------------------------------------------------------
def test_batchnorm_normalises_batch(rng):
    layer = BatchNorm1d(4)
    x = rng.normal(loc=5.0, scale=3.0, size=(64, 4))
    out = layer.forward(x, training=True)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)  # float32 compute
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)


def test_batchnorm_gradients(rng):
    layer = BatchNorm1d(3)
    check_layer_gradients(layer, rng.normal(size=(8, 3)), atol=1e-4)


def test_batchnorm_eval_uses_running_stats(rng):
    layer = BatchNorm1d(2, momentum=0.0)  # running stats = last batch stats
    x = rng.normal(loc=2.0, size=(32, 2))
    layer.forward(x, training=True)
    out_eval = layer.forward(x, training=False)
    out_train = layer.forward(x, training=True)
    np.testing.assert_allclose(out_eval, out_train, atol=1e-6)


def test_batchnorm_state_dict_includes_running_stats(rng):
    layer = BatchNorm1d(2)
    layer.forward(rng.normal(size=(16, 2)), training=True)
    state = layer.state_dict()
    assert any("running_mean" in k for k in state)
    fresh = BatchNorm1d(2)
    fresh.load_state_dict(state)
    np.testing.assert_array_equal(fresh.running_mean, layer.running_mean)


def test_batchnorm_shape_validation(rng):
    with pytest.raises(ValueError):
        BatchNorm1d(3).forward(rng.normal(size=(4, 5)))


# -- freeze/unfreeze --------------------------------------------------------------------
def test_freeze_and_unfreeze():
    layer = Dense(3, 2)
    layer.freeze()
    assert all(not p.trainable for p in layer.parameters())
    layer.unfreeze()
    assert all(p.trainable for p in layer.parameters())


def test_state_dict_roundtrip_dense(rng):
    a = Dense(4, 3, seed=0)
    b = Dense(4, 3, seed=99)
    b.load_state_dict(a.state_dict())
    x = rng.normal(size=(2, 4))
    np.testing.assert_allclose(a.forward(x), b.forward(x))


def test_load_state_dict_shape_mismatch():
    a = Dense(4, 3, seed=0, name="d")
    bad_state = {k: v[:2] for k, v in a.state_dict().items()}
    with pytest.raises((ValueError, KeyError)):
        a.load_state_dict(bad_state)
