"""Frozen pre-optimisation reference implementations.

This module preserves the original float64 compute-plane code paths exactly
as they were before the vectorised float32 engine landed:

* :func:`reference_im2col` / :func:`reference_col2im` — the index-gather
  im2col and the ``np.add.at`` scatter col2im, used as golden references for
  the ``sliding_window_view`` rewrite,
* :class:`LegacyConv2D` — a Conv2D computing through those kernels with
  per-call float64 casts and no workspace reuse,
* ``LegacyDense`` / ``LegacyReLU`` / ``LegacyLeakyReLU`` / ``LegacyDropout``
  / ``LegacyFlatten`` / ``LegacyReshape`` / ``LegacySoftmax`` /
  ``LegacySigmoid`` — the original float64 layer bodies with their
  ``np.asarray(..., dtype=np.float64)`` per-call casts and eagerly
  materialised masks,
* :class:`LoopedSGD` / :class:`LoopedAdam` — the per-parameter Python-loop
  optimizers with dict-keyed state,
* :func:`looped_mc_dropout_predict` — one forward pass per MC sample,
* :func:`legacy_variant` — clone a model onto the legacy path,

so the training-throughput benchmark measures the new engine against the
*actual* pre-PR behaviour rather than a strawman, and the equivalence tests
pin the new math to the old.  It lives outside the package: only that
benchmark and ``tests/test_nn_fast_compute.py`` import it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    ReLU,
    Reshape,
    Sigmoid,
    Softmax,
)
from repro.nn.network import Sequential
from repro.nn.parameter import Parameter
from repro.utils.errors import ConfigurationError


# ---------------------------------------------------------------------------
# im2col / col2im (index-gather + np.add.at formulation)
# ---------------------------------------------------------------------------
def _im2col_indices(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Compute gather indices for the im2col transform of an NCHW tensor."""
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def reference_im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Original fancy-index im2col: output ``(C*kh*kw, N*out_h*out_w)``."""
    n, c, h, w = x.shape
    x_padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    k, i, j, out_h, out_w = _im2col_indices(x.shape, kh, kw, stride, pad)
    cols = x_padded[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    cols = cols.transpose(1, 2, 0).reshape(c * kh * kw, -1)
    return cols, out_h, out_w


def reference_col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Original ``np.add.at`` scatter col2im (inverse of reference_im2col)."""
    n, c, h, w = x_shape
    h_padded, w_padded = h + 2 * pad, w + 2 * pad
    x_padded = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)
    k, i, j, out_h, out_w = _im2col_indices(x_shape, kh, kw, stride, pad)
    cols_reshaped = cols.reshape(c * kh * kw, out_h * out_w, n).transpose(2, 0, 1)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if pad == 0:
        return x_padded
    return x_padded[:, :, pad:-pad, pad:-pad]


# ---------------------------------------------------------------------------
# Legacy layers / models
# ---------------------------------------------------------------------------
class LegacyConv2D(Conv2D):
    """Conv2D on the original float64 kernels (per-call allocations)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("dtype", np.float64)
        super().__init__(*args, **kwargs)
        self._legacy_cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"Conv2D expects NCHW input, got shape {x.shape}")
        n = x.shape[0]
        k = self.kernel_size
        cols, out_h, out_w = reference_im2col(x, k, k, self.stride, self.padding)
        w_col = self.weight.data.reshape(self.out_channels, -1)
        out = w_col @ cols  # (out_channels, N*out_h*out_w)
        if self.bias is not None:
            out = out + self.bias.data[:, None]
        out = out.reshape(self.out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)
        self._legacy_cache = (cols, x.shape, out_h, out_w) if training else None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._legacy_cache is None:
            raise RuntimeError("backward() called before a training forward pass")
        cols, x_shape, out_h, out_w = self._legacy_cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        k = self.kernel_size
        grad_flat = grad_output.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=1)
        self.weight.grad += (grad_flat @ cols.T).reshape(self.weight.data.shape)
        w_col = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = w_col.T @ grad_flat
        return reference_col2im(grad_cols, x_shape, k, k, self.stride, self.padding)

    def backward_params_only(self, grad_output: np.ndarray) -> None:
        # Pre-PR code had no first-layer shortcut; keep paying the full cost.
        self.backward(grad_output)


class LegacyDense(Dense):
    """Original Dense: per-call float64 casts, out-of-place bias add."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("dtype", np.float64)
        super().__init__(*args, **kwargs)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._x = x if training else None
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training forward pass")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += self._x.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T

    def backward_params_only(self, grad_output: np.ndarray) -> None:
        # Pre-PR code had no first-layer shortcut; keep paying the full cost.
        self.backward(grad_output)


class LegacyReLU(ReLU):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output) * self._mask


class LegacyLeakyReLU(LeakyReLU):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.asarray(grad_output) * np.where(self._mask, 1.0, self.negative_slope)


class LegacyDropout(Dropout):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_output)
        return np.asarray(grad_output) * self._mask


class LegacyFlatten(Flatten):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)


class LegacyReshape(Reshape):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)


class LegacySoftmax(Softmax):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._out = exp / exp.sum(axis=-1, keepdims=True)
        return self._out


class LegacySigmoid(Sigmoid):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return super().forward(x, training=training)


def _legacy_layer(layer: Layer) -> Layer:
    """Frozen pre-PR counterpart of ``layer``, sharing its (float64) params."""
    if type(layer) is Conv2D:
        legacy = LegacyConv2D(
            layer.in_channels,
            layer.out_channels,
            kernel_size=layer.kernel_size,
            stride=layer.stride,
            padding=layer.padding,
            bias=layer.bias is not None,
            name=layer.name,
        )
        legacy.weight = layer.weight
        if layer.bias is not None:
            legacy.bias = layer.bias
        return legacy
    if type(layer) is Dense:
        legacy = LegacyDense(
            layer.in_features, layer.out_features, bias=layer.bias is not None, name=layer.name
        )
        legacy.weight = layer.weight
        if layer.bias is not None:
            legacy.bias = layer.bias
        return legacy
    if type(layer) is ReLU:
        return LegacyReLU(name=layer.name, dtype=np.float64)
    if type(layer) is LeakyReLU:
        return LegacyLeakyReLU(layer.negative_slope, name=layer.name, dtype=np.float64)
    if type(layer) is Dropout:
        legacy = LegacyDropout(layer.rate, name=layer.name, dtype=np.float64)
        legacy._rng = layer._rng  # share the stream so runs stay comparable
        return legacy
    if type(layer) is Flatten:
        return LegacyFlatten(name=layer.name, dtype=np.float64)
    if type(layer) is Reshape:
        return LegacyReshape(layer.target_shape, name=layer.name, dtype=np.float64)
    if type(layer) is Softmax:
        return LegacySoftmax(name=layer.name, dtype=np.float64)
    if type(layer) is Sigmoid:
        return LegacySigmoid(name=layer.name, dtype=np.float64)
    return layer


def legacy_variant(model: Sequential) -> Sequential:
    """Clone ``model`` onto the pre-PR path: the original float64 layer
    bodies (per-call casts, eager masks, ``np.add.at`` conv backward).

    Weights are copied (cast up to float64), so a legacy clone started from
    the same seed as a float32 model agrees with it to float32 rounding.
    """
    clone = model.clone().to_dtype(np.float64)
    return Sequential(
        [_legacy_layer(layer) for layer in clone.layers], name=f"{model.name}-legacy"
    )


# ---------------------------------------------------------------------------
# Legacy optimizers (per-parameter Python loops, dict-keyed state)
# ---------------------------------------------------------------------------
class _LoopedOptimizer:
    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)


class LoopedSGD(_LoopedOptimizer):
    """The original per-parameter SGD with optional momentum/weight decay."""

    def __init__(self, parameters, lr=1e-2, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.parameters:
            if not p.trainable:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                v = v * self.momentum
                v -= self.lr * grad
                self._velocity[id(p)] = v
                p.data += v
            else:
                p.data -= self.lr * grad


class LoopedAdam(_LoopedOptimizer):
    """The original per-parameter Adam with dict-keyed moment buffers."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        t = self._t
        for p in self.parameters:
            if not p.trainable:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad**2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Legacy MC dropout
# ---------------------------------------------------------------------------
def looped_mc_dropout_predict(
    model: Sequential, x: np.ndarray, n_samples: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Original MC dropout: one full forward pass per stochastic sample."""
    x = np.asarray(x, dtype=np.float64)
    draws = np.stack(
        [model.forward(x, training=True) for _ in range(n_samples)], axis=0
    )
    return draws.mean(axis=0), draws.std(axis=0)
