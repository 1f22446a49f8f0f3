"""Neural-network layers with vectorised forward and backward passes.

Every layer follows the same protocol:

* ``forward(x, training)`` returns the layer output and caches whatever is
  needed for the backward pass,
* ``backward(grad_output)`` accumulates parameter gradients into
  ``Parameter.grad`` and returns the gradient with respect to the input,
* ``parameters()`` lists the layer's trainable parameters.

All layers compute in the dtype of the active
:class:`~repro.nn.dtype.DtypePolicy` (float32 by default, float64 opt-in via
the ``dtype`` constructor argument or :func:`repro.nn.dtype.dtype_scope`).
Input casts are copy-free when the dtype already matches.

Convolutions are one matrix multiply per pass on a flattened shift layout
(see :class:`_ConvWorkspace`): each kernel offset is one contiguous slice of
the padded input, so the gather and the backward scatter are ``kh * kw``
contiguous copies / adds into reusable per-(shape, dtype) workspaces, and
steady-state training reallocates none of its big intermediates per batch.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn import init as initializers
from repro.nn.dtype import DtypeLike, resolve_dtype
from repro.nn.parameter import Parameter
from repro.utils.errors import ConfigurationError
from repro.utils.rng import SeedLike, default_rng


class Layer:
    """Base class for all layers."""

    def __init__(self, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        self.name = name or type(self).__name__
        self.training = True
        self.dtype = resolve_dtype(dtype)

    # -- protocol -----------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params_only(self, grad_output: np.ndarray) -> None:
        """Accumulate parameter gradients without forming the input gradient.

        Called for the *first* layer of a network being trained end-to-end,
        where the input gradient would be discarded.  Layers with an
        expensive input-gradient path (Conv2D's scatter) override this.
        """
        self.backward(grad_output)

    def parameters(self) -> List[Parameter]:
        return []

    # -- dtype --------------------------------------------------------------
    def _cast(self, x) -> np.ndarray:
        """Cast ``x`` to this layer's compute dtype (no copy when it matches)."""
        arr = np.asarray(x)
        if arr.dtype == self.dtype:
            return arr
        return arr.astype(self.dtype)

    def to_dtype(self, dtype: DtypeLike) -> "Layer":
        """Switch the layer (parameters included) to a new compute dtype."""
        self.dtype = np.dtype(dtype)
        for p in self.parameters():
            p.astype(self.dtype)
        self._on_dtype_change()
        return self

    def _on_dtype_change(self) -> None:
        """Hook for subclasses holding extra dtype-bound state (buffers, stats)."""

    # -- convenience --------------------------------------------------------
    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def freeze(self) -> None:
        """Mark all parameters as non-trainable (used when fine-tuning)."""
        for p in self.parameters():
            p.trainable = False

    def unfreeze(self) -> None:
        for p in self.parameters():
            p.trainable = True

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            value = np.asarray(state[p.name])
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: expected {p.data.shape}, got {value.shape}"
                )
            p.data[...] = value  # in-place so packed-optimizer views stay live

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# Dense / fully connected
# ---------------------------------------------------------------------------
class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: SeedLike = None,
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ):
        super().__init__(name, dtype=dtype)
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.he_normal(
                (in_features, out_features), fan_in=in_features, seed=seed, dtype=self.dtype
            ),
            name=f"{self.name}.weight",
            dtype=self.dtype,
        )
        self.bias = (
            Parameter(
                initializers.zeros((out_features,), dtype=self.dtype),
                name=f"{self.name}.bias",
                dtype=self.dtype,
            )
            if bias
            else None
        )
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        if x.ndim != 2:
            raise ValueError(f"Dense expects 2-D input (batch, features), got shape {x.shape}")
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense {self.name!r}: expected {self.in_features} features, got {x.shape[1]}"
            )
        self._x = x if training else None
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params_only(grad_output)
        return self._cast(grad_output) @ self.weight.data.T

    def backward_params_only(self, grad_output: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward() called before a training forward pass")
        grad_output = self._cast(grad_output)
        self.weight.grad += self._x.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)

    def parameters(self) -> List[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])


# ---------------------------------------------------------------------------
# Convolution as a flattened shift
# ---------------------------------------------------------------------------
def conv_output_size(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> Tuple[int, int]:
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


class _ConvWorkspace:
    """Reusable buffers for one ``(input shape, dtype)`` of a Conv2D layer.

    Held per layer and per thread (so concurrent inference through the
    serving plane stays safe); steady-state training re-uses these large
    intermediates instead of reallocating them per batch.

    The padded input ``xpt`` is kept channel-first (``(c, n, Hp, Wp)``) and
    read as one row of length ``L = n * Hp * Wp`` per channel.  Kernel offset
    ``(ki, kj)`` is then the contiguous slice ``[ki*Wp + kj : ki*Wp + kj + m]``
    of every row, with ``m = L - ((kh-1)*Wp + kw-1)``: ``cols`` holds those
    ``kh * kw`` slices as ``(c, kh*kw, m)``.  The forward GEMM writes the
    first ``m`` flat positions of a padded ``(oc, n, Hp, Wp)`` output grid (a
    per-call temporary, so idle inference workspaces do not hold it), and
    only ``[:, :, :s*oh:s, :s*ow:s]`` are valid outputs.  Every other column
    mixes pixels across rows or samples and is never read.

    Two buffers carry zeros as an invariant: the padding border of ``xpt``
    (the forward only rewrites the interior) and every non-output position
    of ``grad_grid`` (the backward only writes the output positions), which
    keeps the junk columns out of both gradients.  The backward writes the
    column gradient into ``cols`` once the weight gradient has read it.
    """

    __slots__ = ("x_shape", "out_h", "out_w", "m", "offsets", "xpt", "cols", "grad_grid", "gxt")

    def __init__(
        self,
        x_shape: Tuple[int, int, int, int],
        oc: int,
        kh: int,
        kw: int,
        stride: int,
        pad: int,
        dtype: np.dtype,
    ):
        n, c, h, w = x_shape
        hp, wp = h + 2 * pad, w + 2 * pad
        self.x_shape = x_shape
        self.out_h, self.out_w = conv_output_size(h, w, kh, kw, stride, pad)
        self.m = n * hp * wp - ((kh - 1) * wp + kw - 1)
        self.offsets = [ki * wp + kj for ki in range(kh) for kj in range(kw)]
        self.xpt = np.zeros((c, n, hp, wp), dtype=dtype)
        self.cols = np.empty((c, kh * kw, self.m), dtype=dtype)
        self.grad_grid = np.zeros((oc, n, hp, wp), dtype=dtype)
        self.gxt = np.empty((c, n, hp, wp), dtype=dtype)


class Conv2D(Layer):
    """2-D convolution over NCHW tensors as one matrix multiply per pass.

    See :class:`_ConvWorkspace` for the flattened shift layout: the gather
    and the scatter are ``kh * kw`` contiguous slice copies/adds, and a
    stride above one computes the dense grid and keeps every ``stride``-th
    position.
    """

    #: Workspaces kept per (shape, dtype), LRU-evicted; bounds per-layer
    #: buffer memory while covering the batch-size mix a micro-batching
    #: serving plane produces.
    _MAX_WORKSPACES = 8

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: SeedLike = None,
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ):
        super().__init__(name, dtype=dtype)
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ConfigurationError("invalid kernel_size/stride/padding")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            initializers.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in=fan_in,
                seed=seed,
                dtype=self.dtype,
            ),
            name=f"{self.name}.weight",
            dtype=self.dtype,
        )
        self.bias = (
            Parameter(
                initializers.zeros((out_channels,), dtype=self.dtype),
                name=f"{self.name}.bias",
                dtype=self.dtype,
            )
            if bias
            else None
        )
        self._local = threading.local()
        self._cache: Optional[_ConvWorkspace] = None

    def _on_dtype_change(self) -> None:
        self._local = threading.local()
        self._cache = None

    def __getstate__(self):
        # Workspaces are transient compute buffers: drop them when the model
        # is pickled (Sequential.to_bytes / clone / model-zoo persistence).
        state = self.__dict__.copy()
        state["_local"] = None
        state["_cache"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    def _workspace(self, x_shape: Tuple[int, int, int, int], dtype: np.dtype) -> _ConvWorkspace:
        store: Dict[tuple, _ConvWorkspace] = getattr(self._local, "ws", None)
        if store is None:
            store = {}
            self._local.ws = store
        key = (x_shape, dtype)
        ws = store.pop(key, None)  # re-insert below: dict order is the LRU order
        if ws is None:
            if len(store) >= self._MAX_WORKSPACES:
                store.pop(next(iter(store)))
            ws = _ConvWorkspace(
                x_shape, self.out_channels, self.kernel_size, self.kernel_size,
                self.stride, self.padding, dtype,
            )
        store[key] = ws
        return ws

    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.padding
        return conv_output_size(h, w, k, k, s, p)

    def _outputs(self, grid: np.ndarray, ws: _ConvWorkspace) -> np.ndarray:
        """View of the valid output positions of an ``(oc, n, Hp, Wp)`` grid."""
        s = self.stride
        return grid[:, :, : s * ws.out_h : s, : s * ws.out_w : s]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        if x.ndim != 4:
            raise ValueError(f"Conv2D expects NCHW input, got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D {self.name!r}: expected {self.in_channels} channels, got {x.shape[1]}"
            )
        n, c, h, w = x.shape
        oc, p = self.out_channels, self.padding
        ws = self._workspace(x.shape, x.dtype)
        m = ws.m
        np.copyto(ws.xpt[:, :, p : p + h, p : p + w], x.transpose(1, 0, 2, 3))
        rows = ws.xpt.reshape(c, -1)
        for o, off in enumerate(ws.offsets):
            np.copyto(ws.cols[:, o], rows[:, off : off + m])
        w_col = self.weight.data.reshape(oc, -1)
        grid = np.empty((oc,) + ws.xpt.shape[1:], dtype=x.dtype)
        np.matmul(w_col, ws.cols.reshape(-1, m), out=grid.reshape(oc, -1)[:, :m])
        out = np.empty((n, oc, ws.out_h, ws.out_w), dtype=x.dtype)
        valid = self._outputs(grid, ws).transpose(1, 0, 2, 3)
        if self.bias is not None:
            np.add(valid, self.bias.data[:, None, None], out=out)
        else:
            np.copyto(out, valid)
        # The workspace doubles as the backward cache; backward must follow
        # its own training forward (the Trainer's loop guarantees this).
        self._cache = ws if training else None
        return out

    def _backward_param_grads(self, grad_output: np.ndarray) -> Tuple[_ConvWorkspace, np.ndarray]:
        ws = self._cache
        if ws is None:
            raise RuntimeError("backward() called before a training forward pass")
        # The backward reads (and overwrites) the forward's columns: one
        # backward per training forward.
        self._cache = None
        oc = self.out_channels
        np.copyto(self._outputs(ws.grad_grid, ws), grad_output.transpose(1, 0, 2, 3))
        grad_flat = ws.grad_grid.reshape(oc, -1)[:, : ws.m]
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))
        cols2 = ws.cols.reshape(-1, ws.m)
        self.weight.grad += (cols2 @ grad_flat.T).T.reshape(self.weight.data.shape)
        return ws, grad_flat

    def backward_params_only(self, grad_output: np.ndarray) -> None:
        self._backward_param_grads(self._cast(grad_output))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        ws, grad_flat = self._backward_param_grads(self._cast(grad_output))
        n, c, h, w = ws.x_shape
        p, m = self.padding, ws.m
        w_col = self.weight.data.reshape(self.out_channels, -1)
        np.matmul(w_col.T, grad_flat, out=ws.cols.reshape(-1, m))
        gx = ws.gxt
        gx.fill(0)
        rows = gx.reshape(c, -1)
        for o, off in enumerate(ws.offsets):
            rows[:, off : off + m] += ws.cols[:, o]
        # Copy out of the reusable workspace so callers may hold the gradient.
        return np.ascontiguousarray(gx[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3))

    def parameters(self) -> List[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])


class MaxPool2D(Layer):
    """Max pooling over non-overlapping windows of an NCHW tensor."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        super().__init__(name, dtype=dtype)
        if pool_size <= 0:
            raise ConfigurationError("pool_size must be positive")
        self.pool_size = pool_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p != 0 or w % p != 0:
            raise ValueError(
                f"MaxPool2D: spatial dims ({h}, {w}) must be divisible by pool_size={p}"
            )
        x_resh = x.reshape(n, c, h // p, p, w // p, p)
        out = x_resh.max(axis=(3, 5))
        if training:
            mask = x_resh == out[:, :, :, None, :, None]
            # Break ties so each window contributes exactly one gradient path.
            self._cache = (mask, x.shape)
        else:
            self._cache = None
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before a training forward pass")
        mask, x_shape = self._cache
        n, c, h, w = x_shape
        grad = self._cast(grad_output)[:, :, :, None, :, None] * mask
        # Normalise ties: divide by the number of maxima per window.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        grad = grad / np.maximum(counts, 1)
        return grad.reshape(n, c, h, w)


# ---------------------------------------------------------------------------
# Shape utilities
# ---------------------------------------------------------------------------
class Flatten(Layer):
    """Flatten all dimensions but the batch dimension."""

    def __init__(self, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        super().__init__(name, dtype=dtype)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward() called before forward()")
        return np.asarray(grad_output).reshape(self._shape)


class Reshape(Layer):
    """Reshape per-sample features to a target shape (excluding batch dim)."""

    def __init__(
        self,
        target_shape: Tuple[int, ...],
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ):
        super().__init__(name, dtype=dtype)
        self.target_shape = tuple(int(s) for s in target_shape)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward() called before forward()")
        return np.asarray(grad_output).reshape(self._shape)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------
class ReLU(Layer):
    """``max(x, 0)``.

    The forward pass is a single ``np.maximum`` (no boolean mask is
    materialised); the backward mask is derived lazily from the cached input,
    so inference-only forwards — including folded MC-dropout probes — pay no
    mask cost at all.
    """

    def __init__(self, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        super().__init__(name, dtype=dtype)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        self._x = x if training else None
        return np.maximum(x, 0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training forward pass")
        return self._cast(grad_output) * (self._x > 0)


class LeakyReLU(Layer):
    """``x`` for positive inputs, ``negative_slope * x`` otherwise.

    For ``negative_slope < 1`` this equals ``max(x, negative_slope * x)`` —
    two vector ops, no boolean mask; the backward mask is derived lazily from
    the cached input (see :class:`ReLU`).
    """

    def __init__(
        self,
        negative_slope: float = 0.01,
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ):
        super().__init__(name, dtype=dtype)
        if not 0.0 <= negative_slope < 1.0:
            raise ConfigurationError("negative_slope must be in [0, 1)")
        self.negative_slope = float(negative_slope)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        self._x = x if training else None
        scaled = x * self.dtype.type(self.negative_slope)
        return np.maximum(x, scaled, out=scaled)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training forward pass")
        g = self._cast(grad_output)
        # g*(x>0) + slope*g*(x<=0): bit-identical to np.where(x > 0, g,
        # slope*g) but as float multiplies, which run faster than a select.
        pos = self._x > 0
        out = g * pos
        neg = g * self.dtype.type(self.negative_slope)
        neg *= np.logical_not(pos, out=pos)
        out += neg
        return out


class Sigmoid(Layer):
    def __init__(self, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        super().__init__(name, dtype=dtype)
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        exp_x = np.exp(x[~pos])
        out[~pos] = exp_x / (1.0 + exp_x)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        return self._cast(grad_output) * self._out * (1.0 - self._out)


class Tanh(Layer):
    def __init__(self, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        super().__init__(name, dtype=dtype)
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._out = np.tanh(self._cast(x))
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        return self._cast(grad_output) * (1.0 - self._out**2)


class Softmax(Layer):
    """Row-wise softmax (used as the output of the CookieNetAE PDF head)."""

    def __init__(self, name: Optional[str] = None, dtype: Optional[DtypeLike] = None):
        super().__init__(name, dtype=dtype)
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._out = exp / exp.sum(axis=-1, keepdims=True)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        g = self._cast(grad_output)
        s = self._out
        dot = np.sum(g * s, axis=-1, keepdims=True)
        return s * (g - dot)


# ---------------------------------------------------------------------------
# Regularisation / normalisation
# ---------------------------------------------------------------------------
class Dropout(Layer):
    """Inverted dropout.

    In addition to its usual regularisation role this layer powers MC-dropout
    uncertainty quantification: calling the network with ``training=True`` (or
    via :func:`repro.nn.mc_dropout.mc_dropout_predict`) keeps dropout active at
    inference time so repeated stochastic forward passes give a predictive
    distribution.

    The random draw is always a float64 stream consumed row-major, so one
    draw over a ``(n_samples * batch, ...)`` folded input consumes the exact
    same numbers as ``n_samples`` sequential draws over ``(batch, ...)`` —
    the identity the batched MC-dropout path relies on.
    """

    def __init__(
        self,
        rate: float = 0.5,
        seed: SeedLike = None,
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ):
        super().__init__(name, dtype=dtype)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype)
        mask *= x.dtype.type(1.0 / keep)
        self._mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_output)
        return self._cast(grad_output) * self._mask


class BatchNorm1d(Layer):
    """Batch normalisation over the feature dimension of a 2-D input."""

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.9,
        eps: float = 1e-5,
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ):
        super().__init__(name, dtype=dtype)
        self.num_features = num_features
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(
            initializers.ones((num_features,), dtype=self.dtype),
            name=f"{self.name}.gamma",
            dtype=self.dtype,
        )
        self.beta = Parameter(
            initializers.zeros((num_features,), dtype=self.dtype),
            name=f"{self.name}.beta",
            dtype=self.dtype,
        )
        self.running_mean = np.zeros(num_features, dtype=self.dtype)
        self.running_var = np.ones(num_features, dtype=self.dtype)
        self._cache = None

    def _on_dtype_change(self) -> None:
        self.running_mean = self.running_mean.astype(self.dtype)
        self.running_var = self.running_var.astype(self.dtype)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._cast(x)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects (batch, {self.num_features}) input, got {x.shape}"
            )
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * var
            x_hat = (x - mean) / np.sqrt(var + self.eps)
            self._cache = (x_hat, var)
        else:
            x_hat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
            self._cache = None
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before a training forward pass")
        x_hat, var = self._cache
        g = self._cast(grad_output)
        n = g.shape[0]
        self.gamma.grad += np.sum(g * x_hat, axis=0)
        self.beta.grad += np.sum(g, axis=0)
        dxhat = g * self.gamma.data
        inv_std = 1.0 / np.sqrt(var + self.eps)
        return (
            inv_std / n
        ) * (n * dxhat - dxhat.sum(axis=0) - x_hat * np.sum(dxhat * x_hat, axis=0))

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        state[f"{self.name}.running_mean"] = self.running_mean.copy()
        state[f"{self.name}.running_var"] = self.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(
            {k: v for k, v in state.items() if k in (self.gamma.name, self.beta.name)}
        )
        if f"{self.name}.running_mean" in state:
            self.running_mean = self._cast(state[f"{self.name}.running_mean"]).copy()
        if f"{self.name}.running_var" in state:
            self.running_var = self._cast(state[f"{self.name}.running_var"]).copy()
