"""Gradient-descent optimizers operating on :class:`repro.nn.parameter.Parameter`.

Parameters are *packed*: at construction each optimizer concatenates the
parameters (grouped by dtype) into one flat ``data`` buffer and one flat
``grad`` buffer, and rebinds every ``Parameter.data``/``Parameter.grad`` to a
reshaped view into those buffers.  Layer code is oblivious — it keeps reading
and in-place-writing through the ``Parameter`` — while ``step()`` becomes a
handful of fused whole-buffer vector operations instead of a Python loop with
per-parameter dict lookups, and ``zero_grad()`` a single ``fill``.  Optimizer
state (momentum / Adam moments) lives in flat buffers of the same layout.

When some parameters are frozen (fine-tuning), the update runs per trainable
1-D slice of the packed buffer instead — still vectorised, just not fused
across parameters.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.nn.parameter import Parameter
from repro.utils.errors import ConfigurationError


class _ParamPack:
    """Flat ``data``/``grad`` buffers backing a group of same-dtype parameters."""

    __slots__ = ("params", "data", "grad", "slices", "_scratch")

    def __init__(self, params: Sequence[Parameter]):
        self.params: List[Parameter] = list(params)
        dtype = self.params[0].data.dtype
        total = sum(p.size for p in self.params)
        self.data = np.empty(total, dtype=dtype)
        self.grad = np.empty(total, dtype=dtype)
        self.slices: List[slice] = []
        offset = 0
        for p in self.params:
            sl = slice(offset, offset + p.size)
            self.slices.append(sl)
            self.data[sl] = p.data.reshape(-1)
            self.grad[sl] = p.grad.reshape(-1)
            # Rebind the parameter onto the pack; layers keep working through
            # the Parameter object, so every in-place update lands here.
            p.data = self.data[sl].reshape(p.data.shape)
            p.grad = self.grad[sl].reshape(p.grad.shape)
            offset += p.size
        self._scratch: Dict[str, np.ndarray] = {}

    def scratch(self, key: str) -> np.ndarray:
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty_like(self.data)
            self._scratch[key] = buf
        return buf

    def attached(self) -> bool:
        """True while every parameter still views this pack's buffers.

        A later optimizer (e.g. a fine-tuning phase) may repack the same
        parameters into new buffers; this pack then goes stale and updates
        through it would be lost.
        """
        return all(
            p.data.base is self.data and p.grad.base is self.grad for p in self.params
        )

    def all_trainable(self) -> bool:
        return all(p.trainable for p in self.params)

    def trainable_slices(self) -> List[slice]:
        """Maximal contiguous runs of trainable parameters (merged slices)."""
        runs: List[slice] = []
        start = None
        end = 0
        for p, sl in zip(self.params, self.slices):
            if p.trainable:
                if start is None:
                    start = sl.start
                end = sl.stop
            elif start is not None:
                runs.append(slice(start, end))
                start = None
        if start is not None:
            runs.append(slice(start, end))
        return runs


class Optimizer:
    """Base optimizer.

    Parameters flagged ``trainable=False`` (frozen during fine-tuning) are
    skipped by :meth:`step` but still zeroed by :meth:`zero_grad` so that
    gradient accumulation stays bounded.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._packs = self._build_packs(self.parameters)

    @staticmethod
    def _build_packs(parameters: Sequence[Parameter]) -> List[_ParamPack]:
        groups: Dict[np.dtype, List[Parameter]] = {}
        seen = set()
        for p in parameters:
            if id(p) in seen:  # a parameter listed twice packs (and steps) once
                continue
            seen.add(id(p))
            groups.setdefault(p.data.dtype, []).append(p)
        return [_ParamPack(group) for group in groups.values()]

    def step(self) -> None:
        for pack in self._packs:
            if not pack.attached():  # repacked by a newer optimizer; fall back
                self._step_detached(pack)
                continue
            if pack.all_trainable():
                self._apply(pack, slice(0, pack.data.size))
            else:
                for sl in pack.trainable_slices():
                    self._apply(pack, sl)

    def _step_detached(self, pack: _ParamPack) -> None:
        """Per-parameter fallback when the pack's views have been superseded."""
        for p, sl in zip(pack.params, pack.slices):
            if not p.trainable:
                continue
            pack.data[sl] = p.data.reshape(-1)
            pack.grad[sl] = p.grad.reshape(-1)
            self._apply(pack, sl)
            p.data[...] = pack.data[sl].reshape(p.data.shape)

    def _apply(self, pack: _ParamPack, sl: slice) -> None:
        """Fused in-place update of ``pack.data[sl]`` from ``pack.grad[sl]``."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        for pack in self._packs:
            if pack.attached():
                pack.grad.fill(0.0)
            else:
                for p in pack.params:
                    p.zero_grad()

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        super().__init__(parameters, lr)
        self._velocity: Dict[int, np.ndarray] = {
            id(pack): np.zeros_like(pack.data) for pack in self._packs
        }

    def _apply(self, pack: _ParamPack, sl: slice) -> None:
        theta = pack.data[sl]
        grad = pack.grad[sl]
        if self.weight_decay:
            g_eff = pack.scratch("wd")[sl]
            np.multiply(theta, self.weight_decay, out=g_eff)
            g_eff += grad
        else:
            g_eff = grad
        if self.momentum:
            v = self._velocity[id(pack)][sl]
            v *= self.momentum
            step = pack.scratch("step")[sl]
            np.multiply(g_eff, self.lr, out=step)
            v -= step
            theta += v
        else:
            step = pack.scratch("step")[sl]
            np.multiply(g_eff, self.lr, out=step)
            theta -= step


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        super().__init__(parameters, lr)
        self._m: Dict[int, np.ndarray] = {
            id(pack): np.zeros_like(pack.data) for pack in self._packs
        }
        self._v: Dict[int, np.ndarray] = {
            id(pack): np.zeros_like(pack.data) for pack in self._packs
        }
        self._t = 0

    def step(self) -> None:
        self._t += 1
        super().step()

    def _apply(self, pack: _ParamPack, sl: slice) -> None:
        theta = pack.data[sl]
        grad = pack.grad[sl]
        t = self._t
        if self.weight_decay:
            g_eff = pack.scratch("wd")[sl]
            np.multiply(theta, self.weight_decay, out=g_eff)
            g_eff += grad
        else:
            g_eff = grad
        m = self._m[id(pack)][sl]
        v = self._v[id(pack)][sl]
        ws = pack.scratch("ws")[sl]
        # m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2, all in place.
        m *= self.beta1
        np.multiply(g_eff, 1.0 - self.beta1, out=ws)
        m += ws
        v *= self.beta2
        np.multiply(g_eff, g_eff, out=ws)
        ws *= 1.0 - self.beta2
        v += ws
        # theta <- theta - lr/(1-b1^t) * m / (sqrt(v)/sqrt(1-b2^t) + eps), the
        # corrections as Python floats (a float64 scalar would cast float32 ws).
        np.sqrt(v, out=ws)
        ws *= 1.0 / math.sqrt(1.0 - self.beta2**t)
        ws += self.eps
        np.divide(m, ws, out=ws)
        ws *= self.lr / (1.0 - self.beta1**t)
        theta -= ws
