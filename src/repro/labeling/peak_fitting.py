"""Conventional peak labeling via pseudo-Voigt least-squares fitting.

This is the repository's stand-in for the MIDAS pseudo-Voigt code: given a
patch containing one Bragg peak, recover the sub-pixel centre of mass by
fitting the full 2-D pseudo-Voigt model with non-linear least squares.  It is
deliberately the *expensive* path (a full optimisation per peak) so the
labeling-time comparison against fairDS pseudo-labeling is meaningful.

Every patch of a stack shares one model and one pixel grid, so the fits run
as one batched, bound-projected Levenberg–Marquardt solve (Marquardt, SIAM J.
Appl. Math. 1963), laid out the way Gpufit lays out its GPU kernels
(Przybylski et al., Sci. Rep. 2017): an ``(n, 7)`` parameter block, analytic
Jacobians, one batched ``JᵀJ`` and ``np.linalg.solve`` over ``(n, 7, 7)``,
a damping factor per patch, and an active set of the patches still iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.labeling.pseudo_voigt import PeakParameters
from repro.utils.errors import ValidationError

#: Stop rules, at the usual trust-region defaults: relative cost decrease
#: (``ftol``), relative step (``xtol``) and the projected gradient (``gtol``).
_FTOL = _XTOL = _GTOL = 1e-8


@dataclass
class FitResult:
    """Outcome of fitting a single patch.

    ``converged`` says a stop rule (cost decrease, step or gradient) ended the
    fit before ``max_iter``; ``n_evaluations`` counts its iterations.
    """

    center: Tuple[float, float]
    params: PeakParameters
    residual_norm: float
    converged: bool
    n_evaluations: int

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=np.float64)


def _stack(patches: np.ndarray) -> np.ndarray:
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim == 4 and patches.shape[1] == 1:
        patches = patches[:, 0]
    if patches.ndim != 3:
        raise ValidationError(f"expected (n, H, W) patches, got shape {patches.shape}")
    return patches


def _centroids(patches: np.ndarray) -> np.ndarray:
    """Background-subtracted intensity-weighted centroids of an ``(n, H, W)``
    stack, as ``(n, 2)``; a patch with no signal gets its grid centre."""
    n, rows, cols = patches.shape
    work = patches - patches.min(axis=(1, 2), keepdims=True)
    total = work.reshape(n, rows * cols).sum(axis=1)
    out = np.empty((n, 2))
    out[:] = ((rows - 1) / 2.0, (cols - 1) / 2.0)
    has = total > 0
    # Row-wise products and sums, not a matrix-vector product, so a patch's
    # centroid is the same float whatever stack it comes in.
    out[has, 0] = (work[has].sum(axis=2) * np.arange(rows)).sum(axis=1) / total[has]
    out[has, 1] = (work[has].sum(axis=1) * np.arange(cols)).sum(axis=1) / total[has]
    return out


def intensity_centroid(patch: np.ndarray) -> Tuple[float, float]:
    """Background-subtracted intensity-weighted centroid (cheap estimate).

    Used both as the initial guess for the non-linear fit and as a sanity
    check in tests.
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ValidationError(f"expected a 2-D patch, got shape {patch.shape}")
    r, c = _centroids(patch[None])[0]
    return (float(r), float(c))


def _model(theta: np.ndarray, rr: np.ndarray, cc: np.ndarray, jacobian: bool):
    """The pseudo-Voigt of every row of ``theta`` (``(k, 7)``) on the flat
    grid ``rr`` / ``cc``: ``(k, m)`` values and, if asked, ``(k, 7, m)``
    derivatives in :meth:`PeakParameters.as_vector` order."""
    r0, c0, amp, sr, sc, eta, bg = (theta[:, i, None] for i in range(7))
    ur = (rr - r0) / sr
    uc = (cc - c0) / sc
    d2 = ur * ur + uc * uc
    gauss = np.exp(-0.5 * d2)
    lorentz = 1.0 / (1.0 + d2)
    profile = eta * lorentz + (1.0 - eta) * gauss
    values = bg + amp * profile
    if not jacobian:
        return values, None
    # d values / d d2, times the -2 every d d2 / d(centre, sigma) carries.
    slope = 2.0 * amp * (eta * lorentz * lorentz + 0.5 * (1.0 - eta) * gauss)
    jac = np.stack([
        slope * ur / sr,
        slope * uc / sc,
        profile,
        slope * ur * ur / sr,
        slope * uc * uc / sc,
        amp * (lorentz - gauss),
        np.ones_like(d2),
    ], axis=1)
    return values, jac


def _fit(patches: np.ndarray, max_iter: int):
    """Fit every patch of an ``(n, H, W)`` stack; returns the ``(n, 7)``
    parameters, residual norms, converged flags and iteration counts.

    Start values: the centroid, the 10th-percentile background, the peak's
    height above it, σ = 2 and η = 0.5.  Bounds: centres within a pixel of the
    grid, amplitude ≥ 1e-9, σ in [1e-3, grid size], η in [0, 1].  A step is
    solved over the parameters free to move (not held at a bound by a
    gradient that points out of it) and projected into the bounds; a patch
    leaves the active set when its cost decrease, step or projected gradient
    falls below the stop rules, or at ``max_iter`` iterations.
    """
    n, rows, cols = patches.shape
    rr, cc = (axis.ravel().astype(np.float64) for axis in np.indices((rows, cols)))
    data = patches.reshape(n, rows * cols)
    lower = np.array([-1.0, -1.0, 1e-9, 1e-3, 1e-3, 0.0, -np.inf])
    upper = np.array([rows + 1.0, cols + 1.0, np.inf, rows, cols, 1.0, np.inf])
    background = np.percentile(data, 10, axis=1)
    theta = np.empty((n, 7))
    theta[:, :2] = _centroids(patches)
    theta[:, 2] = np.maximum(data.max(axis=1) - background, 1e-6)
    theta[:, 3:6] = (2.0, 2.0, 0.5)
    theta[:, 6] = background
    theta = np.clip(theta, lower, upper)

    damping = np.full(n, 1e-3)
    iterations = np.zeros(n, dtype=np.intp)
    converged = np.zeros(n, dtype=bool)
    values, _ = _model(theta, rr, cc, jacobian=False)
    cost = 0.5 * np.sum((values - data) ** 2, axis=1)
    active = np.arange(n)
    eye = np.eye(7)
    for _ in range(max_iter):
        if active.size == 0:
            break
        th, y, lam = theta[active], data[active], damping[active]
        values, jac = _model(th, rr, cc, jacobian=True)
        grad = jac @ (values - y)[:, :, None]  # (k, 7, 1)
        hess = jac @ jac.transpose(0, 2, 1)
        # Held: at a bound, with descent pointing out of it.
        held = ((th <= lower) & (grad[:, :, 0] > 0)) | ((th >= upper) & (grad[:, :, 0] < 0))
        free = ~held
        grad[held] = 0.0
        hess *= free[:, :, None] & free[:, None, :]
        diag = np.einsum("kii->ki", hess)
        scale = np.where(free, np.maximum(diag, 1e-30), 1.0)
        system = hess + eye * (lam[:, None] * scale + held)[:, :, None]
        step = -np.linalg.solve(system, grad)[:, :, 0]
        trial = np.clip(th + step, lower, upper)
        trial_values, _ = _model(trial, rr, cc, jacobian=False)
        trial_cost = 0.5 * np.sum((trial_values - y) ** 2, axis=1)
        old_cost = cost[active]
        better = trial_cost < old_cost
        moved = np.linalg.norm(trial - th, axis=1)

        iterations[active] += 1
        theta[active[better]] = trial[better]
        cost[active[better]] = trial_cost[better]
        damping[active] = np.where(better, lam * 0.1, lam * 10.0)
        done = (
            (better & (old_cost - trial_cost <= _FTOL * old_cost))
            | (moved <= _XTOL * (_XTOL + np.linalg.norm(th, axis=1)))
            | (np.abs(grad[:, :, 0]).max(axis=1) < _GTOL)
        )
        converged[active[done]] = True
        active = active[~done]
    return theta, np.sqrt(2.0 * cost), converged, iterations


def fit_peak_center(patch: np.ndarray, max_iter: int = 200) -> FitResult:
    """Fit a 2-D pseudo-Voigt profile to ``patch`` and return the peak centre:
    :func:`label_patches` on a batch of one."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ValidationError(f"expected a 2-D patch, got shape {patch.shape}")
    theta, norms, converged, iterations = _fit(patch[None], max_iter)
    params = PeakParameters.from_vector(theta[0])
    return FitResult(
        center=params.center,
        params=params,
        residual_norm=float(norms[0]),
        converged=bool(converged[0]),
        n_evaluations=int(iterations[0]),
    )


def label_patches(patches: np.ndarray, max_iter: int = 200) -> np.ndarray:
    """Label a stack of patches; returns an ``(n, 2)`` array of peak centres.

    The patches are fitted in one batched solve, but each independently: a
    patch's label is the same whatever stack it comes in, and
    :func:`fit_peak_center` returns exactly its row.  The solve holds an
    ``(n, 7, H*W)`` float64 Jacobian (about 13 KB per 15×15 patch).
    """
    return _fit(_stack(patches), max_iter)[0][:, :2].copy()
