"""Conventional peak labeling via pseudo-Voigt least-squares fitting.

This is the repository's stand-in for the MIDAS pseudo-Voigt code: given a
patch containing one Bragg peak, recover the sub-pixel centre of mass by
fitting the full 2-D pseudo-Voigt model with non-linear least squares.  It is
deliberately the *expensive* path (a full optimisation per peak) so the
labeling-time comparison against fairDS pseudo-labeling is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.labeling.pseudo_voigt import PeakParameters, pseudo_voigt_2d
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compute.executor import Executor


@dataclass
class FitResult:
    """Outcome of fitting a single patch."""

    center: Tuple[float, float]
    params: PeakParameters
    residual_norm: float
    converged: bool
    n_evaluations: int

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=np.float64)


def intensity_centroid(patch: np.ndarray) -> Tuple[float, float]:
    """Background-subtracted intensity-weighted centroid (cheap estimate).

    Used both as the initial guess for the non-linear fit and as a sanity
    check in tests.
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ValidationError(f"expected a 2-D patch, got shape {patch.shape}")
    work = patch - patch.min()
    total = work.sum()
    rows, cols = patch.shape
    if total <= 0:
        return ((rows - 1) / 2.0, (cols - 1) / 2.0)
    r = np.arange(rows, dtype=np.float64)
    c = np.arange(cols, dtype=np.float64)
    center_row = float((work.sum(axis=1) @ r) / total)
    center_col = float((work.sum(axis=0) @ c) / total)
    return (center_row, center_col)


def _residuals(theta: np.ndarray, patch: np.ndarray) -> np.ndarray:
    params = PeakParameters(
        center_row=theta[0],
        center_col=theta[1],
        amplitude=max(theta[2], 1e-9),
        sigma_row=max(theta[3], 1e-3),
        sigma_col=max(theta[4], 1e-3),
        eta=float(np.clip(theta[5], 0.0, 1.0)),
        background=theta[6],
    )
    return (pseudo_voigt_2d(patch.shape, params) - patch).ravel()


def fit_peak_center(
    patch: np.ndarray,
    max_nfev: int = 200,
) -> FitResult:
    """Fit a 2-D pseudo-Voigt profile to ``patch`` and return the peak centre."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ValidationError(f"expected a 2-D patch, got shape {patch.shape}")
    rows, cols = patch.shape
    r0, c0 = intensity_centroid(patch)
    background = float(np.percentile(patch, 10))
    amplitude = max(float(patch.max() - background), 1e-6)
    theta0 = np.array([r0, c0, amplitude, 2.0, 2.0, 0.5, background])
    lower = [-1.0, -1.0, 1e-9, 1e-3, 1e-3, 0.0, -np.inf]
    upper = [rows + 1.0, cols + 1.0, np.inf, rows, cols, 1.0, np.inf]
    result = least_squares(
        _residuals,
        theta0,
        args=(patch,),
        bounds=(lower, upper),
        max_nfev=max_nfev,
    )
    params = PeakParameters(
        center_row=float(result.x[0]),
        center_col=float(result.x[1]),
        amplitude=float(max(result.x[2], 1e-9)),
        sigma_row=float(max(result.x[3], 1e-3)),
        sigma_col=float(max(result.x[4], 1e-3)),
        eta=float(np.clip(result.x[5], 0.0, 1.0)),
        background=float(result.x[6]),
    )
    return FitResult(
        center=(params.center_row, params.center_col),
        params=params,
        residual_norm=float(np.linalg.norm(result.fun)),
        converged=bool(result.success),
        n_evaluations=int(result.nfev),
    )


def _fit_range_task(ctx, item: Tuple[int, int, int]) -> np.ndarray:
    """Session task: fit patches ``[lo, hi)`` from the shared stack; returns
    an ``(hi - lo, 2)`` block of centres."""
    lo, hi, max_nfev = item
    patches = ctx.arrays["patches"]
    return np.array(
        [fit_peak_center(patches[i], max_nfev=max_nfev).center for i in range(lo, hi)],
        dtype=np.float64,
    ).reshape(-1, 2)


def label_patches(
    patches: np.ndarray,
    max_nfev: int = 200,
    executor: Optional["Executor"] = None,
) -> np.ndarray:
    """Label a stack of patches; returns an ``(n, 2)`` array of peak centres.

    With an open ``executor`` of more than one worker, the fits fan out
    across its workers — the patch stack travels once through session shared
    memory and each worker fits a contiguous range.  The pseudo-Voigt inner
    loop is pure-Python-heavy (parameter packing around many small
    ``least_squares`` solves), so the process backend parallelises it where
    threads mostly serialise on the GIL.  Otherwise the fits run in a plain
    loop on the calling thread.  Each patch's fit is independent, so the
    labels do not depend on the path taken.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim == 4 and patches.shape[1] == 1:
        patches = patches[:, 0]
    if patches.ndim != 3:
        raise ValidationError(f"expected (n, H, W) patches, got shape {patches.shape}")
    n = patches.shape[0]
    if executor is not None and not executor.closed and executor.max_workers > 1 and n > 1:
        bounds = np.linspace(0, n, min(executor.max_workers, n) + 1, dtype=int)
        ranges = [
            (int(lo), int(hi), max_nfev)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with executor.open_session(shared={"patches": patches}) as session:
            blocks = session.map(_fit_range_task, ranges)
        return np.vstack(blocks)
    return np.array([fit_peak_center(p, max_nfev=max_nfev).center for p in patches],
                    dtype=np.float64)
