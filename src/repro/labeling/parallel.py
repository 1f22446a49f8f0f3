"""Parallel conventional-labeling engine with a simulated cluster cost model.

Fig. 15 of the paper compares end-to-end model-update time for four methods,
two of which differ only in how much hardware the conventional pseudo-Voigt
labeling gets: an 80-core workstation ("Voigt-80") and an 18-node / 1440-core
cluster ("Voigt-1440", the maximum parallelism MIDAS supports).  We do not
have either machine, so the engine

1. measures the *real* per-patch fitting cost on this machine using a sample
   of the workload (one batched fit on the calling thread), and
2. extrapolates the full-workload wall-clock under a simulated core count
   with a configurable parallel efficiency, which preserves the relative
   ordering and approximate speedup factors of the paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.labeling.peak_fitting import _centroids, _stack, label_patches
from repro.utils.errors import ConfigurationError, ValidationError
from repro.utils.timing import Timer


@dataclass(frozen=True)
class CostModel:
    """Extrapolates measured serial labeling cost to a simulated machine.

    Attributes
    ----------
    cores:
        Simulated number of CPU cores labeling in parallel.
    parallel_efficiency:
        Fraction of ideal speedup actually achieved (MIDAS-style workloads
        do not scale perfectly; the paper's Voigt-1440 is ~18x faster than
        Voigt-80 with 18x the hardware, i.e. near-linear, so the default is
        high).
    startup_seconds:
        Fixed scheduling/startup overhead added once per labeling job
        (job-launch latency on the cluster).
    """

    cores: int = 1
    parallel_efficiency: float = 0.9
    startup_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("cores must be >= 1")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ConfigurationError("parallel_efficiency must be in (0, 1]")
        if self.startup_seconds < 0:
            raise ConfigurationError("startup_seconds must be non-negative")

    def wall_clock(self, serial_seconds: float) -> float:
        """Projected wall-clock for a job that takes ``serial_seconds`` on one core."""
        if serial_seconds < 0:
            raise ValidationError("serial_seconds must be non-negative")
        effective = max(1.0, self.cores * self.parallel_efficiency)
        return self.startup_seconds + serial_seconds / effective


#: Cost models matching the paper's two conventional-labeling configurations.
VOIGT_80 = CostModel(cores=80, parallel_efficiency=0.9, startup_seconds=2.0)
VOIGT_1440 = CostModel(cores=1440, parallel_efficiency=0.85, startup_seconds=10.0)


@dataclass
class LabelingReport:
    """Result of a labeling run."""

    labels: np.ndarray
    n_patches: int
    measured_seconds: float
    per_patch_seconds: float
    simulated_wall_clock: float
    cost_model: CostModel
    sample_fraction: float = 1.0

    def as_dict(self) -> dict:
        return {
            "n_patches": self.n_patches,
            "measured_seconds": self.measured_seconds,
            "per_patch_seconds": self.per_patch_seconds,
            "simulated_wall_clock": self.simulated_wall_clock,
            "cores": self.cost_model.cores,
            "sample_fraction": self.sample_fraction,
        }


class LabelingEngine:
    """Runs conventional pseudo-Voigt labeling under a :class:`CostModel`.

    Parameters
    ----------
    cost_model:
        Simulated machine (e.g. ``VOIGT_80``); defaults to a single local core.
    sample_fraction:
        Fraction of patches actually fitted to estimate the per-patch cost;
        the remaining labels are still produced (all patches are fitted when
        ``sample_fraction >= 1``), otherwise the unfitted patches reuse the
        measured cost estimate but are labelled with the cheap centroid so the
        returned label array is complete.

    The fits run on the calling thread, so their wall clock is the one-core
    cost the simulation starts from.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        sample_fraction: float = 1.0,
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise ConfigurationError("sample_fraction must be in (0, 1]")
        self.cost_model = cost_model or CostModel()
        self.sample_fraction = float(sample_fraction)

    def label(self, patches: np.ndarray) -> LabelingReport:
        """Label ``patches`` and report measured + simulated costs."""
        patches = _stack(patches)
        if patches.shape[0] == 0:
            raise ValidationError("expected a non-empty (n, H, W) patch stack")
        n = patches.shape[0]
        n_fit = max(1, int(round(n * self.sample_fraction)))

        with Timer() as t:
            fitted = label_patches(patches[:n_fit])
        per_patch = t.elapsed / n_fit
        # Complete the label array cheaply for the un-fitted remainder.
        labels = np.vstack([fitted, _centroids(patches[n_fit:])])
        simulated = self.cost_model.wall_clock(per_patch * n)
        return LabelingReport(
            labels=labels,
            n_patches=n,
            measured_seconds=t.elapsed,
            per_patch_seconds=per_patch,
            simulated_wall_clock=simulated,
            cost_model=self.cost_model,
            sample_fraction=self.sample_fraction,
        )
