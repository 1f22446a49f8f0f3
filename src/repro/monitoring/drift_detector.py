"""Model-degradation detection over a sequence of scans."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.mc_dropout import mc_dropout_predict
from repro.nn.metrics import euclidean_pixel_error, mean_squared_error
from repro.nn.network import Sequential
from repro.utils.errors import ConfigurationError, ValidationError


@dataclass
class DegradationRecord:
    """Error/uncertainty of one evaluated scan."""

    scan_index: int
    prediction_error: float
    uncertainty: float
    degraded: bool


class DegradationDetector:
    """Tracks prediction error and MC-dropout uncertainty scan by scan.

    The detector establishes a baseline from the first ``baseline_scans``
    evaluations and flags a scan as degraded when its error exceeds
    ``error_factor`` times the baseline mean error (the operational criterion
    for "the ML model is no longer performing appropriately" that kicks off a
    fairDMS model update).
    """

    def __init__(
        self,
        model: Sequential,
        baseline_scans: int = 3,
        error_factor: float = 1.5,
        mc_samples: int = 10,
        error_metric: str = "pixel",
    ):
        if baseline_scans < 1:
            raise ConfigurationError("baseline_scans must be >= 1")
        if error_factor <= 1.0:
            raise ConfigurationError("error_factor must be > 1")
        if mc_samples < 2:
            raise ConfigurationError("mc_samples must be >= 2")
        if error_metric not in ("pixel", "mse"):
            raise ConfigurationError("error_metric must be 'pixel' or 'mse'")
        self.model = model
        self.baseline_scans = int(baseline_scans)
        self.error_factor = float(error_factor)
        self.mc_samples = int(mc_samples)
        self.error_metric = error_metric
        self.records: List[DegradationRecord] = []

    def _error(self, pred: np.ndarray, target: np.ndarray) -> float:
        if self.error_metric == "pixel":
            return float(euclidean_pixel_error(pred, target).mean())
        return mean_squared_error(pred, target)

    @property
    def baseline_error(self) -> Optional[float]:
        if len(self.records) < self.baseline_scans:
            return None
        return float(np.mean([r.prediction_error for r in self.records[: self.baseline_scans]]))

    def evaluate_scan(self, scan_index: int, x: np.ndarray, y: np.ndarray) -> DegradationRecord:
        """Evaluate one scan; returns (and stores) its degradation record.

        Inputs pass through uncast — the model casts per batch slice under
        its dtype policy, so no full-array float64 copies are made here.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0] or x.shape[0] == 0:
            raise ValidationError("x and y must be non-empty and the same length")
        mean_pred, std = mc_dropout_predict(self.model, x, n_samples=self.mc_samples)
        error = self._error(mean_pred, y)
        uncertainty = float(std.mean())
        baseline = self.baseline_error
        degraded = baseline is not None and error > self.error_factor * baseline
        record = DegradationRecord(
            scan_index=int(scan_index),
            prediction_error=error,
            uncertainty=uncertainty,
            degraded=degraded,
        )
        self.records.append(record)
        return record

    def degradation_onset(self) -> Optional[int]:
        """Scan index of the first degraded record, if any."""
        for record in self.records:
            if record.degraded:
                return record.scan_index
        return None

    def series(self) -> dict:
        """Error/uncertainty series for plotting (the Fig. 2 curves)."""
        return {
            "scan_index": [r.scan_index for r in self.records],
            "prediction_error": [r.prediction_error for r in self.records],
            "uncertainty": [r.uncertainty for r in self.records],
            "degraded": [r.degraded for r in self.records],
        }
