"""Seeded inputs.  ``--seed`` reaches only this module: the program under
test receives the arrays made here and never the seed (every spec keeps
``"seed": 0``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import BraggPeakDataset, make_two_phase_schedule

#: Scan index at which the synthetic experiment changes phase: scans before
#: it look like the store, scans from it on are the drifted ones.
CHANGE_AT = 70
N_SCANS = 110


@dataclass(frozen=True)
class Scale:
    """Input sizes of one ``--scale``.  ``tiny`` exists for the harness's own
    tests; every reported number comes from ``full``."""

    patches_per_scan: int
    wire_store_scans: int
    mixed_store_scans: int
    model_store_scans: int
    pool_scans: int
    twin_store_scans: int
    epochs: int
    ivf_partitions: int


SCALES = {
    "full": Scale(patches_per_scan=500, wire_store_scans=24, mixed_store_scans=40,
                  model_store_scans=12, pool_scans=8, twin_store_scans=8,
                  epochs=6, ivf_partitions=64),
    "tiny": Scale(patches_per_scan=120, wire_store_scans=3, mixed_store_scans=4,
                  model_store_scans=3, pool_scans=1, twin_store_scans=3,
                  epochs=1, ivf_partitions=8),
}


def experiment(seed: int, scale: Scale) -> BraggPeakDataset:
    """A two-phase Bragg experiment without smooth drift: every scan before
    ``CHANGE_AT`` follows the store's distribution (so a model update on one
    needs no refresh) and every later scan is clearly different (so it does)."""
    schedule = make_two_phase_schedule(
        N_SCANS, CHANGE_AT, drift_per_scan={"peak_width": 0.0, "center_spread": 0.0},
        seed=seed,
    )
    return BraggPeakDataset(schedule, peaks_per_scan=scale.patches_per_scan, seed=seed)


class FreshPatches:
    """Patches the program has never seen: a pool of generated patches from
    scans outside the store, each draw re-exposed with new detector noise.

    A newly acquired detector frame never repeats bit for bit, so no query
    may hit fairDS's content-keyed embedding cache; drawing from a finite
    pool alone would repeat once the pool is exhausted.  The noise amplitude
    is the generator's own ``noise_level``.
    """

    def __init__(self, pool: np.ndarray, labels: np.ndarray, rng: np.random.Generator,
                 noise_level: float = 0.02):
        self._pool = pool
        self._labels = labels
        self._rng = rng
        self._noise = noise_level
        self._cursor = 0

    def take(self, n: int):
        """``(images, labels)`` of ``n`` fresh patches."""
        idx = (self._cursor + np.arange(n)) % self._pool.shape[0]
        self._cursor = int(idx[-1]) + 1
        noise = self._rng.standard_normal((n,) + self._pool.shape[1:])
        images = np.clip(self._pool[idx] + self._noise * noise, 0.0, None)
        return images, self._labels[idx]

    def images(self, n: int) -> np.ndarray:
        return self.take(n)[0]
