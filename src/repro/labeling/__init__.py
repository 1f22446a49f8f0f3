"""Conventional (physics-based) data labeling.

In the paper the baseline for data annotation is pseudo-Voigt profile fitting
with the MIDAS package — a compute-intensive procedure run on an 80-core
workstation ("Voigt-80") or a 1440-core cluster ("Voigt-1440").  This package
implements that substrate from scratch:

* :mod:`repro.labeling.pseudo_voigt` — 1-D / 2-D pseudo-Voigt profiles used
  both to *generate* synthetic Bragg peaks and to *fit* them.
* :mod:`repro.labeling.peak_fitting` — per-patch centre-of-mass labeling via
  non-linear least squares (the expensive conventional method, one batched
  Levenberg–Marquardt solve per stack) plus a cheap intensity-weighted
  centroid used for sanity checks.
* :mod:`repro.labeling.parallel` — a labeling engine that times the fits on
  one core and scales that cost by a simulated core count so the Fig. 15
  comparison (fairDMS vs Voigt-80 vs Voigt-1440) can be reproduced on a
  laptop.
"""

from repro.labeling.pseudo_voigt import pseudo_voigt_1d, pseudo_voigt_2d, PeakParameters

__all__ = ["pseudo_voigt_1d", "pseudo_voigt_2d", "PeakParameters"]
