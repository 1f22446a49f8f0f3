"""Tests for the pseudo-Voigt labeling substrate."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import BraggPeakDataset, make_two_phase_schedule
from repro.labeling.parallel import VOIGT_80, VOIGT_1440, CostModel, LabelingEngine
from repro.labeling.peak_fitting import (
    FitResult,
    fit_peak_center,
    intensity_centroid,
    label_patches,
)
from repro.labeling.pseudo_voigt import PeakParameters, pseudo_voigt_1d, pseudo_voigt_2d
from repro.utils.errors import ConfigurationError, ValidationError

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "voigt_centres.json"


def test_labeling_runs_with_scipy_unimportable():
    """Nothing in the library needs scipy: with every import of it made to
    fail, the fitter and the labeling engine still label a stack."""
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {str(SRC)!r})
        import numpy as np
        import repro, repro.api, repro.net, repro.nn, repro.datasets
        from repro.labeling.parallel import LabelingEngine
        from repro.labeling.peak_fitting import label_patches
        from repro.labeling.pseudo_voigt import PeakParameters, pseudo_voigt_2d
        patch = pseudo_voigt_2d((15, 15), PeakParameters(6.5, 7.5))
        assert np.allclose(label_patches(patch[None]), [[6.5, 7.5]])
        assert np.allclose(LabelingEngine().label(np.stack([patch] * 3)).labels, 7.0, atol=0.5)
    """)
    subprocess.run([sys.executable, "-c", script], check=True)


# -- profiles ------------------------------------------------------------------
def test_pseudo_voigt_1d_peak_at_center():
    x = np.linspace(0, 10, 101)
    y = pseudo_voigt_1d(x, center=5.0, amplitude=2.0, sigma=1.0, eta=0.3)
    assert y.max() == pytest.approx(2.0)
    assert x[np.argmax(y)] == pytest.approx(5.0)


def test_pseudo_voigt_1d_pure_gaussian_and_lorentzian():
    x = np.array([0.0, 1.0])
    g = pseudo_voigt_1d(x, 0.0, 1.0, 1.0, eta=0.0)
    l = pseudo_voigt_1d(x, 0.0, 1.0, 1.0, eta=1.0)
    assert g[1] == pytest.approx(np.exp(-0.5))
    assert l[1] == pytest.approx(0.5)


def test_pseudo_voigt_1d_validation():
    with pytest.raises(ValidationError):
        pseudo_voigt_1d(np.arange(3), 0, 1, sigma=0, eta=0.5)
    with pytest.raises(ValidationError):
        pseudo_voigt_1d(np.arange(3), 0, 1, sigma=1, eta=1.5)


def test_pseudo_voigt_2d_properties():
    params = PeakParameters(center_row=7.2, center_col=6.8, amplitude=1.5, background=0.1)
    img = pseudo_voigt_2d((15, 15), params)
    assert img.shape == (15, 15)
    assert img.min() >= 0.1 - 1e-12
    # Maximum on the grid lies at the pixel nearest the true centre.
    r, c = np.unravel_index(np.argmax(img), img.shape)
    assert abs(r - params.center_row) <= 0.5 + 1e-9
    assert abs(c - params.center_col) <= 0.5 + 1e-9


def test_peak_parameters_validation():
    with pytest.raises(ValidationError):
        PeakParameters(5, 5, amplitude=0)
    with pytest.raises(ValidationError):
        PeakParameters(5, 5, sigma_row=0)
    with pytest.raises(ValidationError):
        PeakParameters(5, 5, eta=2.0)


def test_peak_parameters_vector_roundtrip():
    p = PeakParameters(3.3, 4.4, 1.2, 2.0, 1.5, 0.4, 0.05)
    q = PeakParameters.from_vector(p.as_vector())
    assert q == p
    with pytest.raises(ValidationError):
        PeakParameters.from_vector(np.zeros(5))


# -- centroid ---------------------------------------------------------------------
def test_intensity_centroid_symmetric_peak():
    params = PeakParameters(center_row=7.0, center_col=7.0)
    img = pseudo_voigt_2d((15, 15), params)
    r, c = intensity_centroid(img)
    assert r == pytest.approx(7.0, abs=0.05)
    assert c == pytest.approx(7.0, abs=0.05)


def test_intensity_centroid_flat_patch_returns_center():
    r, c = intensity_centroid(np.zeros((9, 9)))
    assert (r, c) == (4.0, 4.0)


def test_intensity_centroid_rejects_non_2d():
    with pytest.raises(ValidationError):
        intensity_centroid(np.zeros((3, 3, 3)))


# -- least-squares fit -----------------------------------------------------------------
@pytest.mark.parametrize("center", [(7.0, 7.0), (6.3, 8.1), (9.4, 5.6)])
def test_fit_peak_center_recovers_subpixel_center(center):
    params = PeakParameters(center_row=center[0], center_col=center[1],
                            amplitude=1.0, sigma_row=1.8, sigma_col=2.2, eta=0.4,
                            background=0.02)
    rng = np.random.default_rng(0)
    img = pseudo_voigt_2d((15, 15), params) + 0.01 * rng.standard_normal((15, 15))
    result = fit_peak_center(img)
    assert isinstance(result, FitResult)
    assert result.center[0] == pytest.approx(center[0], abs=0.1)
    assert result.center[1] == pytest.approx(center[1], abs=0.1)
    assert result.converged


def test_fit_peak_center_beats_centroid_with_background_gradient():
    # A sloped background biases the raw centroid but not the model fit much.
    params = PeakParameters(center_row=7.4, center_col=6.6, amplitude=1.0, sigma_row=1.5, sigma_col=1.5)
    img = pseudo_voigt_2d((15, 15), params)
    img = img + np.linspace(0, 0.4, 15)[None, :]
    fit = np.array(fit_peak_center(img).center)
    cen = np.array(intensity_centroid(img))
    truth = np.array([7.4, 6.6])
    assert np.linalg.norm(fit - truth) < np.linalg.norm(cen - truth)


def test_fit_peak_center_rejects_bad_input():
    with pytest.raises(ValidationError):
        fit_peak_center(np.zeros((3, 3, 3)))


@settings(max_examples=10, deadline=None)
@given(
    row=st.floats(5.0, 9.0),
    col=st.floats(5.0, 9.0),
    eta=st.floats(0.0, 1.0),
)
def test_fit_recovers_center_property(row, col, eta):
    params = PeakParameters(center_row=row, center_col=col, amplitude=1.0,
                            sigma_row=2.0, sigma_col=2.0, eta=eta)
    img = pseudo_voigt_2d((15, 15), params)
    result = fit_peak_center(img)
    assert result.center[0] == pytest.approx(row, abs=0.2)
    assert result.center[1] == pytest.approx(col, abs=0.2)


# -- batch labeling --------------------------------------------------------------------------
def _patch_stack(n=8, seed=0):
    rng = np.random.default_rng(seed)
    stack = []
    truths = []
    for _ in range(n):
        r, c = rng.uniform(5, 9, size=2)
        params = PeakParameters(center_row=r, center_col=c, amplitude=1.0)
        stack.append(pseudo_voigt_2d((15, 15), params) + 0.01 * rng.standard_normal((15, 15)))
        truths.append((r, c))
    return np.array(stack), np.array(truths)


def test_label_patches_shapes_and_accuracy():
    patches, truths = _patch_stack(6)
    labels = label_patches(patches)
    assert labels.shape == (6, 2)
    np.testing.assert_allclose(labels, truths, atol=0.15)


def test_label_patches_accepts_channel_dim():
    patches, _ = _patch_stack(3)
    labels = label_patches(patches[:, None, :, :])
    assert labels.shape == (3, 2)


def test_label_patches_rejects_bad_shape():
    with pytest.raises(ValidationError):
        label_patches(np.zeros((4, 15)))


# -- the batched solve against scipy ---------------------------------------------------------
with GOLDEN.open() as _golden_file:
    _GOLDEN = json.load(_golden_file)


@pytest.fixture(scope="module")
def golden_experiment():
    return BraggPeakDataset(
        make_two_phase_schedule(n_scans=_GOLDEN["n_scans"], change_at=_GOLDEN["change_at"],
                                seed=_GOLDEN["seed"]),
        peaks_per_scan=_GOLDEN["peaks_per_scan"], seed=_GOLDEN["seed"],
    )


@pytest.mark.parametrize("scan", range(_GOLDEN["n_scans"]))
def test_batched_centres_match_scipys_on_every_bragg_scan(golden_experiment, scan):
    """Against the centres scipy's ``least_squares`` fitted patch by patch
    (tests/golden/voigt_centres.json): every centre within 1e-2 px of
    scipy's, the median within 1e-5 px, and the mean error against the true
    centres no worse than scipy's by more than 1e-4 px.  The drifted scans
    (from ``change_at`` on) hold the patches that differ most."""
    data = golden_experiment.scan(scan)
    scipy_centres = np.array(_GOLDEN["scans"][str(scan)])
    centres = label_patches(data.images)
    assert centres.shape == scipy_centres.shape
    gap = np.abs(centres - scipy_centres).max(axis=1)
    assert gap.max() <= 1e-2
    assert np.median(gap) <= 1e-5
    error = np.linalg.norm(centres - data.centers, axis=1).mean()
    scipy_error = np.linalg.norm(scipy_centres - data.centers, axis=1).mean()
    assert error <= scipy_error + 1e-4


def _peak(**kwargs):
    return pseudo_voigt_2d((15, 15), PeakParameters(**{"center_row": 7.0, "center_col": 7.0,
                                                       **kwargs}))


#: Patches whose best fit lies past a bound, with the parameter (index into
#: PeakParameters.as_vector) and the bound it must end on.
_PAST_A_BOUND = {
    # No peak at all: any height above the background only adds cost.
    "amplitude": (np.full((15, 15), 0.3), 2, 1e-9),
    # More Lorentzian than a Lorentzian (eta = 1.5) and more Gaussian than a
    # Gaussian (eta = -0.5), as mixtures of the two pure profiles.
    "eta-high": (1.5 * _peak(eta=1.0) - 0.5 * _peak(eta=0.0), 5, 1.0),
    "eta-low": (1.5 * _peak(eta=0.0) - 0.5 * _peak(eta=1.0), 5, 0.0),
    # A ridge along the rows, far wider than the 15-pixel patch.
    "sigma-high": (_peak(sigma_row=200.0, sigma_col=1.5), 3, 15.0),
    # A one-pixel spike, far narrower than the 1e-3 px floor.
    "sigma-low": (_peak(sigma_row=1e-4, sigma_col=1e-4, eta=1.0), 4, 1e-3),
}


@pytest.mark.parametrize("name", sorted(_PAST_A_BOUND))
def test_a_fit_pushed_past_a_bound_ends_on_the_bound(name):
    patch, index, bound = _PAST_A_BOUND[name]
    result = fit_peak_center(patch)
    assert result.converged
    assert result.params.as_vector()[index] == bound


@pytest.mark.parametrize("patch", [
    _peak(center_row=6.3, center_col=8.1, eta=0.3),
    _peak(center_row=7.7, center_col=6.1, sigma_row=1.5, eta=0.9, background=0.2),
    np.zeros((15, 15)),
    np.full((15, 15), 3.0),
], ids=["clean", "clean-with-background", "all-zero", "flat"])
def test_noise_free_and_empty_patches_stop_well_before_the_cap(patch):
    """Zero-residual fits stop on the step or gradient rule, not at the cap."""
    result = fit_peak_center(patch, max_iter=200)
    assert result.converged
    assert result.n_evaluations <= 20
    assert result.residual_norm < 1e-6


def test_max_iter_caps_the_iterations():
    patches, _ = _patch_stack(1)
    result = fit_peak_center(patches[0], max_iter=2)
    assert result.n_evaluations == 2 and not result.converged


def test_fit_peak_center_equals_its_row_of_label_patches():
    patches, _ = _patch_stack(8)
    stack = np.concatenate([patches, [entry[0] for entry in _PAST_A_BOUND.values()],
                            [np.zeros((15, 15))]])
    labels = label_patches(stack)
    for patch, row in zip(stack, labels):
        np.testing.assert_array_equal(fit_peak_center(patch).center_array, row)


def test_label_patches_of_an_empty_stack():
    assert label_patches(np.zeros((0, 15, 15))).shape == (0, 2)


# -- cost model / engine -----------------------------------------------------------------------
def test_cost_model_scaling():
    serial = 1000.0
    assert CostModel(cores=1, parallel_efficiency=1.0).wall_clock(serial) == pytest.approx(1000.0)
    assert CostModel(cores=10, parallel_efficiency=1.0).wall_clock(serial) == pytest.approx(100.0)
    cm = CostModel(cores=10, parallel_efficiency=0.5, startup_seconds=3.0)
    assert cm.wall_clock(serial) == pytest.approx(3.0 + 200.0)


def test_cost_model_validation():
    with pytest.raises(ConfigurationError):
        CostModel(cores=0)
    with pytest.raises(ConfigurationError):
        CostModel(parallel_efficiency=0.0)
    with pytest.raises(ConfigurationError):
        CostModel(startup_seconds=-1)
    with pytest.raises(ValidationError):
        CostModel().wall_clock(-1.0)


def test_voigt_1440_faster_than_voigt_80():
    serial = 5000.0
    assert VOIGT_1440.wall_clock(serial) < VOIGT_80.wall_clock(serial)


def test_labeling_engine_reports_costs():
    patches, truths = _patch_stack(6)
    engine = LabelingEngine(cost_model=VOIGT_80)
    report = engine.label(patches)
    assert report.labels.shape == (6, 2)
    np.testing.assert_allclose(report.labels, truths, atol=0.15)
    assert report.measured_seconds > 0
    assert report.simulated_wall_clock > 0
    assert report.cost_model.cores == 80
    assert report.as_dict()["n_patches"] == 6


def test_labeling_engine_projects_the_one_core_cost_from_its_wall_clock():
    """The fits run on the calling thread, so the measured seconds per fitted
    patch, times the stack size, are the one-core cost the model scales."""
    patches, _ = _patch_stack(8)
    report = LabelingEngine(cost_model=VOIGT_80, sample_fraction=0.5).label(patches)
    assert report.per_patch_seconds == pytest.approx(report.measured_seconds / 4)
    assert report.simulated_wall_clock == pytest.approx(
        VOIGT_80.wall_clock(report.per_patch_seconds * 8))


def test_labeling_engine_sampled_fraction_completes_labels():
    patches, _ = _patch_stack(10)
    engine = LabelingEngine(sample_fraction=0.3)
    report = engine.label(patches)
    assert report.labels.shape == (10, 2)
    assert report.sample_fraction == 0.3


def test_labeling_engine_validation():
    with pytest.raises(ConfigurationError):
        LabelingEngine(sample_fraction=0.0)
    with pytest.raises(ValidationError):
        LabelingEngine().label(np.zeros((0, 15, 15)))
