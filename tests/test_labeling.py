"""Tests for the pseudo-Voigt labeling substrate."""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute import ProcessExecutor, ThreadExecutor
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


def test_only_the_fitter_imports_scipy():
    """A process that serves, trains or generates peaks never loads scipy;
    the pseudo-Voigt fitter is the one module that does."""
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import repro, repro.api, repro.net, repro.nn, repro.datasets, repro.labeling
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        import repro.labeling.peak_fitting
        assert "scipy" in sys.modules
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


def test_label_patches_parallel_matches_serial():
    patches, _ = _patch_stack(6)
    serial = label_patches(patches)
    with ThreadExecutor(max_workers=2) as executor:
        parallel = label_patches(patches, executor=executor)
    np.testing.assert_allclose(serial, parallel, atol=1e-8)


@pytest.mark.parametrize(
    "executor_cls, workers",
    [(ThreadExecutor, 2), (ThreadExecutor, 4), (ThreadExecutor, 8), (ProcessExecutor, 2)],
    ids=["2", "4", "8", "process-2"],
)
def test_label_patches_executor_labels_are_bit_identical_to_serial(executor_cls, workers):
    """Uneven ranges and more workers than patches partition the stack
    differently, and process workers fit in forked interpreters; every path
    yields the very same labels."""
    patches, _ = _patch_stack(6)
    serial = label_patches(patches)
    with executor_cls(max_workers=workers) as executor:
        fanned = label_patches(patches, executor=executor)
        assert executor.stats["tasks_completed"] == min(workers, 6)
    np.testing.assert_array_equal(serial, fanned)


def _no_session(*args, **kwargs):
    raise AssertionError("the serial path must not open an executor session")


def test_label_patches_single_worker_executor_runs_the_serial_loop(monkeypatch):
    patches, _ = _patch_stack(4)
    with ThreadExecutor(max_workers=1) as executor:
        monkeypatch.setattr(executor, "open_session", _no_session)
        labels = label_patches(patches, executor=executor)
        assert executor.stats["tasks_completed"] == 0
    np.testing.assert_array_equal(labels, label_patches(patches))


def test_label_patches_closed_executor_runs_the_serial_loop():
    patches, _ = _patch_stack(4)
    executor = ThreadExecutor(max_workers=2)
    executor.close()
    np.testing.assert_array_equal(label_patches(patches, executor=executor),
                                  label_patches(patches))


def test_label_patches_accepts_channel_dim():
    patches, _ = _patch_stack(3)
    labels = label_patches(patches[:, None, :, :])
    assert labels.shape == (3, 2)


def test_label_patches_rejects_bad_shape():
    with pytest.raises(ValidationError):
        label_patches(np.zeros((4, 15)))


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


def test_labeling_engine_fans_out_through_its_executor():
    patches, _ = _patch_stack(6)
    serial = LabelingEngine(cost_model=VOIGT_80).label(patches)
    with ThreadExecutor(max_workers=2) as executor:
        fanned = LabelingEngine(cost_model=VOIGT_80, executor=executor).label(patches)
        assert executor.stats["tasks_completed"] == 2  # one contiguous range per worker
    np.testing.assert_array_equal(fanned.labels, serial.labels)
    assert fanned.n_patches == serial.n_patches == 6


class _BusyExecutor:
    """Stands in for an executor whose workers ran the fits: ``label_patches``
    (patched below) bills it ``busy`` seconds over ``tasks`` tasks."""

    closed, max_workers = False, 4

    def __init__(self):
        self.stats = {"tasks_completed": 3, "busy_seconds": 10.0}

    def bill(self, tasks, busy):
        self.stats = {"tasks_completed": self.stats["tasks_completed"] + tasks,
                      "busy_seconds": self.stats["busy_seconds"] + busy}


@pytest.mark.parametrize("tasks, busy", [(2, 0.5), (0, 0.0)])
def test_labeling_engine_projects_the_one_core_cost_from_the_executors_busy_time(
        monkeypatch, tasks, busy):
    """The serial cost is the busy seconds the executor measured over the
    call, not the wall clock times its worker count (which assumed a linear
    speedup); an executor that ran nothing leaves the wall clock."""
    patches, _ = _patch_stack(8)
    executor = _BusyExecutor()

    def label_patches(stack, executor=None):
        executor.bill(tasks, busy)
        return np.zeros((stack.shape[0], 2))

    monkeypatch.setattr("repro.labeling.parallel.label_patches", label_patches)
    engine = LabelingEngine(cost_model=VOIGT_80, sample_fraction=0.5, executor=executor)
    report = engine.label(patches)
    # Four patches fitted, eight labelled: the fitted cost scales by two.
    one_core = busy if tasks else report.measured_seconds
    assert report.simulated_wall_clock == pytest.approx(VOIGT_80.wall_clock(one_core / 4 * 8))


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
