"""End-to-end parity tests for the process compute plane.

The contract under test: selecting an executor changes *where* the compute
runs, never *what* it computes.  The certainty and labeling planes return the
same answers through the seam as without it, and the "parallel" preset —
a process executor chosen purely by spec — trains, validates and promotes
bit-identically to the same spec with ``"executor": null`` across a full
fit → benign scan → drift → retrain → hot-swap cycle.  Training and MC
dropout always run in-process; the executor serves fairDS's multi-batch
embedding and certainty.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.api.deployment import Deployment
from repro.api.spec import SystemSpec, preset
from repro.compute import ProcessExecutor
from repro.core import FairDS
from repro.datasets import BraggPeakDataset, make_two_phase_schedule
from repro.embedding import PCAEmbedder
from repro.labeling.peak_fitting import label_patches
from repro.utils.rng import default_rng

_has_dev_shm = Path("/dev/shm").is_dir()


def _shm_count() -> int:
    return len(list(Path("/dev/shm").iterdir()))


def _blob_data(n: int, seed: int = 0):
    rng = default_rng(seed)
    centers = rng.uniform(4.0, 10.0, size=(n, 2))
    yy, xx = np.mgrid[0:15, 0:15]
    blobs = np.exp(
        -((yy[None] - centers[:, 0, None, None]) ** 2
          + (xx[None] - centers[:, 1, None, None]) ** 2) / 4.0
    )
    x = (blobs + 0.05 * rng.normal(size=(n, 15, 15)))[:, None, :, :]
    return x.astype(np.float64), centers / 15.0


# ---------------------------------------------------------------------------------
# certainty and labeling planes through the seam
# ---------------------------------------------------------------------------------
def test_fairds_certainty_batch_parity_with_process_executor():
    images, labels = _blob_data(60, seed=8)
    batches = [_blob_data(12, seed=s)[0] for s in (20, 21, 22)]

    def build(executor=None):
        fairds = FairDS(PCAEmbedder(embedding_dim=4), n_clusters=3, seed=0,
                        executor=executor)
        fairds.fit(images, labels)
        return fairds

    serial = build().certainty_batch(batches)
    with ProcessExecutor(max_workers=2) as ex:
        parallel = build(executor=ex).certainty_batch(batches)
    np.testing.assert_allclose(parallel, serial, rtol=1e-8, atol=1e-10)


def test_label_patches_parity_with_process_executor():
    patches = _blob_data(10, seed=9)[0][:, 0]
    serial = label_patches(patches)
    with ProcessExecutor(max_workers=2) as ex:
        parallel = label_patches(patches, executor=ex)
    np.testing.assert_allclose(parallel, serial, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------------
# the whole loop from the "parallel" preset: executor chosen purely by spec
# ---------------------------------------------------------------------------------
def _drift_experiment():
    experiment = BraggPeakDataset(
        make_two_phase_schedule(n_scans=14, change_at=8, seed=0),
        peaks_per_scan=60, seed=0,
    )
    hist_x, hist_y = experiment.stacked(range(3))
    return hist_x, hist_y, experiment.scan(5).images, experiment.scan(9).images


def test_parallel_preset_runs_drift_retrain_hot_swap_cycle():
    hist_x, hist_y, benign, drifted = _drift_experiment()

    shm_before = _shm_count() if _has_dev_shm else None
    with Deployment.from_preset("parallel") as dep:
        assert dep.executor is not None and dep.executor.kind == "process"
        dep.fit(hist_x, hist_y)
        assert dep.zoo.promoted_version() == "v0"

        report = dep.process_scan(benign, run_id="benign")
        assert not report.triggered

        report = dep.process_scan(drifted, run_id="drifted")
        assert report.triggered and report.swapped
        assert report.promoted_version == "v1"

        # Multi-batch certainty rides the compute plane.
        dep.fairds.certainty_batch([benign, drifted])
        assert dep.executor.stats["tasks_completed"] > 0
        snap = dep.snapshot()
        assert snap["executor"]["kind"] == "process"
        assert snap["executor"]["tasks_completed"] > 0
    assert dep.executor.closed
    if shm_before is not None:
        assert _shm_count() == shm_before


def test_the_parallel_preset_trains_what_the_serial_spec_trains():
    hist_x, hist_y, benign, drifted = _drift_experiment()
    parallel = preset("parallel")
    serial = SystemSpec.from_dict({**parallel.to_dict(), "executor": None})

    def cycle(spec):
        with Deployment(spec) as dep:
            dep.fit(hist_x, hist_y)
            dep.process_scan(benign, run_id="benign")
            report = dep.process_scan(drifted, run_id="drifted")
            assert report.swapped
            return report, dep.handle().model.predict(drifted)

    parallel_report, parallel_pred = cycle(parallel)
    serial_report, serial_pred = cycle(serial)
    assert parallel_report.val_loss == serial_report.val_loss
    np.testing.assert_array_equal(parallel_pred, serial_pred)
