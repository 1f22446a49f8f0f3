"""Training + MC-dropout throughput — vectorized float32 engine vs pre-PR path.

The paper's monitor → trigger → retrain loop spends its compute budget in two
places: (re)training application models and probing their certainty with MC
dropout.  This benchmark pits the vectorized float32 compute plane against
the frozen pre-optimisation reference path
(``benchmarks/nn_reference.py``: float64 everywhere, index-gather im2col,
``np.add.at`` col2im, per-parameter dict-keyed Adam, one forward pass per MC
sample) on a BraggNN-scale convolutional model.

Acceptance bars (asserted in full mode):

* **>= 3x** epoch throughput for training,
* **>= 4x** certainty-probe throughput for MC dropout,
* the float32 final training loss matches the float64 baseline within
  ``LOSS_RTOL`` (both runs share seeds, so shuffle order and dropout masks
  are identical draws).

A second section sweeps the multiprocess data-parallel compute plane
(:mod:`repro.compute`): epoch wall-clock at 1/2/4 process workers with
shared-memory batch handoff, plus a parallel MC-dropout probe.  The
data-parallel bar is **>= 2.5x** epoch throughput at 4 workers vs 1 —
asserted on the *measured* sweep when the machine has >= 4 usable cores,
and on the cost-model extrapolation (worker busy-time from
``Executor.stats``, the :mod:`repro.labeling.parallel` idiom) when it does
not, with ``cpu_limited``/``usable_cores`` recorded in the JSON so the two
regimes are never conflated.  Final-loss parity with the serial trainer is
asserted at every worker count at any scale (the sweep trains with
``dropout=0``, where the fused allreduce update is bitwise-identical to
the serial update sequence), as is a zero ``/dev/shm`` segment delta.

Timings are interleaved best-of-``repeats`` pairs so CPU frequency drift
hits both variants equally.  Results land in
``BENCH_training_throughput.json`` (see ``common.write_bench_json``).

Run standalone:
    python benchmarks/bench_training_throughput.py [--smoke]
        [--executor {inline,thread,process}] [--workers N]
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api.registry import create_component
from repro.models import build_braggnn
from repro.nn import Trainer, TrainingConfig, mc_dropout_predict
from repro.utils.rng import default_rng

from common import print_table, write_bench_json
from nn_reference import LoopedAdam, legacy_variant, looped_mc_dropout_predict

#: Documented tolerance for float32-vs-float64 final-train-loss agreement,
#: and for data-parallel final-loss parity with the serial trainer.
LOSS_RTOL = 0.02

FULL = dict(
    n_train=1024, width=8, epochs=3, batch_size=64, repeats=3,
    probe_batch=256, mc_samples=32, probe_repeats=3,
    assert_train_speedup=3.0, assert_mc_speedup=4.0,
    dp_n_train=4096, dp_width=8, dp_epochs=3, dp_batch=1024, dp_repeats=2,
    dp_workers=(2, 4), assert_dp_speedup=2.5,
    mc_parallel_workers=2, mc_parallel_rows=256, mc_parallel_samples=32,
)
SMOKE = dict(
    n_train=256, width=4, epochs=2, batch_size=64, repeats=2,
    probe_batch=64, mc_samples=16, probe_repeats=2,
    assert_train_speedup=None, assert_mc_speedup=None,
    dp_n_train=256, dp_width=4, dp_epochs=2, dp_batch=64, dp_repeats=1,
    dp_workers=(2,), assert_dp_speedup=None,
    mc_parallel_workers=2, mc_parallel_rows=64, mc_parallel_samples=16,
)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _shm_entries() -> Optional[int]:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-Linux
        return None
    return len(list(shm.iterdir()))


def _bragg_like_data(n: int, seed: int = 0):
    """Synthetic Bragg-peak patches: a noisy Gaussian blob per 15x15 patch."""
    rng = default_rng(seed)
    centers = rng.uniform(4.0, 10.0, size=(n, 2))
    yy, xx = np.mgrid[0:15, 0:15]
    blobs = np.exp(
        -((yy[None] - centers[:, 0, None, None]) ** 2 + (xx[None] - centers[:, 1, None, None]) ** 2)
        / 4.0
    )
    x = (blobs + 0.05 * rng.normal(size=(n, 15, 15)))[:, None, :, :]
    y = centers / 15.0
    return x, y


def _build_fast(cfg, seed=0):
    return build_braggnn(width=cfg["width"], seed=seed)


def _build_legacy(cfg, seed=0):
    return legacy_variant(build_braggnn(width=cfg["width"], seed=seed))


def _fit_once(model, data, cfg, legacy: bool):
    factory = (lambda p, lr: LoopedAdam(p, lr=lr)) if legacy else None
    trainer = Trainer(model, optimizer_factory=factory)
    config = TrainingConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], lr=2e-3, seed=0
    )
    history = trainer.fit(data, config=config)
    # Steady-state epoch time: drop the first epoch, which pays one-off
    # costs (workspace allocation for the fast engine, cache warm-up).
    steady = history.epoch_time[1:] or history.epoch_time
    return history, sum(steady) / len(steady)


def _bench_training(cfg, data) -> Dict[str, float]:
    """Interleaved best-of-N steady-state epoch time, fresh models per rep."""
    best_legacy, best_fast = float("inf"), float("inf")
    final_loss_legacy = final_loss_fast = float("nan")
    for rep in range(cfg["repeats"]):
        hist_l, t_l = _fit_once(_build_legacy(cfg), data, cfg, legacy=True)
        hist_f, t_f = _fit_once(_build_fast(cfg), data, cfg, legacy=False)
        best_legacy, best_fast = min(best_legacy, t_l), min(best_fast, t_f)
        if rep == 0:
            final_loss_legacy = hist_l.train_loss[-1]
            final_loss_fast = hist_f.train_loss[-1]
    return {
        "train_epochs_per_s_legacy": 1.0 / best_legacy,
        "train_epochs_per_s_fast": 1.0 / best_fast,
        "train_speedup": best_legacy / best_fast,
        "final_train_loss_legacy_float64": final_loss_legacy,
        "final_train_loss_fast_float32": final_loss_fast,
        "final_train_loss_rel_diff": abs(final_loss_fast - final_loss_legacy)
        / max(abs(final_loss_legacy), 1e-12),
    }


def _time_probe(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_mc_dropout(cfg, data) -> Dict[str, float]:
    x_probe = data[0][: cfg["probe_batch"]]
    fast = _build_fast(cfg, seed=1)
    legacy = _build_legacy(cfg, seed=1)
    n = cfg["mc_samples"]
    best_legacy = _time_probe(
        lambda: looped_mc_dropout_predict(legacy, x_probe, n_samples=n), cfg["probe_repeats"]
    )
    best_fast = _time_probe(
        lambda: mc_dropout_predict(fast, x_probe, n_samples=n), cfg["probe_repeats"]
    )
    return {
        "mc_probes_per_s_legacy": 1.0 / best_legacy,
        "mc_probes_per_s_fast": 1.0 / best_fast,
        "mc_speedup": best_legacy / best_fast,
    }


# ---------------------------------------------------------------------------
# data-parallel compute plane (multiprocess, shared-memory handoff)
# ---------------------------------------------------------------------------
def _dp_fit_once(cfg, data, executor=None):
    """One fit at dropout=0 (bitwise-parity regime); returns (loss, wall)."""
    model = build_braggnn(width=cfg["dp_width"], dropout=0.0, seed=7)
    config = TrainingConfig(
        epochs=cfg["dp_epochs"], batch_size=cfg["dp_batch"], lr=2e-3, seed=0
    )
    start = time.perf_counter()
    history = Trainer(model, executor=executor).fit(data, config=config)
    return float(history.train_loss[-1]), time.perf_counter() - start


def _bench_data_parallel(cfg, executor_kind: str) -> Dict[str, object]:
    """Worker-count sweep of data-parallel training vs the serial trainer.

    Timings are steady-state best-of-``dp_repeats``: the executor persists
    across repeats, so one-off pool start-up (fork, module state) is paid in
    the first repeat only — matching the serial section's drop-the-first-epoch
    convention.  Measured speedups are honest wall-clock ratios on *this*
    machine; when the machine has fewer cores than workers the sweep also
    reports a modeled speedup from worker busy time — ``modeled_wall(K) =
    busy/K + overhead`` with busy/overhead taken from the smallest parallel
    run (the labeling engine's CostModel idiom, applied to the compute
    plane).  Busy is task CPU time from ``Executor.stats`` (``thread_time``
    in the workers), so shared-core preemption cannot inflate the
    parallelisable fraction; overhead (dispatch, shuffle, the fused
    allreduce + optimizer step) is the best observed ``wall - busy``.
    """
    x, y = _bragg_like_data(cfg["dp_n_train"], seed=3)
    data = (x, y)
    repeats = int(cfg["dp_repeats"])
    shm_before = _shm_entries()
    serial_loss, serial_wall = _dp_fit_once(cfg, data)
    for _ in range(repeats - 1):
        serial_wall = min(serial_wall, _dp_fit_once(cfg, data)[1])
    rows: List[Dict[str, float]] = [
        {"workers": 1, "wall_s": serial_wall, "final_loss": serial_loss,
         "busy_s": serial_wall, "overhead_s": 0.0, "loss_rel_diff": 0.0}
    ]
    for workers in cfg["dp_workers"]:
        executor = create_component("executor", executor_kind, max_workers=int(workers))
        try:
            best_wall, best_busy, best_overhead, loss = float("inf"), 0.0, float("inf"), float("nan")
            for _ in range(repeats):
                busy_before = float(executor.stats["busy_seconds"])
                loss, wall = _dp_fit_once(cfg, data, executor=executor)
                busy = float(executor.stats["busy_seconds"]) - busy_before
                if wall < best_wall:
                    best_wall, best_busy = wall, busy
                best_overhead = min(best_overhead, max(wall - busy, 0.0))
        finally:
            executor.close()
        rows.append({
            "workers": int(workers), "wall_s": best_wall, "final_loss": loss,
            "busy_s": best_busy, "overhead_s": best_overhead,
            "loss_rel_diff": abs(loss - serial_loss) / max(abs(serial_loss), 1e-12),
        })
    shm_after = _shm_entries()

    # Cost-model extrapolation from the smallest parallel run: its busy time
    # is the parallelisable fraction, the remainder (optimizer step, shuffle,
    # dispatch) stays serial.
    base = rows[1]
    overhead = base["overhead_s"]
    for row in rows:
        row["measured_speedup"] = serial_wall / row["wall_s"]
        modeled_wall = base["busy_s"] / row["workers"] + overhead
        row["modeled_speedup"] = serial_wall / max(modeled_wall, 1e-9)
    modeled_wall_4 = base["busy_s"] / 4.0 + overhead
    usable = _usable_cores()
    return {
        "executor": executor_kind,
        "sweep": rows,
        "serial_wall_s": serial_wall,
        "usable_cores": usable,
        "cpu_limited": usable < 4,
        "dp_measured_speedup_max": max(r["measured_speedup"] for r in rows),
        "dp_modeled_speedup_4w": serial_wall / max(modeled_wall_4, 1e-9),
        "dp_loss_rel_diff_max": max(r["loss_rel_diff"] for r in rows),
        "shm_segment_delta": (
            shm_after - shm_before
            if shm_before is not None and shm_after is not None else 0
        ),
    }


def _bench_parallel_mc(cfg, executor_kind: str) -> Dict[str, float]:
    """Parallel MC-dropout probe vs the in-process folded path.

    Sized independently of the serial probe section (``mc_parallel_rows`` x
    ``mc_parallel_samples``) at the drift monitor's probe scale.  The folded
    in-process path is already heavily vectorized, so fan-out only pays once
    workers land on their own cores — on CPU-limited boxes both the measured
    and the modeled ratio stay below 1 and the JSON's ``cpu_limited`` flag
    says why.
    """
    model = build_braggnn(width=cfg["dp_width"], seed=1)
    x_probe = _bragg_like_data(cfg["mc_parallel_rows"], seed=5)[0]
    n = cfg["mc_parallel_samples"]
    serial_wall = _time_probe(
        lambda: mc_dropout_predict(model, x_probe, n_samples=n), cfg["probe_repeats"]
    )
    workers = int(cfg["mc_parallel_workers"])
    executor = create_component("executor", executor_kind, max_workers=workers)
    try:
        parallel_wall = _time_probe(
            lambda: mc_dropout_predict(model, x_probe, n_samples=n, executor=executor),
            cfg["probe_repeats"],
        )
        # stats accumulate over the repeats; average back to one probe.
        busy = float(executor.stats["busy_seconds"]) / cfg["probe_repeats"]
    finally:
        executor.close()
    overhead = max(parallel_wall - busy, 0.0)
    return {
        "mc_parallel_workers": workers,
        "mc_parallel_wall_s": parallel_wall,
        "mc_parallel_measured_speedup": serial_wall / parallel_wall,
        "mc_parallel_modeled_speedup_4w": serial_wall / max(busy / 4.0 + overhead, 1e-9),
    }


def run(smoke: bool = False, report_sink=None, executor_kind: str = "process",
        workers: Optional[int] = None) -> Dict[str, float]:
    cfg = SMOKE if smoke else FULL
    if workers is not None:
        cfg = {**cfg, "dp_workers": (int(workers),), "mc_parallel_workers": int(workers)}
    data = _bragg_like_data(cfg["n_train"])

    train_metrics = _bench_training(cfg, data)
    mc_metrics = _bench_mc_dropout(cfg, data)
    dp_metrics = _bench_data_parallel(cfg, executor_kind)
    mc_par_metrics = _bench_parallel_mc(cfg, executor_kind)
    metrics = {**train_metrics, **mc_metrics, **dp_metrics, **mc_par_metrics}

    print_table(
        "Training throughput: float32 engine vs pre-PR float64 path",
        ["metric", "legacy", "fast", "speedup"],
        [
            [
                "epochs/s",
                train_metrics["train_epochs_per_s_legacy"],
                train_metrics["train_epochs_per_s_fast"],
                train_metrics["train_speedup"],
            ],
            [
                "MC probes/s",
                mc_metrics["mc_probes_per_s_legacy"],
                mc_metrics["mc_probes_per_s_fast"],
                mc_metrics["mc_speedup"],
            ],
            [
                "final loss",
                train_metrics["final_train_loss_legacy_float64"],
                train_metrics["final_train_loss_fast_float32"],
                train_metrics["final_train_loss_rel_diff"],
            ],
        ],
        sink=report_sink,
    )

    print_table(
        f"Data-parallel training sweep ({dp_metrics['executor']} executor, "
        f"{dp_metrics['usable_cores']} usable cores)",
        ["workers", "wall s", "measured x", "modeled x", "loss rel diff"],
        [
            [r["workers"], r["wall_s"], r["measured_speedup"], r["modeled_speedup"],
             r["loss_rel_diff"]]
            for r in dp_metrics["sweep"]
        ],
        sink=report_sink,
    )
    print_table(
        "Parallel MC-dropout probe",
        ["workers", "measured x", "modeled x @4w"],
        [[mc_par_metrics["mc_parallel_workers"],
          mc_par_metrics["mc_parallel_measured_speedup"],
          mc_par_metrics["mc_parallel_modeled_speedup_4w"]]],
        sink=report_sink,
    )

    write_bench_json(
        "training_throughput",
        metrics,
        params={**{k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
                "loss_rtol": LOSS_RTOL, "smoke": smoke, "executor": executor_kind},
    )

    # Numerical equivalence holds at every scale, smoke included.
    assert metrics["final_train_loss_rel_diff"] < LOSS_RTOL, (
        f"float32 final loss diverged from float64 baseline: "
        f"rel diff {metrics['final_train_loss_rel_diff']:.4f} >= {LOSS_RTOL}"
    )
    # Data-parallel invariants hold at every scale too: loss parity with the
    # serial trainer (bitwise at dropout=0) and no leaked shm segments.
    assert metrics["dp_loss_rel_diff_max"] < LOSS_RTOL, (
        f"data-parallel final loss diverged from serial trainer: "
        f"rel diff {metrics['dp_loss_rel_diff_max']:.4f} >= {LOSS_RTOL}"
    )
    assert metrics["shm_segment_delta"] == 0, (
        f"compute plane leaked {metrics['shm_segment_delta']} /dev/shm segment(s)"
    )
    if cfg["assert_train_speedup"] is not None:
        assert metrics["train_speedup"] >= cfg["assert_train_speedup"], (
            f"training speedup {metrics['train_speedup']:.2f}x below "
            f"{cfg['assert_train_speedup']}x bar"
        )
        assert metrics["mc_speedup"] >= cfg["assert_mc_speedup"], (
            f"MC-dropout speedup {metrics['mc_speedup']:.2f}x below "
            f"{cfg['assert_mc_speedup']}x bar"
        )
    else:
        assert metrics["train_speedup"] > 0.5, "smoke sanity: training speedup collapsed"
        assert metrics["mc_speedup"] > 0.5, "smoke sanity: MC speedup collapsed"
    if cfg["assert_dp_speedup"] is not None:
        # 2.5x at 4 workers vs 1: measured where 4 real cores exist, cost-model
        # extrapolated (plus the loss-parity assert above) on smaller machines.
        if not metrics["cpu_limited"]:
            assert metrics["dp_measured_speedup_max"] >= cfg["assert_dp_speedup"], (
                f"data-parallel speedup {metrics['dp_measured_speedup_max']:.2f}x "
                f"below {cfg['assert_dp_speedup']}x bar at 4 workers"
            )
        else:
            assert metrics["dp_modeled_speedup_4w"] >= cfg["assert_dp_speedup"], (
                f"modeled data-parallel speedup "
                f"{metrics['dp_modeled_speedup_4w']:.2f}x below "
                f"{cfg['assert_dp_speedup']}x bar "
                f"(cpu_limited: {metrics['usable_cores']} usable cores)"
            )
    return metrics


def test_training_throughput(report_sink):
    run(smoke=False, report_sink=report_sink)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI smoke runs (no 3x/4x assertions)")
    parser.add_argument("--executor", default="process",
                        choices=("inline", "thread", "process"),
                        help="compute-plane backend for the data-parallel sweep")
    parser.add_argument("--workers", type=int, default=None,
                        help="pin the sweep to one worker count (CI smoke uses 2)")
    args = parser.parse_args()
    run(smoke=args.smoke, executor_kind=args.executor, workers=args.workers)
