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

Timings are interleaved best-of-``repeats`` pairs so CPU frequency drift
hits both variants equally.  Results land in
``BENCH_training_throughput.json`` (see ``common.write_bench_json``).

Run standalone:
    python benchmarks/bench_training_throughput.py [--smoke]
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict

import numpy as np

from repro.models import build_braggnn
from repro.nn import Trainer, TrainingConfig, mc_dropout_predict
from repro.utils.rng import default_rng

from common import print_table, write_bench_json
from nn_reference import LoopedAdam, legacy_variant, looped_mc_dropout_predict

#: Documented tolerance for float32-vs-float64 final-train-loss agreement.
LOSS_RTOL = 0.02

FULL = dict(
    n_train=1024, width=8, epochs=3, batch_size=64, repeats=3,
    probe_batch=256, mc_samples=32, probe_repeats=3,
    assert_train_speedup=3.0, assert_mc_speedup=4.0,
)
SMOKE = dict(
    n_train=256, width=4, epochs=2, batch_size=64, repeats=2,
    probe_batch=64, mc_samples=16, probe_repeats=2,
    assert_train_speedup=None, assert_mc_speedup=None,
)


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


def run(smoke: bool = False, report_sink=None) -> Dict[str, float]:
    cfg = SMOKE if smoke else FULL
    data = _bragg_like_data(cfg["n_train"])

    train_metrics = _bench_training(cfg, data)
    mc_metrics = _bench_mc_dropout(cfg, data)
    metrics = {**train_metrics, **mc_metrics}

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

    write_bench_json(
        "training_throughput",
        metrics,
        params={**cfg, "loss_rtol": LOSS_RTOL, "smoke": smoke},
    )

    # Numerical equivalence holds at every scale, smoke included.
    assert metrics["final_train_loss_rel_diff"] < LOSS_RTOL, (
        f"float32 final loss diverged from float64 baseline: "
        f"rel diff {metrics['final_train_loss_rel_diff']:.4f} >= {LOSS_RTOL}"
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
    return metrics


def test_training_throughput(report_sink):
    run(smoke=False, report_sink=report_sink)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI smoke runs (no 3x/4x assertions)")
    args = parser.parse_args()
    run(smoke=args.smoke)
