#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics untraced, per-layer
metrics from a separate traced pass.  See ``perf/README.md``.

One run of one workload (what ``BENCHMARK.json``'s ``command`` is given)::

    python3 perf/run.py --workload wire_point --seed 3 --seconds 12 --trace 0

prints a human-readable report and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; it exits
non-zero when a correctness check fails or more than 1 % of operations do.

Without ``--workload`` every workload runs, each pass in its own child
process, one after the other, and every metric is printed by name::

    python3 perf/run.py [--seed N] [--scale tiny|full] [--no-trace]

``--selfcheck`` runs that twice on the same code and fails unless every
end-to-end metric agrees with itself within its own bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
RESULTS_DIR = PERF_DIR / "results"
BASELINE = PERF_DIR / "baseline" / "seed.json"
MAX_ERROR_SHARE = 0.01
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# The program under test is the source tree of this checkout, never an
# installed copy: the benchmark must fail where ``src/`` is absent.
sys.path[:0] = [str(PERF_DIR), str(ROOT / "src")]


def catalogue() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- one pass of one workload, in this process ---------------------------------------
def run_untraced(workload: str, seed: int, seconds: float, scale: str):
    """Set up ``SETUP_REPEATS`` times, measure on the last set-up."""
    from perfkit import workloads

    inputs = workloads.generate(workload, seed, scale, seconds)
    setups: List[float] = []
    running = None
    for _ in range(SETUP_REPEATS):
        if running is not None:
            running.close()
            running = None
            gc.collect()
        running = workloads.start(inputs)
        setups.append(running.setup_s)
    try:
        measured = workloads.MEASURE[workload](running, inputs, seconds)
    finally:
        running.close()
    measured.metrics["setup_s"] = statistics.median(setups)
    measured.notes["setup_samples"] = setups
    measured.notes["generate_s"] = inputs.generate_s
    return measured


def run_traced(workload: str, seed: int, seconds: float, scale: str):
    from perfkit import layers

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return layers.probe(workload, seed, seconds, scale,
                        RESULTS_DIR / f"trace_{workload}.jsonl")


def run_one(args: argparse.Namespace) -> int:
    import repro.api  # noqa: F401  (creates the program's loggers, quietened below)
    import repro.net  # noqa: F401

    for name in list(logging.Logger.manager.loggerDict):
        if name.startswith("repro"):
            logging.getLogger(name).setLevel(logging.WARNING)
    spec = catalogue()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = run_traced if args.trace else run_untraced
    measured = runner(args.workload, args.seed, args.seconds, args.scale)

    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(measured.metrics))
    extra = sorted(set(measured.metrics) - set(units))
    bad = sorted(k for k, v in measured.metrics.items()
                 if not isinstance(v, (int, float)) or not math.isfinite(v))
    error_share = measured.failed / max(1, measured.attempted)
    correct = bool(measured.correct and not missing and not extra and not bad
                   and error_share <= MAX_ERROR_SHARE)

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"scale={args.scale}  trace={int(args.trace)}")
    print("# load generator and server share one process (and its GIL); "
          f"cores={os.cpu_count()}")
    if not args.trace:
        from perfkit.workloads import LIGHT_HEAVY

        print("# light = {}; heavy = {}".format(*LIGHT_HEAVY[args.workload]))
    for name in units:
        value = measured.metrics.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<40s} {shown:>14s} {units[name]}")
    for key, value in measured.notes.items():
        print(f"#   {key} = {value}")
    print(f"# attempted={measured.attempted} failed={measured.failed} "
          f"error_share={error_share:.5f} correct={correct}")
    for label, names in (("missing", missing), ("undeclared", extra), ("not finite", bad)):
        if names:
            print(f"# {label}: {names}")
    if missing or extra or bad:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": int(measured.attempted),
        "failed": int(measured.failed),
        "metrics": {name: {"value": measured.metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


# -- the whole suite, one child process per pass ---------------------------------------
def child(workload: str, seed: int, seconds: float, scale: str, trace: bool,
          echo: bool = False) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its result object."""
    command = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--scale", scale,
               "--trace", str(int(trace))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} (trace={int(trace)}) printed no result; "
                         f"exit code {done.returncode}")
    if echo:
        print("\n".join(lines[:-1]), end="\n\n", flush=True)
    result["exit_code"] = done.returncode
    return result


def run_suite(seed: int, seconds: float, scale: str, trace: bool) -> bool:
    """Every workload, untraced then traced; each pass prints its own report
    (every metric by name with unit, sample counts in the ``#`` lines)."""
    ok = True
    for workload in (w["name"] for w in catalogue()["workloads"]):
        for traced in (False, True) if trace else (False,):
            result = child(workload, seed, seconds, scale, traced, echo=True)
            ok = ok and result["exit_code"] == 0 and result["correct"]
    return ok


# -- selfcheck ---------------------------------------------------------------------------
def fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = []
    try:
        config = numpy.show_config(mode="dicts")
        blas = [f"{k}: {v.get('name')} {v.get('version')}"
                for k, v in config.get("Build Dependencies", {}).items()]
    except (TypeError, AttributeError):
        pass
    commit = ""
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "commit": commit}


def worse_by(metric: Dict[str, Any], first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def compare_sets(spec: Dict[str, Any], sets: List[Dict[str, Dict[str, List[float]]]]):
    """Print the two sets side by side.  Returns ``(agree, steady)``: whether
    neither median is worse than the other by more than the metric's bound,
    and whether every spread (``setup_s`` apart) stays within it."""
    from perfkit.stats import spread

    agree = steady = True
    print(f"\n{'workload.metric':<44s} {'median A':>12s} {'median B':>12s} "
          f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a, b = (s[workload][metric["name"]] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = max(worse_by(metric, med_a, med_b), worse_by(metric, med_b, med_a))
            spreads = [spread(v) if len(v) >= 2 else 0.0 for v in (a, b)]
            flag = ""
            if worse > metric["bound"]:
                agree, flag = False, "  <-- medians disagree"
            elif metric["name"] != "setup_s" and max(spreads) > metric["bound"]:
                steady, flag = False, "  (spread wider than the bound)"
            print(f"{workload + '.' + metric['name']:<44s} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{worse:>+9.2%} {spreads[0]:>9.2%} {spreads[1]:>9.2%} "
                  f"{metric['bound']:>6.2f}{flag}")
    return agree, steady


def selfcheck(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    spec = catalogue()
    names = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    correct = True
    for which in range(2):
        order = names if which == 0 else names[::-1]
        values: Dict[str, Dict[str, List[float]]] = {w: {} for w in names}
        for i in range(args.runs):
            seed = args.seed + which * args.runs + i
            for workload in order:
                result = child(workload, seed, args.seconds, args.scale, trace=False)
                correct = correct and result["exit_code"] == 0
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                print(f"set {which} seed {seed} {workload}: correct={result['correct']}",
                      flush=True)
        sets.append(values)

    agree, steady = compare_sets(spec, sets)
    if args.write_baseline:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump({"fingerprint": fingerprint(), "seconds": args.seconds,
                       "scale": args.scale, "first_seed": args.seed,
                       "runs_per_set": args.runs, "every_run_correct": correct,
                       "medians_agree_within_bounds": agree,
                       "spreads_within_bounds": steady, "sets": sets}, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {BASELINE.relative_to(ROOT)}")
    if not steady:
        print("note: some spread is wider than its bound; the machine was noisier than "
              "the bounds allow for a single set of runs")
    ok = correct and agree
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = catalogue()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--scale", choices=("tiny", "full"), default="full")
    parser.add_argument("--no-trace", action="store_true",
                        help="without --workload: skip the traced passes")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=1,
                        help="--selfcheck: runs per workload in each of the two sets")
    parser.add_argument("--write-baseline", action="store_true",
                        help="--selfcheck: record both sets in perf/baseline/seed.json")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is not None:
        return run_one(args)
    started = time.perf_counter()
    ok = run_suite(args.seed, args.seconds, args.scale, trace=not args.no_trace)
    print(f"# suite took {time.perf_counter() - started:.0f} s; "
          f"{'every check passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
