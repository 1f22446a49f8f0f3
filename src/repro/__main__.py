"""Command-line entry point: ``python -m repro`` (or the ``repro`` script).

Drives the declarative API plane from a shell::

    python -m repro presets --write DIR              # list / export presets
    python -m repro validate src/repro/api/presets/serving.json
    python -m repro run src/repro/api/presets/continual.json --scans 10
    python -m repro serve src/repro/api/presets/serving.json --requests 64

The presets ship inside the package (``repro/api/presets/*.json``);
``presets --write DIR`` copies them out as a starting point for your own.
``validate`` parses and eagerly validates a spec (exit code 1 on any
configuration error) and prints its content digest.  ``run`` and ``serve``
materialise the spec with :class:`~repro.api.deployment.Deployment` against
the synthetic drifting Bragg-peak experiment shipped in
:mod:`repro.datasets`, so any spec can be exercised end to end without real
beamline data: ``run`` processes scans through the continual-learning loop
(or a one-shot model update when the spec has no ``continual`` section),
``serve`` answers a burst of requests through the micro-batching runtime and
prints its telemetry.  With ``--port`` (and optionally ``--replicas``),
``serve`` instead stands up the TCP network plane (:mod:`repro.net`) and
serves until SIGINT/SIGTERM, then drains every accepted request and exits 0
with a final telemetry line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.utils.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative fairDMS deployments: validate and run SystemSpec JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_presets = sub.add_parser("presets", help="list the named presets (optionally export them)")
    p_presets.add_argument("--write", metavar="DIR", default=None,
                           help="write each preset as <DIR>/<name>.json")

    p_validate = sub.add_parser("validate", help="validate spec file(s); exit 1 on any error")
    p_validate.add_argument("specs", nargs="+", metavar="SPEC", help="spec JSON file(s)")

    p_run = sub.add_parser("run", help="run a spec against the synthetic drifting experiment")
    p_run.add_argument("spec", metavar="SPEC", help="spec JSON file")
    p_run.add_argument("--scans", type=int, default=10,
                       help="total scans in the synthetic experiment (default 10)")
    p_run.add_argument("--change-at", type=int, default=None,
                       help="scan index of the phase change (default: 60%% through)")
    p_run.add_argument("--peaks", type=int, default=60,
                       help="Bragg peaks per scan (default 60)")
    p_run.add_argument("--json", action="store_true", dest="as_json",
                       help="print the final deployment snapshot as JSON")

    p_serve = sub.add_parser(
        "serve",
        help="serve a burst in-process and print telemetry, or (with --port) "
             "serve over TCP until SIGINT/SIGTERM",
    )
    p_serve.add_argument("spec", metavar="SPEC", help="spec JSON file")
    p_serve.add_argument("--requests", type=int, default=64,
                         help="requests to serve before exiting (default 64; "
                              "in-process mode only)")
    p_serve.add_argument("--peaks", type=int, default=60,
                         help="Bragg peaks per bootstrap scan (default 60)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve over TCP on this port (0 = ephemeral) until "
                              "SIGINT/SIGTERM, then drain and exit 0")
    p_serve.add_argument("--host", default=None,
                         help="bind address for --port (default: spec's network.host)")
    p_serve.add_argument("--replicas", type=int, default=None,
                         help="replica runtimes behind the network endpoint "
                              "(default: spec's network.replicas)")

    p_observe = sub.add_parser(
        "observe",
        help="serve a burst with the observability plane on; dump metrics and traces",
    )
    p_observe.add_argument("spec", metavar="SPEC", help="spec JSON file")
    p_observe.add_argument("--requests", type=int, default=64,
                           help="requests to serve (default 64)")
    p_observe.add_argument("--peaks", type=int, default=60,
                           help="Bragg peaks per bootstrap scan (default 60)")
    p_observe.add_argument("--metrics-out", metavar="FILE", default=None,
                           help="write the Prometheus text exposition to FILE "
                                "(default: print it)")
    p_observe.add_argument("--traces-out", metavar="FILE", default=None,
                           help="append sampled trace spans to FILE as JSON lines")
    p_observe.add_argument("--http", action="store_true",
                           help="also stand up the /metrics+/traces HTTP endpoint "
                                "and print its URL (serves until interrupted)")
    p_observe.add_argument("--port", type=int, default=0,
                           help="port for --http (default: an ephemeral port)")
    return parser


def _cmd_presets(args: argparse.Namespace) -> int:
    from repro.api.spec import preset, preset_names

    for name in preset_names():
        spec = preset(name)
        sections = [
            kind for kind in ("model", "serving", "continual", "network")
            if getattr(spec, kind) is not None
        ]
        extras = f" (+ {', '.join(sections)})" if sections else ""
        print(f"{name:10s} digest={spec.digest()[:12]}  embedder={spec.embedder.name} "
              f"clustering={spec.clustering.algorithm} storage={spec.storage.backend} "
              f"index={spec.index.backend}{extras}")
        if args.write:
            directory = Path(args.write)
            directory.mkdir(parents=True, exist_ok=True)
            path = spec.save(directory / f"{name}.json")
            print(f"{'':10s} wrote {path}")
    return 0


def _load_spec(path: str):
    """Load a spec file, mapping I/O failures onto the CLI's error channel."""
    from repro.api.spec import SystemSpec

    try:
        return SystemSpec.load(path)
    except FileNotFoundError:
        raise ReproError(f"{path}: file not found") from None
    except OSError as exc:
        raise ReproError(f"{path}: {exc}") from exc
    except ReproError as exc:  # invalid JSON / failed spec validation
        raise ReproError(f"{path}: {exc}") from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for spec_path in args.specs:
        try:
            spec = _load_spec(spec_path)
        except ReproError as exc:
            print(f"INVALID  {exc}")
            failures += 1
            continue
        print(f"ok       {spec_path}: spec {spec.name!r} digest={spec.digest()}")
    return 1 if failures else 0


def _experiment(n_scans: int, change_at: Optional[int], peaks: int, seed: int):
    from repro.datasets import BraggPeakDataset, make_two_phase_schedule

    if n_scans < 5:
        raise ReproError("--scans must be at least 5 (3 bootstrap scans + 2 arriving)")
    if change_at is None:
        change_at = max(4, int(n_scans * 0.6))
    if not 3 < change_at < n_scans:
        raise ReproError(f"--change-at must lie in (3, --scans); got {change_at}")
    schedule = make_two_phase_schedule(n_scans=n_scans, change_at=change_at, seed=seed)
    return BraggPeakDataset(schedule, peaks_per_scan=peaks, seed=seed), change_at


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.deployment import Deployment

    spec = _load_spec(args.spec)
    experiment, change_at = _experiment(args.scans, args.change_at, args.peaks, spec.seed)
    with Deployment.from_spec(spec) as dep:
        hist_x, hist_y = experiment.stacked(range(3))
        print(f"[{spec.name}] bootstrapping on {hist_x.shape[0]} labeled samples "
              f"(3 scans; phase change at scan {change_at})...")
        record = dep.fit(hist_x, hist_y)
        if record is not None:
            print(f"[{spec.name}] initial model {record.model_id} promoted as "
                  f"{dep.zoo.promoted_version(dep.tag)}")

        if spec.continual is not None:
            for scan_index in range(3, args.scans):
                report = dep.process_scan(experiment.scan(scan_index).images,
                                          run_id=f"scan-{scan_index:02d}")
                line = (f"scan {scan_index:2d}: signal={report.signal:6.1f}  "
                        f"{'TRIGGERED' if report.triggered else 'ok'}")
                if report.swapped:
                    line += (f"  -> {report.strategy} retrain, "
                             f"val_loss={report.val_loss:.4f}, promoted "
                             f"{report.promoted_version}, hot-swapped")
                elif report.gate_passed is False:
                    line += f"  -> retrain rejected by validation gate ({report.val_loss:.4f})"
                print(line)
        elif spec.model is not None:
            scan = experiment.scan(args.scans - 1)
            print(f"[{spec.name}] scan {args.scans - 1} arrives unlabeled; updating model...")
            report = dep.update_model(scan.images, label="cli-run")
            print(f"  strategy={report.strategy} certainty={report.certainty:.1f}% "
                  f"val_loss={report.history.best_val_loss:.4f} "
                  f"end_to_end={report.end_to_end_time:.2f}s")
        else:
            scan = experiment.scan(args.scans - 1)
            lookup = dep.lookup(scan.images, label="cli-run")
            print(f"[{spec.name}] data plane only: certainty={dep.certainty(scan.images):.1f}%, "
                  f"lookup returned {len(lookup)} labeled samples (JSD="
                  f"{lookup.input_distribution.distance(lookup.retrieved_distribution):.4f})")

        snapshot = dep.snapshot()
        if args.as_json:
            print(json.dumps(snapshot, indent=2, default=str))
        else:
            store, zoo = snapshot["store"], snapshot["zoo"]
            line = f"[{spec.name}] done: {store['samples']} stored samples in {store['clusters']} clusters"
            if zoo is not None:
                line += f"; zoo holds {zoo['models']} model(s), serving {zoo['promoted_version']}"
            print(line)
    return 0


def _cmd_serve_network(args: argparse.Namespace, spec, experiment) -> int:
    """TCP serving mode: bind, announce, serve until SIGINT/SIGTERM, then
    drain every accepted request and exit 0 with a final telemetry line."""
    import signal
    import threading

    from repro.api.deployment import Deployment

    stop = threading.Event()

    def _on_signal(signum, frame):  # drain on SIGINT and SIGTERM alike
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        with Deployment.from_spec(spec) as dep:
            hist_x, hist_y = experiment.stacked(range(3))
            dep.fit(hist_x, hist_y)
            service = dep.serve_network(
                host=args.host, port=args.port, replicas=args.replicas
            )
            host, port = service.address
            fleet = service.replica_set
            print(f"[{spec.name}] network serving on {host}:{port} "
                  f"replicas={len(fleet)} ops={fleet.operations}"
                  f"{' autoscaler=on' if service.autoscaler is not None else ''}",
                  flush=True)
            stop.wait()
            print(f"[{spec.name}] signal received; draining...", flush=True)
            drained = service.drain(timeout=60.0)
            totals = {"completed": 0, "rejected": 0, "rejected_total": 0}
            for replica in fleet.replicas:
                snap = replica.runtime.telemetry_snapshot()
                totals["completed"] += snap["completed"]
                totals["rejected"] += snap["rejected"]
                totals["rejected_total"] += snap["rejected_total"]
            service.close()
            print(f"[{spec.name}] drained{'' if drained else ' (timed out)'}: "
                  f"served {totals['completed']} requests across "
                  f"{len(fleet.replicas)} replica(s), rejected "
                  f"{totals['rejected_total']} lifetime", flush=True)
        return 0
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.deployment import Deployment

    spec = _load_spec(args.spec)
    experiment, _ = _experiment(10, None, args.peaks, spec.seed)
    if args.port is not None or args.replicas is not None:
        if args.port is None:
            args.port = 0  # --replicas alone still means network mode
        return _cmd_serve_network(args, spec, experiment)
    with Deployment.from_spec(spec) as dep:
        hist_x, hist_y = experiment.stacked(range(3))
        dep.fit(hist_x, hist_y)
        runtime = dep.serve()
        ops = runtime.operations
        print(f"[{spec.name}] serving started: ops={ops}")
        probes = experiment.scan(4).images
        futures = []
        for i in range(args.requests):
            if "predict" in ops:
                futures.append(runtime.submit("predict", probes[i % len(probes)]))
            else:
                futures.append(runtime.submit("certainty", probes[: 8 + i % 8]))
        for future in futures:
            future.result(timeout=60.0)
        runtime.drain(timeout=60.0)
        snap = runtime.telemetry_snapshot()
        print(f"[{spec.name}] served {snap['completed']} requests: "
              f"p95 latency {snap['latency_ms']['p95_ms']:.2f} ms, "
              f"mean batch size {snap['batch_size']['mean']:.1f}, "
              f"throughput {snap['throughput_rps']:.1f} req/s")
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.api.deployment import Deployment
    from repro.api.spec import ObservabilitySpec

    spec = _load_spec(args.spec)
    if spec.observability is None or not spec.observability.enabled:
        # Observing an unobserved spec is an explicit ask for instrumentation:
        # switch the plane on (full sampling: a smoke burst is tiny) rather
        # than silently producing an empty trace buffer.
        spec = dataclasses.replace(
            spec, observability=ObservabilitySpec(enabled=True, sample_rate=1.0)
        )
    experiment, _ = _experiment(10, None, args.peaks, spec.seed)
    with Deployment.from_spec(spec) as dep:
        hist_x, hist_y = experiment.stacked(range(3))
        dep.fit(hist_x, hist_y)
        runtime = dep.serve()
        ops = runtime.operations
        print(f"[{spec.name}] observed serving started: ops={ops} "
              f"sample_rate={dep.tracer.sample_rate}")
        probes = experiment.scan(4).images
        futures = []
        for i in range(args.requests):
            # First half of the burst goes to the index-scanning lookup op
            # (nearest_labeled drives the repro_index_* series and the
            # index.scan trace span), the rest to whatever else the spec
            # serves, so one burst lights up the whole metric scheme.  Blocks,
            # not alternation: interleaving aliases against the deterministic
            # trace sampler and can starve one op of sampled traces entirely.
            if "nearest_labeled" in ops and i < max(1, args.requests // 2):
                futures.append(runtime.submit("nearest_labeled", probes[i % len(probes)]))
            elif "predict" in ops:
                futures.append(runtime.submit("predict", probes[i % len(probes)]))
            elif "lookup_labeled_data" in ops:
                futures.append(runtime.submit("lookup_labeled_data", probes[: 8 + i % 8]))
            else:
                futures.append(runtime.submit("certainty", probes[: 8 + i % 8]))
        for future in futures:
            future.result(timeout=60.0)
        runtime.drain(timeout=60.0)

        snap = runtime.telemetry_snapshot()
        stats = dep.tracer.stats
        print(f"[{spec.name}] served {snap['completed']} requests: "
              f"p95 latency {snap['latency_ms']['p95_ms']:.2f} ms, "
              f"rejected {snap['rejected']} "
              f"(lifetime {snap['rejected_total']}), "
              f"{stats['roots_sampled']}/{stats['roots_started']} traces sampled "
              f"({stats['spans_buffered']} spans buffered)")
        if args.traces_out:
            count = dep.export_traces(args.traces_out)
            print(f"[{spec.name}] wrote {count} spans to {args.traces_out}")
        metrics_text = dep.metrics_text()
        if args.metrics_out:
            Path(args.metrics_out).write_text(metrics_text)
            print(f"[{spec.name}] wrote metrics exposition to {args.metrics_out}")
        else:
            print(metrics_text, end="")
        if args.http:
            from repro.observability.exporters import ObservabilityHTTPServer

            with ObservabilityHTTPServer(
                dep.registry, dep.tracer, port=args.port
            ) as server:
                print(f"[{spec.name}] scrape {server.url} (Ctrl-C to stop)")
                try:
                    import threading

                    threading.Event().wait()
                except KeyboardInterrupt:
                    print(f"[{spec.name}] stopping")
    return 0


_COMMANDS = {
    "presets": _cmd_presets,
    "validate": _cmd_validate,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "observe": _cmd_observe,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
