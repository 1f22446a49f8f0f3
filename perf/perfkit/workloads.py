"""The four workloads, their inputs, their timed sections and their
correctness checks.  Why each exists is recorded in ``BENCHMARK.json`` and
``perf/README.md``; sizes were chosen so that three set-ups plus the timed
section of one run fit in about 25 s on two cores.

Every workload reports the same end-to-end metrics.  Each has a *light* and a
*heavy* operation class (``LIGHT_HEAVY`` below names them), so that one
catalogue of metric names covers all four:

==============  ==========================  ===========================  =====================
workload        light                       heavy                        throughput_per_s
==============  ==========================  ===========================  =====================
wire_point      requests at 250 rps         requests at 350 rps          answered within SLO
wire_lookup     one waiting client          two waiting clients          lookups, two clients
store_mixed     nearest_labeled, 64 patches Deployment.lookup, 250       patches ingested
model_update    update on a stable scan     update on a drifted scan     scan patches absorbed
==============  ==========================  ===========================  =====================
"""

from __future__ import annotations

import asyncio
import json
import math
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Deployment
from repro.net import AsyncNetworkClient, NetworkClient
from repro.utils.stats import jensen_shannon_divergence

from perfkit import stats
from perfkit.inputs import CHANGE_AT, SCALES, FreshPatches, Scale, experiment

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"

SPEC_OF = {"wire_point": "wire", "wire_lookup": "wire",
           "store_mixed": "store", "model_update": "model"}
LIGHT_HEAVY = {
    "wire_point": ("request at the light rate", "request at the heavy rate"),
    "wire_lookup": ("lookup, 1 client", "lookup, 2 clients"),
    "store_mixed": ("nearest_labeled(64)", "Deployment.lookup(250)"),
    "model_update": ("update_model, stable scan", "update_model, drifted scan"),
}

# -- wire_point: open loop ---------------------------------------------------------
POINT_RATES = {"light": 250.0, "heavy": 350.0}   # requests per second
POINT_WARM_SHARE = 0.10                          # of --seconds, at the light rate
POINT_PHASE_SHARE = 0.45                         # of --seconds, per rate
POINT_WINDOWS = 5                                # per phase
POINT_SLO_MS = 50.0
LATE_LIMIT_MS = 5.0                              # send-lateness p99 that voids a window
REQUEST_TIMEOUT_S = 10.0

# -- wire_lookup: closed loop ------------------------------------------------------
LOOKUP_PATCHES = 64
LOOKUP_WARM_REQUESTS = 30
LOOKUP_SERIAL_PER_S = 30      # timed requests per second of --seconds, one client
LOOKUP_PAIR_PER_S = 100       # timed requests per second of --seconds, two clients
LOOKUP_CLIENTS = 2
LOOKUP_RATE_WINDOWS = 10      # the two-client phase, for lookups per second
LOOKUP_MAX_JSD = 0.1

# -- store_mixed: one thread, writes beside reads ----------------------------------
MIXED_ROUNDS_PER_S = 7
MIXED_WARM_ROUNDS = 2
MIXED_INGEST = 500
MIXED_NEAREST = (8, 64)       # calls per round, patches per call
MIXED_LOOKUP = (2, 250)
MIXED_RECALL_QUERIES = 2000
MIXED_MIN_RECALL = 0.95

# -- model_update: serial ----------------------------------------------------------
UPDATE_STABLE_PER_S = 2.0     # timed updates per second of --seconds
UPDATE_DRIFT_PER_S = 0.75
UPDATE_DISCARD = 2            # leading updates of each class, run and dropped
#: Mean pixel error of the updated model on the scan's true centres at the
#: commit that defined the benchmark, per scale and class; an update whose
#: model is more than 1.5x worse fails its check.
PIXEL_ERROR_REF = {"full": {"stable": 0.60, "drift": 1.25},
                   "tiny": {"stable": 4.0, "drift": 4.0}}
PIXEL_ERROR_SLACK = 1.5


@dataclass
class Measured:
    """What one timed section produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    #: Shown by the human-readable report only: sample counts, the percentile
    #: each tail was taken at, ungated percentiles, generator lateness.
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Inputs:
    """Everything made from ``--seed`` for one run of one workload."""

    workload: str
    scale_name: str
    store_images: np.ndarray
    store_labels: np.ndarray
    fresh: List[FreshPatches]
    scans: Dict[str, list] = field(default_factory=dict)
    generate_s: float = 0.0

    @property
    def scale(self) -> Scale:
        return SCALES[self.scale_name]


@dataclass
class Running:
    """One built, fitted and (for the wire workloads) served deployment."""

    dep: Deployment
    service: Any = None
    fit_s: float = 0.0
    serve_start_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.fit_s + self.serve_start_s

    def close(self) -> None:
        self.dep.close()


# -- set-up ------------------------------------------------------------------------
def load_spec(name: str, scale_name: str) -> dict:
    """The spec dict of ``perf/specs/<name>.json``, shrunk for ``tiny``."""
    with open(SPEC_DIR / f"{name}.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    scale = SCALES[scale_name]
    if spec["model"] is not None:
        spec["model"]["training"]["epochs"] = scale.epochs
    if spec["index"]["backend"] == "ivf":
        spec["index"]["params"]["n_partitions"] = scale.ivf_partitions
    return spec


def store_scans(workload: str, scale: Scale) -> int:
    return {"wire": scale.wire_store_scans, "store": scale.mixed_store_scans,
            "model": scale.model_store_scans}[SPEC_OF[workload]]


def update_counts(seconds: float) -> Dict[str, int]:
    return {"stable": max(1, int(seconds * UPDATE_STABLE_PER_S)),
            "drift": max(1, int(seconds * UPDATE_DRIFT_PER_S))}


def generate(workload: str, seed: int, scale_name: str, seconds: float) -> Inputs:
    """Make the store contents and the query material of one run."""
    started = time.perf_counter()
    scale = SCALES[scale_name]
    data = experiment(seed, scale)
    n_store = store_scans(workload, scale)
    store_images, store_labels = data.stacked(range(n_store))
    pool_images, pool_labels = data.stacked(range(n_store, n_store + scale.pool_scans))
    # One independent noise stream per load-generating thread (plus one spare
    # for the checks), so no two threads share a Generator.
    streams = np.random.SeedSequence(seed).spawn(LOOKUP_CLIENTS + 1)
    fresh = [FreshPatches(pool_images, pool_labels, np.random.default_rng(s)) for s in streams]
    inputs = Inputs(workload, scale_name, store_images, store_labels, fresh)
    if workload == "model_update":
        counts = update_counts(seconds)
        first_stable = n_store + scale.pool_scans
        inputs.scans = {
            "stable": data.scans(range(first_stable, first_stable + UPDATE_DISCARD + counts["stable"])),
            "drift": data.scans(range(CHANGE_AT, CHANGE_AT + UPDATE_DISCARD + counts["drift"])),
        }
        if first_stable + UPDATE_DISCARD + counts["stable"] > CHANGE_AT:
            raise ValueError("--seconds asks for more stable scans than the experiment has")
    inputs.generate_s = time.perf_counter() - started
    return inputs


def start(inputs: Inputs) -> Running:
    """Build the deployment from its spec file, fit it on the store and, for
    the wire workloads, start serving.  This is what ``setup_s`` times."""
    started = time.perf_counter()
    spec_name = SPEC_OF[inputs.workload]
    if inputs.scale_name == "full":
        dep = Deployment.from_json(SPEC_DIR / f"{spec_name}.json")
    else:
        dep = Deployment.from_dict(load_spec(spec_name, inputs.scale_name))
    dep.fit(inputs.store_images, inputs.store_labels)
    running = Running(dep, fit_s=time.perf_counter() - started)
    if spec_name == "wire":
        started = time.perf_counter()
        running.service = dep.serve_network()
        running.serve_start_s = time.perf_counter() - started
    return running


# -- shared helpers ----------------------------------------------------------------
def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB).  Each
    workload reads it when its timed section ends, before the checks, whose
    brute-force scans would otherwise set the mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summarise(prefix: str, latencies_ms, metrics: Dict[str, float],
               notes: Dict[str, Any], same_work_per_block: bool = True) -> None:
    """Fill ``<prefix>_p50_ms`` / ``<prefix>_tail_ms`` from time-ordered
    latencies: of the quietest block (see ``stats.quietest``), or of the
    whole section when its cost grows as it runs."""
    latencies_ms = np.asarray(latencies_ms, dtype=np.float64)
    if same_work_per_block:
        metrics[f"{prefix}_p50_ms"] = stats.steady_median(latencies_ms)
        pct, metrics[f"{prefix}_tail_ms"], blocks = stats.steady_tail(latencies_ms)
        notes[f"{prefix}_tail"] = f"p{pct:g}, quietest of {blocks} block(s)"
    else:
        metrics[f"{prefix}_p50_ms"] = float(np.median(latencies_ms))
        pct, metrics[f"{prefix}_tail_ms"] = stats.tail(latencies_ms)
        notes[f"{prefix}_tail"] = f"p{pct:g}, whole section"
    notes[f"{prefix}_samples"] = int(latencies_ms.size)
    notes[f"{prefix}_whole_section_p50_ms"] = float(np.median(latencies_ms))


# -- wire_point --------------------------------------------------------------------
@dataclass
class PhaseResult:
    duration: float
    patches: np.ndarray
    due: np.ndarray          # offsets from the phase start, seconds
    late_ms: np.ndarray      # how late each request was sent
    latency_ms: np.ndarray   # from the due time; NaN when the request raised
    responses: List[Any]
    elapsed: float = 0.0     # first send due to last answer, seconds


async def open_loop_phase(client: AsyncNetworkClient, patches: np.ndarray,
                           rate: float, duration: float) -> PhaseResult:
    """Send ``patches`` one request each on a fixed schedule, never waiting
    for a reply before the next send; time each from when it was *due*."""
    n = patches.shape[0]
    due = np.arange(n) / rate
    late = np.zeros(n)
    latency = np.full(n, np.nan)
    responses: List[Any] = [None] * n
    origin = time.perf_counter()

    async def one(i: int) -> None:
        try:
            responses[i] = await client.call("nearest_labeled", patches[i],
                                             timeout=REQUEST_TIMEOUT_S)
            latency[i] = (time.perf_counter() - origin - due[i]) * 1e3
        except Exception as exc:  # boundary: one failed request must not stop the generator
            responses[i] = exc

    tasks = []
    for i in range(n):
        wait = origin + due[i] - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        late[i] = (time.perf_counter() - origin - due[i]) * 1e3
        tasks.append(asyncio.ensure_future(one(i)))
    await asyncio.gather(*tasks)
    return PhaseResult(duration, patches, due, late, latency, responses,
                       elapsed=time.perf_counter() - origin)


def window_validity(phase: PhaseResult, n_windows: int) -> List[bool]:
    """A window whose send-lateness p99 exceeds ``LATE_LIMIT_MS`` measured a
    starved generator, not the server."""
    window_s = phase.duration / n_windows
    slots = np.floor(phase.due / window_s).astype(int)
    valid = []
    for i in range(n_windows):
        late = phase.late_ms[slots == i]
        valid.append(bool(late.size) and float(np.percentile(late, 99)) <= LATE_LIMIT_MS)
    return valid


def check_point_responses(running: Running, phase: PhaseResult) -> np.ndarray:
    """Wire ≡ in-process: per request, whether the response equals what
    ``fairds.nearest_labeled`` answers for the same patch."""
    ok = np.zeros(len(phase.responses), dtype=bool)
    for lo in range(0, len(phase.responses), 256):
        chunk = slice(lo, lo + 256)
        expected = running.dep.fairds.nearest_labeled(phase.patches[chunk])
        for i, (label, distance) in enumerate(expected, start=lo):
            got = phase.responses[i]
            ok[i] = (
                isinstance(got, dict)
                and got.get("within") is True
                and got.get("label") is not None
                and np.array_equal(np.asarray(got["label"]), label)
                and math.isclose(got["distance"], distance, rel_tol=1e-6, abs_tol=1e-12)
            )
    return ok


def measure_wire_point(running: Running, inputs: Inputs, seconds: float) -> Measured:
    host, port = running.service.address
    fresh = inputs.fresh[0]
    durations = {"warm": seconds * POINT_WARM_SHARE,
                 "light": seconds * POINT_PHASE_SHARE, "heavy": seconds * POINT_PHASE_SHARE}

    async def drive() -> Dict[str, PhaseResult]:
        phases: Dict[str, PhaseResult] = {}
        async with AsyncNetworkClient(host, port, retries=0,
                                      timeout_s=REQUEST_TIMEOUT_S) as client:
            warm_n = max(1, int(POINT_RATES["light"] * durations["warm"]))
            await open_loop_phase(client, fresh.images(warm_n), POINT_RATES["light"],
                                   durations["warm"])
            for name in ("light", "heavy"):
                rate, duration = POINT_RATES[name], durations[name]
                n = max(POINT_WINDOWS, int(rate * duration))
                phase = await open_loop_phase(client, fresh.images(n), rate, duration)
                if not all(window_validity(phase, POINT_WINDOWS)):
                    # One retry of the whole phase; what is still late is dropped below.
                    phase = await open_loop_phase(client, fresh.images(n), rate, duration)
                phases[name] = phase
        return phases

    phases = asyncio.run(drive())

    metrics: Dict[str, float] = {"peak_rss_mb": peak_rss_mb()}
    notes: Dict[str, Any] = {"invalid_windows": 0}
    attempted = failed = within_slo = 0
    window_shares: List[float] = []
    goodputs: List[float] = []
    for name, phase in phases.items():
        valid = window_validity(phase, POINT_WINDOWS)
        notes["invalid_windows"] += valid.count(False)
        if not any(valid):
            valid = [True] * POINT_WINDOWS  # nothing left to trust; report the phase as run
        answered = check_point_responses(running, phase) & np.isfinite(phase.latency_ms)
        in_slo = answered & (phase.latency_ms <= POINT_SLO_MS)
        attempted += answered.size
        failed += int((~answered).sum())
        within_slo += int(in_slo.sum())
        window_s = phase.duration / POINT_WINDOWS
        slots = np.minimum(np.floor(phase.due / window_s).astype(int), POINT_WINDOWS - 1)
        kept = answered & np.asarray(valid)[slots]
        for metric, pct in (("p50", 50.0), ("tail", 95.0)):
            metrics[f"{name}_{metric}_ms"], per_window = stats.windowed_percentile(
                phase.due[kept], phase.latency_ms[kept], window_s, POINT_WINDOWS, pct, valid)
            notes[f"{name}_window_p{pct:g}_ms"] = [round(v, 3) for v in per_window]
        # Per window: the share of requests *sent* that were answered
        # correctly within the SLO, and how many of those per second.
        sent = np.bincount(slots, minlength=POINT_WINDOWS)
        good = np.bincount(slots, weights=in_slo, minlength=POINT_WINDOWS)
        window_shares += [good[i] / sent[i] for i in range(POINT_WINDOWS) if valid[i]]
        # ...over the time from the window's start to its last answer.
        done = phase.due + np.where(in_slo, phase.latency_ms, 0.0) / 1e3
        took = [done[slots == i].max() - i * window_s for i in range(POINT_WINDOWS)]
        goodputs.append(stats.quietest(
            [good[i] / took[i] for i in range(POINT_WINDOWS) if valid[i]], better="higher"))
        notes[f"{name}_samples"] = int(kept.sum())
        notes[f"{name}_late_p99_ms"] = float(np.percentile(phase.late_ms, 99))
        pooled_pct, pooled = stats.tail(phase.latency_ms[kept], cap=99.0)
        notes[f"{name}_whole_phase_p{pooled_pct:g}_ms"] = pooled
    metrics["throughput_per_s"] = float(np.mean(goodputs))
    metrics["ok_share"] = stats.quietest(window_shares, better="higher")
    notes["whole_run_slo_share"] = within_slo / attempted
    return Measured(metrics, attempted, failed, correct=True, notes=notes)


# -- wire_lookup -------------------------------------------------------------------
def check_lookup_response(running: Running, response: Any, n_patches: int) -> bool:
    """Shape, provenance and distribution of one pseudo-labelling answer."""
    try:
        if len(response["labels"]) != n_patches or len(response["images"]) != n_patches:
            return False
        pdf = np.asarray(response["distribution"]["pdf"], dtype=np.float64)
        if not math.isclose(float(pdf.sum()), 1.0, abs_tol=1e-9):
            return False
        collection = running.dep.fairds.collection
        cluster_ids = [collection.get(doc_id)["cluster_id"] for doc_id in response["doc_ids"]]
        retrieved = np.bincount(cluster_ids, minlength=pdf.size).astype(np.float64)
        return jensen_shannon_divergence(pdf, retrieved) <= LOOKUP_MAX_JSD
    except Exception:  # boundary: any malformed answer is a failed check, not a crash
        return False


def _lookup_client(address, fresh: FreshPatches, n_requests: int,
                   out: List[Tuple[float, Any, float]], barrier: Optional[threading.Barrier]) -> None:
    """One waiting client: send, wait for the reply, send the next."""
    with NetworkClient(*address, retries=0, timeout_s=30.0) as client:
        if barrier is not None:
            barrier.wait()
        for _ in range(n_requests):
            images = fresh.images(LOOKUP_PATCHES)
            started = time.perf_counter()
            try:
                response = client.call("lookup_labeled_data", images)
            except Exception as exc:  # boundary: count the failure and keep the loop closed
                response = exc
            finished = time.perf_counter()
            # Only what the checks need is kept; the 64 returned images are not.
            if isinstance(response, dict):
                response = {**response, "images": range(len(response["images"]))}
            out.append(((finished - started) * 1e3, response, finished))


def measure_wire_lookup(running: Running, inputs: Inputs, seconds: float) -> Measured:
    address = running.service.address
    _lookup_client(address, inputs.fresh[0], LOOKUP_WARM_REQUESTS, [], None)

    serial: List[Tuple[float, Any, float]] = []
    _lookup_client(address, inputs.fresh[0], max(1, int(seconds * LOOKUP_SERIAL_PER_S)),
                   serial, None)

    per_client = max(1, int(seconds * LOOKUP_PAIR_PER_S) // LOOKUP_CLIENTS)
    barrier = threading.Barrier(LOOKUP_CLIENTS + 1)
    outs: List[List[Tuple[float, Any, float]]] = [[] for _ in range(LOOKUP_CLIENTS)]
    threads = [
        threading.Thread(target=_lookup_client,
                         args=(address, inputs.fresh[i], per_client, outs[i], barrier))
        for i in range(LOOKUP_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    pair = sorted((item for out in outs for item in out), key=lambda item: item[2])

    metrics: Dict[str, float] = {"peak_rss_mb": peak_rss_mb()}
    notes: Dict[str, Any] = {}
    attempted = failed = 0
    good: Dict[str, List[float]] = {}
    for name, results in (("light", serial), ("heavy", pair)):
        ok = [check_lookup_response(running, response, LOOKUP_PATCHES)
              for _, response, _ in results]
        attempted += len(ok)
        failed += ok.count(False)
        good[name] = [(ms, finished) for (ms, _, finished), passed in zip(results, ok) if passed]
        _summarise(name, [ms for ms, _ in good[name]], metrics, notes)
    # Lookups completed per second, window by window over the two-client phase.
    finished = np.array([t for _, t in good["heavy"]]) - started
    edges = np.linspace(0.0, finished.max(), LOOKUP_RATE_WINDOWS + 1)
    rates = np.histogram(finished, edges)[0] / np.diff(edges)
    metrics["throughput_per_s"] = stats.quietest(rates, better="higher")
    notes["whole_phase_lookups_per_s"] = len(good["heavy"]) / float(finished.max())
    metrics["ok_share"] = (attempted - failed) / attempted
    return Measured(metrics, attempted, failed, correct=True, notes=notes)


# -- store_mixed -------------------------------------------------------------------
def recall_at_1(running: Running, queries: np.ndarray) -> float:
    """Share of ``queries`` whose ``nearest_labeled`` label is the label of the
    truly nearest stored patch, found by scanning the embedding of every
    patch the store holds."""
    fairds = running.dep.fairds
    collection = fairds.collection
    docs = collection.find()
    stored_labels = np.array([doc["label"] for doc in docs], dtype=np.float64)
    stored_images = np.stack(collection.fetch_payloads([doc.id for doc in docs]))
    store = np.asarray(fairds.embedder.transform(stored_images), dtype=np.float64)
    store_sq = np.einsum("ij,ij->i", store, store)
    agree = 0
    for lo in range(0, queries.shape[0], 250):
        chunk = queries[lo:lo + 250]
        emb = np.asarray(fairds.embedder.transform(chunk), dtype=np.float64)
        truth = stored_labels[np.argmin(store_sq[None, :] - 2.0 * emb @ store.T, axis=1)]
        agree += sum(label is not None and np.allclose(label, truth[i])
                     for i, (label, _) in enumerate(fairds.nearest_labeled(chunk)))
    return agree / queries.shape[0]


def measure_store_mixed(running: Running, inputs: Inputs, seconds: float) -> Measured:
    dep, fresh = running.dep, inputs.fresh[0]
    rounds = max(1, int(seconds * MIXED_ROUNDS_PER_S))
    times: Dict[str, List[float]] = {"ingest": [], "nearest": [], "lookup": []}
    ingested_ids: List[str] = []
    attempted = failed = 0

    def timed(kind: str, call: Callable[[], Any], keep: bool) -> Any:
        nonlocal attempted, failed
        started = time.perf_counter()
        try:
            result = call()
        except Exception:  # boundary: a raising op is a failed op, the round goes on
            result = None
        elapsed = time.perf_counter() - started
        if keep:
            attempted += 1
            failed += result is None
            if result is not None:
                times[kind].append(elapsed)
        return result

    for r in range(MIXED_WARM_ROUNDS + rounds):
        keep = r >= MIXED_WARM_ROUNDS
        images, labels = fresh.take(MIXED_INGEST)
        ids = timed("ingest", lambda: dep.ingest(images, labels), keep)
        if ids is not None:
            ingested_ids.extend(ids)
        for _ in range(MIXED_NEAREST[0]):
            queries = fresh.images(MIXED_NEAREST[1])
            hits = timed("nearest", lambda: dep.fairds.nearest_labeled(queries), keep)
            if keep and hits is not None and len(hits) != MIXED_NEAREST[1]:
                failed += 1
        for _ in range(MIXED_LOOKUP[0]):
            queries = fresh.images(MIXED_LOOKUP[1])
            result = timed("lookup", lambda: dep.lookup(queries), keep)
            if keep and result is not None and len(result) != MIXED_LOOKUP[1]:
                failed += 1

    metrics: Dict[str, float] = {"peak_rss_mb": peak_rss_mb()}
    collection = dep.fairds.collection
    stored = set(collection.ids())
    retrievable = all(doc_id in stored for doc_id in ingested_ids)
    recall = recall_at_1(running, fresh.images(MIXED_RECALL_QUERIES))

    notes: Dict[str, Any] = {"rounds": rounds, "recall_at_1": recall,
                             "store_size": collection.count()}
    # The store triples while this runs, so no two blocks do the same work:
    # whole-section figures.  Patches per second at the median call, because
    # a mean would let one index retrain or one stall set the figure.
    _summarise("light", np.asarray(times["nearest"]) * 1e3, metrics, notes,
               same_work_per_block=False)
    _summarise("heavy", np.asarray(times["lookup"]) * 1e3, metrics, notes,
               same_work_per_block=False)
    metrics["throughput_per_s"] = MIXED_INGEST / float(np.median(times["ingest"]))
    metrics["ok_share"] = (attempted - failed) / attempted
    notes["ingest_samples"] = len(times["ingest"])
    notes["nearest_samples_per_s"] = MIXED_NEAREST[1] / metrics["light_p50_ms"] * 1e3
    correct = retrievable and recall >= MIXED_MIN_RECALL
    return Measured(metrics, attempted, failed, correct, notes)


# -- model_update ------------------------------------------------------------------
def check_update(report: Any, scan: Any, kind: str, scale_name: str) -> Tuple[bool, float]:
    """One ``update_model`` answer: fine-tuned, refreshed exactly when the
    scan drifted (a mis-sized workload fails loudly), finite loss, and a
    model still as accurate on the scan's true centres as at the seed commit."""
    patch = scan.images.shape[-1]
    predicted = report.model.predict(scan.images)
    pixel_error = float(np.mean(np.linalg.norm(
        (predicted - scan.normalized_centers) * patch, axis=1)))
    ok = (
        report.strategy == "fine-tune"
        and report.triggered_refresh == (kind == "drift")
        and math.isfinite(report.history.best_val_loss)
        and pixel_error <= PIXEL_ERROR_SLACK * PIXEL_ERROR_REF[scale_name][kind]
    )
    return ok, pixel_error


def measure_model_update(running: Running, inputs: Inputs, seconds: float) -> Measured:
    dep = running.dep
    metrics: Dict[str, float] = {}
    notes: Dict[str, Any] = {}
    attempted = failed = 0
    steady_s = 0.0
    patches = 0
    for kind, prefix in (("stable", "light"), ("drift", "heavy")):
        seconds_per_update: List[float] = []
        errors: List[float] = []
        for i, scan in enumerate(inputs.scans[kind]):
            started = time.perf_counter()
            try:
                report = dep.update_model(scan.images, label=f"{kind}-{i}")
            except Exception:  # boundary: a raising update is a failed op
                report = None
            elapsed = time.perf_counter() - started
            if i < UPDATE_DISCARD:
                continue
            attempted += 1
            ok, pixel_error = check_update(report, scan, kind, inputs.scale_name) \
                if report is not None else (False, float("nan"))
            if not ok:
                failed += 1
                continue
            seconds_per_update.append(elapsed)
            errors.append(pixel_error)
            patches += scan.images.shape[0]
        if not seconds_per_update:
            return Measured({}, attempted, failed, correct=False, notes=notes)
        _summarise(prefix, np.asarray(seconds_per_update) * 1e3, metrics, notes)
        steady_s += len(seconds_per_update) * metrics[f"{prefix}_p50_ms"] / 1e3
        notes[f"{prefix}_pixel_error"] = float(np.mean(errors))
    # Scan patches absorbed per second with every update at its class's figure.
    metrics["throughput_per_s"] = patches / steady_s
    metrics["ok_share"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Measured(metrics, attempted, failed, correct=True, notes=notes)


MEASURE = {
    "wire_point": measure_wire_point,
    "wire_lookup": measure_wire_lookup,
    "store_mixed": measure_store_mixed,
    "model_update": measure_model_update,
}
