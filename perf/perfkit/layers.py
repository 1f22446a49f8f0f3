"""The traced pass: per-layer metrics, measured serially and from outside.

Every number here comes from timing calls into a layer's public functions
from this file — the program carries no span of the benchmark's.  The same
battery of probes runs on every workload, against that workload's own
deployment, store and request shape, so each layer has a number on each
workload; ``perf/README.md`` says which layers sit on which workload's path.

* **Depth ladder** — the workload's request, issued at five depths on fresh
  inputs, depths interleaved round-robin: d0 ``embedder.transform``, d1
  ``fairds.nearest_labeled`` / ``fairds.lookup``, d2 one replica's
  ``ServingRuntime.call``, d3 ``replica_set.call``, d4 ``NetworkClient.call``.
  A layer's self time is the difference of adjacent depth medians.  Each
  depth gets its own fresh input: the same patch sent twice would be answered
  from fairDS's embedding cache the second time.
* **Open-loop probe** — single-patch requests on a schedule, for the
  batcher's counters and the generator's lateness.
* **Update stages** — ``certainty → refresh → lookup → recommend → load →
  fine_tune → register`` called one by one on a drifted scan, as children of
  one root span, beside untraced ``update_model`` calls on sibling scans.
  On a workload without a model they run on a twin built from the model spec
  over the head of the workload's store.
* **Direct probes** — codec, no-op serving call, embedder/clusterer fits, a
  registry-built index of the workload's backend, the document store.
"""

from __future__ import annotations

import asyncio
import json
import re
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Deployment
from repro.api.registry import create_component
from repro.net import AsyncNetworkClient, NetworkClient, protocol
from repro.nn.trainer import Trainer
from repro.serving import BatchingPolicy, ServingRuntime
from repro.utils.errors import DeadlineExceededError

from perfkit import workloads
from perfkit.inputs import CHANGE_AT, experiment
from perfkit.spans import SpanRecorder, self_times
from perfkit.workloads import Inputs, Measured, Running

#: ``(operation, patches per request)`` each workload's ladder sends.
REQUEST = {
    "wire_point": ("nearest_labeled", 1),
    "wire_lookup": ("lookup_labeled_data", workloads.LOOKUP_PATCHES),
    "store_mixed": ("lookup_labeled_data", workloads.MIXED_LOOKUP[1]),
    "model_update": ("lookup_labeled_data", 500),
}
LADDER_SHARE = 0.35      # of --seconds
OPEN_LOOP_SHARE = 0.15
LADDER_MIN_ROUNDS = 5
UPDATE_PAIRS = 5         # (untraced update_model, staged update) pairs
PROBE_BATCH = 64         # patches per direct nearest/transform probe
STAGES = ("certainty", "refresh", "lookup", "recommend", "load", "fine_tune", "register")


def is_rejection(outcome: Any) -> bool:
    """A typed ``overloaded`` / ``deadline_exceeded`` answer, as the client sees it."""
    return isinstance(outcome, DeadlineExceededError) \
        or getattr(outcome, "error_type", "") == "overloaded"


def median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3


def timed(call: Callable[[], Any], repeats: int) -> List[float]:
    out = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        call()
        out.append(time.perf_counter() - started)
    return out


# -- program counters, read only through the Prometheus text -------------------------
_SERIES = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(dep: Deployment) -> Dict[Tuple[str, str], float]:
    """``{(series, label text): value}`` of ``dep.metrics_text()``."""
    out: Dict[Tuple[str, str], float] = {}
    for line in dep.metrics_text().splitlines():
        match = _SERIES.match(line)
        if match and not line.startswith("#"):
            try:
                out[(match.group(1), match.group(2) or "")] = float(match.group(3))
            except ValueError:
                continue
    return out


def series_delta(before, after, name: str, label: str = "") -> Optional[float]:
    """Growth of every series called ``name`` whose labels contain ``label``;
    ``None`` when the program exposes no such series."""
    keys = [k for k in after if k[0] == name and label in k[1]]
    if not keys:
        return None
    return sum(after[k] - before.get(k, 0.0) for k in keys)


# -- depth ladder ------------------------------------------------------------------------
def ladder(running: Running, inputs: Inputs, budget_s: float,
           recorder: SpanRecorder, metrics: Dict[str, float],
           notes: Dict[str, Any]) -> Tuple[int, int]:
    """Returns how many calls raised and how many of those were typed rejections."""
    op, n_patches = REQUEST[inputs.workload]
    fairds = running.dep.fairds
    replica_set = running.service.replica_set
    one_runtime = replica_set.replicas[0].runtime
    fresh = inputs.fresh[0]
    direct = fairds.nearest_labeled if op == "nearest_labeled" else fairds.lookup
    failed = rejected = 0

    def payload(images: np.ndarray) -> np.ndarray:
        return images[0] if op == "nearest_labeled" else images

    with NetworkClient(*running.service.address, retries=0, timeout_s=30.0) as client:
        depths: List[Tuple[str, Callable[[np.ndarray], Any]]] = [
            ("d0.embedder.transform", fairds.embedder.transform),
            ("d1.fairds", direct),
            ("d2.runtime.call", lambda x: one_runtime.call(op, payload(x), timeout=30.0)),
            ("d3.replica_set.call", lambda x: replica_set.call(op, payload(x), timeout=30.0)),
            ("d4.client.call", lambda x: client.call(op, payload(x))),
        ]
        untraced: List[float] = []
        for name, call in depths:   # warm every depth once
            call(fresh.images(n_patches))
        deadline = time.perf_counter() + budget_s
        rounds = 0
        while rounds < LADDER_MIN_ROUNDS or time.perf_counter() < deadline:
            with recorder.span("ladder") as root:
                for name, call in depths:
                    images = fresh.images(n_patches)
                    with recorder.span(name, root):
                        try:
                            call(images)
                        except Exception as exc:  # boundary: count, keep laddering
                            failed += 1
                            rejected += is_rejection(exc)
            # The same wire call with no span around it: what recording costs.
            images = fresh.images(n_patches)
            started = time.perf_counter()
            client.call(op, payload(images))
            untraced.append(time.perf_counter() - started)
            rounds += 1

    d = [median_ms(recorder.durations(name)) for name, _ in depths]
    metrics["net.wire.self_ms"] = d[4] - d[3]
    metrics["net.replica.self_ms"] = d[3] - d[2]
    metrics["serving.self_ms"] = d[2] - d[1]
    metrics["trace.overhead_ratio"] = d[4] / median_ms(untraced)
    notes["ladder_rounds"] = rounds
    notes["ladder_depth_ms"] = {name: round(ms, 4) for (name, _), ms in zip(depths, d)}
    notes["ladder_layer_share_of_d4"] = round((d[4] - d[1]) / d[4], 4)
    return failed, rejected


# -- open-loop probe -------------------------------------------------------------------------
def open_loop_probe(running: Running, inputs: Inputs, duration: float,
                    metrics: Dict[str, float], notes: Dict[str, Any]) -> int:
    rate = workloads.POINT_RATES["heavy"]
    n = max(workloads.POINT_WINDOWS, int(rate * duration))
    patches = inputs.fresh[0].images(n)
    dep = running.dep

    async def drive():
        async with AsyncNetworkClient(*running.service.address, retries=0,
                                      timeout_s=workloads.REQUEST_TIMEOUT_S) as client:
            return await workloads.open_loop_phase(client, patches, rate, duration)

    before = scrape(dep)
    phase = asyncio.run(drive())
    after = scrape(dep)

    op = 'op="nearest_labeled"'
    batches = series_delta(before, after, "repro_batch_size_count", op)
    requests = series_delta(before, after, "repro_batch_size_sum", op)
    waited = series_delta(before, after, "repro_batch_wait_seconds_sum", op)
    waits = series_delta(before, after, "repro_batch_wait_seconds_count", op)
    metrics["serving.batches"] = batches or 0.0
    metrics["serving.mean_batch_size"] = requests / batches if batches else 0.0
    metrics["serving.batch_wait_ms"] = waited / waits * 1e3 if waits else 0.0
    per_replica = [after[k] - before.get(k, 0.0) for k in after
                   if k[0] == "repro_replica_requests_total" and 'status="accepted"' in k[1]]
    busy = [x for x in per_replica if x > 0]
    metrics["net.replica.imbalance"] = max(busy) / min(busy) if busy else 0.0
    metrics["gen.late_p99_ms"] = float(np.percentile(phase.late_ms, 99))
    metrics["gen.invalid_windows"] = float(
        workloads.window_validity(phase, workloads.POINT_WINDOWS).count(False))
    notes["open_loop_requests"] = n
    notes["absent_series"] = [name for name, value in (
        ("repro_batch_size", batches), ("repro_batch_wait_seconds", waits)) if value is None]
    return sum(is_rejection(r) for r in phase.responses)


# -- direct probes ---------------------------------------------------------------------------
def codec_probe(running: Running, inputs: Inputs, metrics: Dict[str, float]) -> None:
    """Frame both directions of the workload's request with the wire codec."""
    op, n_patches = REQUEST[inputs.workload]
    images = inputs.fresh[0].images(n_patches)
    payload = images[0] if op == "nearest_labeled" else images
    result = running.service.replica_set.call(op, payload, timeout=30.0)

    def array_bytes(value: Any) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, dict):
            return sum(array_bytes(v) for v in value.values())
        if isinstance(value, (list, tuple)):
            return sum(array_bytes(v) for v in value)
        return 0

    def encode() -> Tuple[bytes, bytes]:
        request = protocol.encode_frame({"id": 1, "op": op, "payload": protocol.encode(payload),
                                         "tenant": None, "deadline_ms": 1000.0})
        response = protocol.encode_frame({"id": 1, "ok": True,
                                          "result": protocol.encode(result)})
        return request, response

    request, response = encode()

    def decode() -> None:
        protocol.decode(json.loads(request[4:].decode("utf-8"))["payload"])
        protocol.decode(json.loads(response[4:].decode("utf-8"))["result"])

    metrics["net.protocol.encode_us"] = statistics.median(timed(encode, 30)) * 1e6
    metrics["net.protocol.decode_us"] = statistics.median(timed(decode, 30)) * 1e6
    metrics["net.protocol.request_bytes"] = float(len(request))
    metrics["net.protocol.response_bytes"] = float(len(response))
    metrics["net.protocol.bytes_per_array_byte"] = (
        (len(request) + len(response)) / (array_bytes(payload) + array_bytes(result)))


def noop_serving_probe(metrics: Dict[str, float]) -> None:
    """What one trip through admission, flush and completion costs with
    nothing to do and nothing to wait for."""
    with ServingRuntime({"noop": lambda payloads: payloads},
                        policy=BatchingPolicy(max_batch_size=1, max_wait_ms=0.0),
                        num_workers=1) as runtime:
        runtime.call("noop", 0, timeout=10.0)
        calls = timed(lambda: runtime.call("noop", 0, timeout=10.0), 300)
    metrics["serving.noop_call_us"] = statistics.median(calls) * 1e6


def index_kwargs(running: Running, centers: np.ndarray) -> Dict[str, Any]:
    """Constructor arguments of a registry-built index like the deployment's."""
    index = running.dep.spec.index
    if index.backend == "clustered":
        return {"centers": centers, "dtype": np.dtype(index.dtype), **dict(index.params),
                "n_probe": index.n_probe if index.n_probe is not None else 2}
    return {"dim": centers.shape[1], "dtype": np.dtype(index.dtype), "seed": 0,
            **dict(index.params),
            **({"n_probe": index.n_probe} if index.n_probe is not None else {})}


def component_probes(running: Running, inputs: Inputs, metrics: Dict[str, float]) -> None:
    """Embedder, clusterer and index built by registry name with the spec's
    own parameters and fed the workload's store."""
    spec = running.dep.spec
    fresh = inputs.fresh[0]
    images = inputs.store_images

    embedder = create_component("embedder", spec.embedder.name, **dict(spec.embedder.params))
    metrics["embedding.fit_s"] = statistics.median(timed(lambda: embedder.fit(images), 2))
    batch = fresh.images(4 * PROBE_BATCH)
    metrics["embedding.transform_us_per_sample"] = (
        statistics.median(timed(lambda: embedder.transform(batch), 20)) / batch.shape[0] * 1e6)
    embeddings = np.asarray(embedder.transform(images), dtype=np.float64)

    clusterer = create_component("clustering", spec.clustering.algorithm, seed=0,
                                 n_clusters=spec.clustering.n_clusters,
                                 **dict(spec.clustering.params))
    metrics["clustering.fit_s"] = statistics.median(timed(lambda: clusterer.fit(embeddings), 2))
    metrics["clustering.predict_us_per_sample"] = (
        statistics.median(timed(lambda: clusterer.predict(embeddings), 5))
        / embeddings.shape[0] * 1e6)
    cluster_ids = clusterer.predict(embeddings)

    index = create_component("index", spec.index.backend,
                             **index_kwargs(running, clusterer.cluster_centers_))
    keys = [str(i) for i in range(embeddings.shape[0])]
    started = time.perf_counter()
    if spec.index.backend == "clustered":
        index.add(keys, embeddings, cluster_ids)
    else:
        index.add(keys, embeddings)
    metrics["storage.index.add_us_per_vector"] = (
        (time.perf_counter() - started) / embeddings.shape[0] * 1e6)
    queries = np.asarray(embedder.transform(fresh.images(8 * PROBE_BATCH)), dtype=np.float64)
    per_batch = timed(lambda: index.query_batch(queries[:PROBE_BATCH], k=1), 20)
    metrics["storage.index.query_us_per_query"] = (
        statistics.median(per_batch) / PROBE_BATCH * 1e6)
    hits = index.query_batch(queries, k=1)
    d2 = (np.einsum("ij,ij->i", embeddings, embeddings)[None, :] - 2.0 * queries @ embeddings.T)
    truth = np.argmin(d2, axis=1)
    metrics["storage.index.recall_at_1"] = float(np.mean(
        [int(hit[0][0]) == truth[i] for i, hit in enumerate(hits)]))


def store_probes(running: Running, inputs: Inputs, metrics: Dict[str, float]) -> None:
    """fairDS and its document store, called directly on the deployment."""
    dep, fairds, fresh = running.dep, running.dep.fairds, inputs.fresh[0]
    collection = fairds.collection
    _, n_lookup = REQUEST[inputs.workload]
    n_lookup = max(n_lookup, PROBE_BATCH)

    before = fairds.index_stats()
    nearest = timed(lambda: fairds.nearest_labeled(fresh.images(PROBE_BATCH)), 20)
    after = fairds.index_stats()
    metrics["core.fairds.nearest_ms"] = median_ms(nearest)
    # Backends without scan counters (``clustered``) report 0, not a guess.
    queries = after.get("queries", 0) - before.get("queries", 0)
    for key, name in (("candidates_scanned", "candidates_per_query"),
                      ("partitions_probed", "partitions_per_query")):
        metrics[f"storage.index.{name}"] = (
            (after.get(key, 0) - before.get(key, 0)) / queries if queries else 0.0)

    lookup = median_ms(timed(lambda: fairds.lookup(fresh.images(n_lookup)), 10))
    embed = median_ms(timed(lambda: fairds.embedder.transform(fresh.images(n_lookup)), 10))
    find = median_ms(timed(collection.find, 10))
    ids = collection.ids()[:n_lookup]
    fetch = median_ms(timed(lambda: collection.fetch_payloads(ids), 10))
    metrics["core.fairds.lookup_ms"] = lookup
    metrics["core.fairds.lookup_self_ms"] = lookup - embed - find - fetch
    metrics["storage.docdb.find_ms"] = find
    metrics["storage.docdb.fetch_us_per_doc"] = fetch / len(ids) * 1e3
    metrics["storage.docdb.get_us"] = statistics.median(
        timed(lambda: [collection.get(doc_id) for doc_id in ids], 10)) / len(ids) * 1e6

    scratch = dep.db.collection("perf_scratch")
    rows = [{"label": [0.5, 0.5], "cluster_id": i % 8} for i in range(256)]
    images = fresh.images(256)
    metrics["storage.docdb.insert_us_per_doc"] = statistics.median(
        timed(lambda: scratch.insert_many(rows, list(images)), 5)) / 256 * 1e6
    dep.db.drop_collection("perf_scratch")

    def ingest() -> None:
        patches, labels = fresh.take(workloads.MIXED_INGEST)
        dep.ingest(patches, labels)

    metrics["core.fairds.ingest_ms"] = median_ms(timed(ingest, 3))


# -- update stages ---------------------------------------------------------------------------
def build_twin(inputs: Inputs) -> Deployment:
    """The model spec, fitted on the head of this workload's store."""
    n = inputs.scale.twin_store_scans * inputs.scale.patches_per_scan
    twin = Deployment.from_dict(workloads.load_spec("model", inputs.scale_name))
    twin.fit(inputs.store_images[:n], inputs.store_labels[:n])
    return twin


def staged_update(twin: Deployment, images: np.ndarray, label: str,
                  recorder: SpanRecorder) -> Any:
    """``FairDMS.update_model`` spelled out, one span per stage."""
    dms = twin.dms
    fairds, fairms, policy = dms.fairds, dms.fairms, dms.policy
    with recorder.span("update") as root:
        with recorder.span("update.certainty", root):
            fairds.certainty(images)
        with recorder.span("update.refresh", root):
            fairds.refresh()
        with recorder.span("update.lookup", root):
            lookup = fairds.lookup(images, label=label)
        n_val = max(1, int(round(len(lookup) * policy.validation_fraction)))
        with recorder.span("update.recommend", root):
            recommendation = fairms.recommend(lookup.input_distribution)
        with recorder.span("update.load", root):
            model = fairms.load(recommendation)
        with recorder.span("update.fine_tune", root):
            history = Trainer(model).fine_tune(
                (lookup.images[n_val:], lookup.labels[n_val:]),
                val=(lookup.images[:n_val], lookup.labels[:n_val]),
                config=dms.training_config,
                freeze_layers=policy.freeze_layers,
                lr_scale=policy.fine_tune_lr_scale,
            )
        with recorder.span("update.register", root):
            fairms.register(model, lookup.input_distribution,
                            metrics={"val_loss": history.best_val_loss,
                                     "epochs": float(history.epochs_run)},
                            origin=label, strategy="fine-tune")
    return model, history, len(lookup) - n_val


def update_stages(running: Running, inputs: Inputs, seed: int, recorder: SpanRecorder,
                  metrics: Dict[str, float], notes: Dict[str, Any]) -> None:
    own_model = running.dep.dms is not None
    twin = running.dep if own_model else build_twin(inputs)
    try:
        data = experiment(seed, inputs.scale)
        # Scans past the ones the untraced pass uses: one stable scan to warm
        # the path (certainty then lookup on one scan is also the one place
        # the embedding cache legitimately hits), then drifted ones.
        twin.update_model(data.scan(CHANGE_AT - 1).images, label="warm")
        scans = data.scans(range(CHANGE_AT + 20, CHANGE_AT + 20 + 2 * UPDATE_PAIRS))
        untraced: List[float] = []
        trained = 0
        history = model = None
        for pair in range(UPDATE_PAIRS):
            started = time.perf_counter()
            twin.update_model(scans[2 * pair].images, label=f"untraced-{pair}")
            untraced.append(time.perf_counter() - started)
            model, history, trained = staged_update(
                twin, scans[2 * pair + 1].images, f"staged-{pair}", recorder)

        own = self_times(recorder.spans)
        stage_self = {
            stage: statistics.median(own[s["span_id"]] for s in recorder.spans
                                     if s["name"] == f"update.{stage}")
            for stage in STAGES
        }
        metrics["core.fairds.certainty_ms"] = stage_self["certainty"] * 1e3
        metrics["core.fairds.refresh_s"] = stage_self["refresh"]
        metrics["core.fairms.recommend_ms"] = stage_self["recommend"] * 1e3
        metrics["core.fairms.load_ms"] = stage_self["load"] * 1e3
        metrics["core.fairms.register_ms"] = stage_self["register"] * 1e3
        metrics["core.fairms.zoo_size"] = float(len(twin.zoo))
        fine_tune = stage_self["fine_tune"]
        metrics["nn.trainer.fine_tune_s"] = fine_tune
        metrics["nn.trainer.epochs_run"] = float(history.epochs_run)
        metrics["nn.trainer.epoch_ms"] = fine_tune / history.epochs_run * 1e3
        metrics["nn.trainer.samples_per_s"] = trained * history.epochs_run / fine_tune
        batch = scans[0].images
        metrics["nn.predict_us_per_sample"] = (
            statistics.median(timed(lambda: model.predict(batch), 10)) / batch.shape[0] * 1e6)
        metrics["trace.coverage"] = sum(stage_self.values()) / statistics.median(untraced)
        notes["update_untraced_s"] = [round(x, 4) for x in untraced]
        notes["update_stage_self_s"] = {k: round(v, 5) for k, v in stage_self.items()}
        notes["update_on"] = "the workload's own deployment" if own_model else "a twin"
    finally:
        if not own_model:
            twin.close()


# -- the pass --------------------------------------------------------------------------------
def probe(workload: str, seed: int, seconds: float, scale_name: str,
          trace_path: Path) -> Measured:
    inputs = workloads.generate(workload, seed, scale_name, seconds)
    running = workloads.start(inputs)
    recorder = SpanRecorder(workload)
    metrics: Dict[str, float] = {}
    notes: Dict[str, Any] = {}
    try:
        if running.service is None:
            # The in-process workloads are served here only so that the wire
            # layers can be probed on their deployments too.
            started = time.perf_counter()
            running.service = running.dep.serve_network()
            running.serve_start_s = time.perf_counter() - started
        metrics["setup.generate_s"] = inputs.generate_s
        metrics["setup.fit_s"] = running.fit_s
        metrics["setup.serve_start_s"] = running.serve_start_s

        cache_before = running.dep.fairds.embedding_cache_info()
        failed, rejected = ladder(running, inputs, seconds * LADDER_SHARE, recorder,
                                  metrics, notes)
        rejected += open_loop_probe(running, inputs, seconds * OPEN_LOOP_SHARE, metrics, notes)
        metrics["net.rejected"] = float(rejected)
        codec_probe(running, inputs, metrics)
        noop_serving_probe(metrics)
        component_probes(running, inputs, metrics)
        store_probes(running, inputs, metrics)
        update_stages(running, inputs, seed, recorder, metrics, notes)
        cache_after = running.dep.fairds.embedding_cache_info()
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        metrics["embedding.cache_hit_share"] = hits / (hits + misses) if hits + misses > 0 else 0.0
    finally:
        running.close()
    notes["spans_written"] = recorder.write_jsonl(trace_path)
    notes["trace_file"] = str(trace_path)
    return Measured(metrics, len(recorder.spans), failed, correct=True, notes=notes)
