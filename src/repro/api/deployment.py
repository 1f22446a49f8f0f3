"""The unified deployment facade: one object wrapping the whole lifecycle.

``Deployment`` materialises a :class:`~repro.api.spec.SystemSpec` into the
fully wired system — embedder, clustering, store, index, model service,
serving runtime, continual-learning loop — and exposes every lifecycle
operation behind one surface::

    from repro.api import Deployment

    with Deployment.from_preset("continual") as dep:
        dep.fit(historical_images, historical_labels)   # index + v0 model
        with dep.serve() as runtime:                    # micro-batched serving
            response = runtime.call("predict", sample)  # stamped with version
            dep.process_scan(new_scan)                  # drift -> retrain -> hot-swap
        print(dep.snapshot())                           # one health dict

Internally it composes :class:`~repro.core.fairds.FairDS`,
:class:`~repro.core.fairdms.FairDMS`,
:class:`~repro.core.planes.FairDMSService`,
:class:`~repro.serving.runtime.ServingRuntime`, and
:class:`~repro.workflow.continual.ContinualLearningPipeline`; every component
is constructed by registry name from the spec, so no caller ever hand-wires a
constructor chain again.  Heavy sub-systems (plane service, serving runtime,
continual pipeline) materialise lazily on first use; :meth:`Deployment.close`
(or the context manager) tears everything down.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.registry import component_factory, create_component, filter_supported_kwargs
from repro.api.spec import SystemSpec, preset
from repro.core.fairdms import FairDMS, ModelUpdateReport, UpdatePolicy
from repro.core.fairds import FairDS, LookupResult
from repro.core.model_zoo import ModelRecord, ModelZoo
from repro.core.planes import FairDMSService, data_plane_handlers, wire_index_controls
from repro.nn.trainer import TrainingConfig
from repro.observability.metrics import MetricsRegistry, default_registry
from repro.observability.tracing import Span, Tracer
from repro.serving.batcher import BatchingPolicy
from repro.serving.hot_swap import ModelHandle, versioned_handler
from repro.serving.runtime import ServingRuntime
from repro.utils.errors import ConfigurationError, StorageError
from repro.utils.logging import get_logger
from repro.workflow.continual import ContinualLearningPipeline, CycleReport
from repro.workflow.pipeline import CheckpointStore

logger = get_logger("repro.api.deployment")


class Deployment:
    """A :class:`SystemSpec`, materialised and running.

    Construct via :meth:`from_spec` / :meth:`from_dict` / :meth:`from_json` /
    :meth:`from_preset`; the constructor itself takes a validated spec.  The
    data plane (store, embedder, fairDS, and — when the spec names a model —
    fairDMS) is wired eagerly so configuration errors surface immediately;
    the plane service, serving runtime, and continual pipeline are created on
    first use.
    """

    def __init__(self, spec: SystemSpec):
        if not isinstance(spec, SystemSpec):
            raise ConfigurationError("Deployment requires a SystemSpec")
        self.spec = spec
        self.db = create_component("storage", spec.storage.backend, **spec.storage.params)
        if not hasattr(self.db, "collection"):
            raise ConfigurationError(
                f"storage backend {spec.storage.backend!r} is not a document store "
                "(no .collection()); the system store must provide collections"
            )
        embedder = create_component("embedder", spec.embedder.name, **spec.embedder.params)
        index_params = dict(spec.index.params)
        if spec.index.n_probe is not None:
            index_params["n_probe"] = spec.index.n_probe
        self.fairds = FairDS(
            embedder,
            n_clusters=spec.clustering.n_clusters,
            db=self.db,
            collection=spec.storage.collection,
            max_auto_clusters=spec.clustering.max_auto_clusters,
            seed=spec.seed,
            index_dtype=np.dtype(spec.index.dtype),
            clustering_algorithm=spec.clustering.algorithm,
            clustering_params=dict(spec.clustering.params),
            index_backend=spec.index.backend,
            index_params=index_params,
        )
        self.dms: Optional[FairDMS] = None
        if spec.model is not None:
            self.dms = FairDMS(
                self.fairds,
                model_builder=self._model_builder(),
                training_config=TrainingConfig(**{"seed": spec.seed, **spec.model.training}),
                policy=UpdatePolicy(**spec.policy),
                seed=spec.seed,
            )
        self._service: Optional[FairDMSService] = None
        self._runtime: Optional[ServingRuntime] = None
        self._handle: Optional[ModelHandle] = None
        self._continual: Optional[ContinualLearningPipeline] = None
        self._network = None  # Optional[repro.net.server.NetworkService]
        self._closed = False
        # The observability plane: the metrics registry is always the
        # process-global default (every component already emits into it); a
        # tracer exists only when the spec asks for one, so un-observed
        # deployments keep the zero-overhead disabled path.
        self.registry: MetricsRegistry = default_registry()
        self.tracer: Optional[Tracer] = None
        obs = spec.observability
        if obs is not None and obs.enabled:
            self.tracer = Tracer(
                sample_rate=obs.sample_rate, max_spans=obs.trace_buffer
            )

    # -- constructors ------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: SystemSpec) -> "Deployment":
        return cls(spec)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Deployment":
        return cls(SystemSpec.from_dict(data))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "Deployment":
        """Materialise the system described by a spec JSON file."""
        return cls(SystemSpec.load(path))

    @classmethod
    def from_preset(cls, name: str) -> "Deployment":
        """Materialise one of the named presets (``minimal`` / ``serving`` /
        ``continual``)."""
        return cls(preset(name))

    def _model_builder(self):
        assert self.spec.model is not None
        factory = component_factory("model", self.spec.model.architecture)
        # The deployment seed is offered, not demanded: a custom architecture
        # factory without a ``seed`` parameter still constructs (matching
        # what ModelSpec's eager trial construction validated).
        params = {
            **filter_supported_kwargs(factory, {"seed": self.spec.seed}),
            **self.spec.model.params,
        }

        def build():
            return factory(**params)

        return build

    # -- guarded accessors -------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this Deployment has been closed")

    def _require_model(self, operation: str) -> FairDMS:
        if self.dms is None:
            raise ConfigurationError(
                f"{operation} requires a 'model' section in the spec "
                f"(spec {self.spec.name!r} configures only the data plane)"
            )
        return self.dms

    @property
    def zoo(self) -> ModelZoo:
        return self._require_model("zoo").fairms.zoo

    @property
    def tag(self) -> str:
        """Zoo promotion tag naming the live model lineage."""
        return self.spec.continual.tag if self.spec.continual is not None else "latest"

    @property
    def service(self) -> FairDMSService:
        """The user/system-plane service (created on first access)."""
        self._require_open()
        self._require_model("service")
        if self._service is None:
            self._service = FairDMSService(self.dms)
        return self._service

    def handle(self) -> ModelHandle:
        """The live, hot-swappable model handle (loaded from the promoted tag)."""
        dms = self._require_model("handle")
        if self._handle is None:
            try:
                self._handle = ContinualLearningPipeline.bootstrap_handle(dms, tag=self.tag)
            except StorageError as exc:
                raise ConfigurationError(
                    f"no model promoted under tag {self.tag!r} yet; call fit() first"
                ) from exc
        return self._handle

    # -- lifecycle: data plane ---------------------------------------------------
    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Dict]] = None,
        train_initial_model: bool = True,
    ) -> Optional[ModelRecord]:
        """Bootstrap the system on labeled historical data.

        Trains the embedding + clustering models, fills the store and index,
        and — when the spec names a model — trains an initial model and
        promotes it under :attr:`tag` (so :meth:`serve` and :meth:`continual`
        have a live version to start from).  Returns the initial model's Zoo
        record, or ``None`` for data-plane-only specs.
        """
        self._require_open()
        if self.dms is None:
            self.fairds.fit(images, labels, metadata=metadata)
            return None
        record = self.dms.bootstrap(
            images, labels, metadata=metadata, train_initial_model=train_initial_model
        )
        if record is not None:
            version = self.zoo.promote(record.model_id, tag=self.tag)
            logger.info("deployment %s: bootstrap model promoted as %s", self.spec.name, version)
        return record

    def ingest(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Dict]] = None,
    ) -> List[str]:
        """Add newly labeled data to the historical store."""
        self._require_open()
        return self.fairds.ingest(images, labels, metadata=metadata)

    def lookup(
        self, images: np.ndarray, n_samples: Optional[int] = None, label: str = ""
    ) -> LookupResult:
        """Pseudo-label a dataset from the historical store."""
        self._require_open()
        return self.fairds.lookup(images, n_samples=n_samples, label=label)

    def lookup_batch(
        self,
        batches: Sequence[np.ndarray],
        n_samples: Optional[Union[int, Sequence[Optional[int]]]] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[LookupResult]:
        """Pseudo-label several datasets in one round trip."""
        self._require_open()
        return self.fairds.lookup_batch(batches, n_samples=n_samples, labels=labels)

    def distribution(self, images: np.ndarray, label: str = ""):
        """Cluster PDF of an (unlabeled) dataset."""
        self._require_open()
        return self.fairds.dataset_distribution(images, label=label)

    def certainty(self, images: np.ndarray) -> float:
        """Cluster-assignment certainty (percent) of a dataset."""
        self._require_open()
        return self.fairds.certainty(images)

    # -- lifecycle: model plane --------------------------------------------------
    def update_model(self, images: np.ndarray, label: str = "update") -> ModelUpdateReport:
        """The paper's headline operation: produce an updated model for
        ``images`` (arriving unlabeled), via pseudo-labeling and the Zoo."""
        self._require_open()
        return self._require_model("update_model()").update_model(images, label=label)

    # -- lifecycle: serving ------------------------------------------------------
    def _predict_handler(self):
        """A ``"predict"`` batch handler over the *lazily resolved* handle.

        The handle is looked up on first use, so a runtime started before
        :meth:`fit` begins serving predictions the moment a model is
        promoted — until then, predict requests fail with the same
        "call fit() first" configuration error, not an unknown-op error.
        Batching and version stamping delegate to the continual pipeline's
        prediction handler (one atomic handle snapshot per batch — the
        hot-swap torn-read discipline lives in one place).
        """
        resolved: Dict[str, Any] = {}

        def handler(payloads: List[Any]):
            if "inner" not in resolved:
                resolved["inner"] = versioned_handler(
                    self.handle(), ContinualLearningPipeline._predict_batch
                )
            return resolved["inner"](payloads)

        return handler

    def _build_runtime(self, handle: Optional[ModelHandle] = None) -> ServingRuntime:
        """An unstarted runtime over the shared data plane, as the spec's
        ``serving`` section sizes it — the one assembly behind :meth:`serve`
        and every network replica.  With a model, ``"predict"`` answers from
        ``handle``, or from the lazily resolved shared handle when ``None``."""
        if self.dms is not None:
            handlers = self.service.serving_handlers()
            handlers[ContinualLearningPipeline.PREDICT_OP] = (
                versioned_handler(handle, ContinualLearningPipeline._predict_batch)
                if handle is not None else self._predict_handler()
            )
        else:
            handlers = data_plane_handlers(self.fairds)
        serving = self.spec.serving
        runtime = ServingRuntime(
            handlers,
            policy=BatchingPolicy(**serving.batching) if serving is not None else None,
            num_workers=serving.num_workers if serving is not None else 2,
            tracer=self.tracer,
        )
        return wire_index_controls(self.fairds, runtime)

    def serve(self) -> ServingRuntime:
        """Start (or return the live) micro-batching serving runtime.

        Operations: ``query_distribution``, ``lookup_labeled_data``,
        ``nearest_labeled``, and ``certainty`` always; plus ``predict``
        whenever the spec names a model — served from the live hot-swappable
        model handle, every response stamped with its version.  The handle
        resolves lazily per batch: a runtime started before :meth:`fit`
        serves predictions as soon as a model is promoted (predict requests
        merely error with "call fit() first" until then).  When the index
        backend supports probe retuning (e.g. ``"ivf"``), the runtime gets a
        live ``"n_probe"`` knob — ``runtime.set_knob("n_probe", 16)``
        retunes the recall/latency trade-off without a restart, and every
        later refresh carries the value over — and an ``"index_scan"`` stats
        provider folding per-partition scan counters into
        :meth:`~repro.serving.runtime.ServingRuntime.telemetry_snapshot`.
        The runtime honours the spec's ``serving`` section (batching policy,
        worker count) and is returned started, so both styles work::

            runtime = dep.serve(); ...; dep.close()
            with dep.serve() as runtime: ...
        """
        self._require_open()
        if self._runtime is not None and self._runtime.is_running:
            return self._runtime
        runtime = self._build_runtime()
        if self._service is not None:
            self._service.track_runtime(runtime)
        self._runtime = runtime.start()
        return runtime

    def _replica(self, replica_id: int) -> Tuple[ServingRuntime, Optional[ModelHandle]]:
        """One replica of a :class:`~repro.net.replica.ReplicaSet`: a started
        runtime and its model handle.

        Every replica shares the read-only data plane (embedder, store,
        index) but gets its **own** hot-swappable model handle — per-replica
        handles are what make rolling deploys roll: one replica's handle
        swaps while the others keep serving the old version.  Before a model
        is promoted the predict op falls back to the lazily resolving shared
        handler, so a fleet started pre-:meth:`fit` behaves exactly like
        :meth:`serve` does.
        """
        handle: Optional[ModelHandle] = None
        if self.dms is not None:
            try:
                handle = ContinualLearningPipeline.bootstrap_handle(self.dms, tag=self.tag)
            except StorageError:
                pass  # nothing promoted yet
        return self._build_runtime(handle).start(), handle

    def serve_network(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        replicas: Optional[int] = None,
    ):
        """Start (or return the live) network serving plane: a replica fleet
        behind a TCP endpoint speaking the :mod:`repro.net.protocol` wire
        format, with health-checked load balancing and — when the spec's
        ``network.autoscale`` section is set — a running autoscaler.

        Arguments override the spec's ``network`` section (which itself
        defaults to :class:`~repro.api.spec.NetworkSpec` defaults when the
        spec has no ``network`` section at all, so any spec can be served
        over the wire).  Returns a :class:`~repro.net.server.NetworkService`;
        read the bound address — ephemeral by default — from its
        ``.address``.  The service is also torn down by :meth:`close`.
        """
        self._require_open()
        if self._network is not None and self._network.server.is_running:
            return self._network
        from repro.api.spec import NetworkSpec
        from repro.net.autoscaler import AutoscalePolicy, Autoscaler
        from repro.net.replica import ReplicaSet
        from repro.net.server import NetworkServer, NetworkService

        net = self.spec.network if self.spec.network is not None else NetworkSpec()
        replica_set = ReplicaSet(
            self._replica,
            replicas=replicas if replicas is not None else net.replicas,
            eject_after=net.eject_after,
            health_interval_s=net.health_interval_s,
            registry=self.registry,
        )
        try:
            server = NetworkServer(
                replica_set,
                host=host if host is not None else net.host,
                port=port if port is not None else net.port,
                max_frame_bytes=net.max_frame_bytes,
                max_in_flight=net.max_in_flight,
                tracer=self.tracer,
                registry=self.registry,
            ).start()
        except Exception:
            replica_set.close()
            raise
        autoscaler = None
        if net.autoscale is not None:
            autoscaler = Autoscaler(
                replica_set,
                AutoscalePolicy.from_dict(dict(net.autoscale)),
                registry=self.registry,
            ).start()
        self._network = NetworkService(server, replica_set, autoscaler)
        logger.info(
            "deployment %s: network serving on %s:%d with %d replica(s)%s",
            self.spec.name, *server.address, len(replica_set),
            " + autoscaler" if autoscaler is not None else "",
        )
        return self._network

    # -- lifecycle: continual learning -------------------------------------------
    def continual(self) -> ContinualLearningPipeline:
        """The drift-triggered retraining loop described by the spec's
        ``continual`` section, wired to the live model handle (so cycles
        hot-swap into whatever :meth:`serve` is serving)."""
        self._require_open()
        if self.spec.continual is None:
            raise ConfigurationError(
                f"spec {self.spec.name!r} has no 'continual' section"
            )
        if self._continual is None:
            cs = self.spec.continual
            self._continual = ContinualLearningPipeline(
                self._require_model("continual()"),
                self.handle(),
                trigger=create_component("trigger", cs.trigger, **cs.trigger_params),
                checkpoints=CheckpointStore(self.db) if cs.checkpoint else None,
                refresh_on_trigger=cs.refresh_on_trigger,
                tag=cs.tag,
                gate_factor=cs.gate_factor,
                absolute_gate=cs.absolute_gate,
                step_retries=cs.step_retries,
                step_timeout_s=cs.step_timeout_s,
                tracer=self.tracer,
            )
        return self._continual

    def process_scan(
        self, scan: np.ndarray, run_id: Optional[str] = None, raise_on_error: bool = True
    ) -> CycleReport:
        """Run one monitor → (retrain → promote → hot-swap) cycle on a scan."""
        return self.continual().process_scan(scan, run_id=run_id, raise_on_error=raise_on_error)

    # -- observability & teardown ------------------------------------------------
    def metrics_text(self) -> str:
        """The metrics registry's Prometheus text exposition — what a scrape
        of this process would return."""
        return self.registry.expose_text()

    def trace_spans(self) -> List[Span]:
        """Finished spans buffered by the deployment's tracer (empty when the
        spec has no enabled observability section)."""
        return self.tracer.finished_spans() if self.tracer is not None else []

    def export_traces(self, path_or_file: Any) -> int:
        """Append buffered spans as JSON lines; returns the count written."""
        if self.tracer is None:
            return 0
        return self.tracer.export_jsonl(path_or_file)

    def persist_spec(self) -> str:
        """Store the spec in the deployment's own DB; returns its digest."""
        self._require_open()
        return self.spec.persist(self.db)

    def snapshot(self) -> Dict[str, Any]:
        """One point-in-time health dict for the whole deployment: spec
        identity, store/zoo sizes, plane-activity counts (which fold in
        serving per-op counts), live serving telemetry, and trigger state."""
        fitted = self.fairds.is_fitted
        snap: Dict[str, Any] = {
            "name": self.spec.name,
            "digest": self.spec.digest(),
            "fitted": fitted,
            "store": {
                "samples": self.fairds.store_size() if fitted else 0,
                "clusters": self.fairds.n_clusters if fitted else None,
                **({"generation": self.fairds.generation} if fitted else {}),
            },
            "zoo": None,
            "activity": self._service.activity_summary() if self._service is not None else {},
            "serving": None,
            "continual": None,
        }
        if self.dms is not None:
            zoo = self.dms.fairms.zoo
            try:
                promoted: Optional[Tuple[str, str]] = zoo.promoted(self.tag)
            except StorageError:
                promoted = None
            snap["zoo"] = {
                "models": len(zoo),
                "promoted_model": promoted[0] if promoted else None,
                "promoted_version": promoted[1] if promoted else None,
                "promotions": zoo.promotion_count(self.tag) if promoted else 0,
            }
        if self._runtime is not None:
            snap["serving"] = self._runtime.telemetry_snapshot()
        if self._network is not None:
            fleet = self._network.replica_set
            snap["network"] = {
                "address": list(self._network.address),
                "replicas": len(fleet),
                "healthy": sum(1 for r in fleet.replicas if r.healthy),
                "versions": {str(k): v for k, v in fleet.versions.items()},
                "autoscaler": self._network.autoscaler is not None,
            }
        if self.tracer is not None:
            obs = self.spec.observability
            snap["observability"] = {
                "sample_rate": self.tracer.sample_rate,
                "exporters": list(obs.exporters) if obs is not None else [],
                **self.tracer.stats,
            }
        if self._continual is not None:
            trigger = self._continual.trigger
            snap["continual"] = {
                "observations": len(trigger.history),
                "times_fired": trigger.times_fired,
                "last_signal": trigger.last_value,
                "live_version": self._continual.handle.version,
            }
        return snap

    def close(self) -> None:
        """Shut down the network plane and the serving runtime.
        Idempotent; the in-process store and fitted models remain readable."""
        if self._closed:
            return
        self._closed = True
        if self._network is not None:
            self._network.close()
        if self._runtime is not None:
            self._runtime.shutdown()

    def __enter__(self) -> "Deployment":
        self._require_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"spec={self.spec.name!r}", f"digest={self.spec.digest()[:12]}"]
        if self.dms is not None:
            parts.append(f"model={self.spec.model.architecture!r}")
        if self.spec.continual is not None:
            parts.append("continual=True")
        return f"Deployment({', '.join(parts)})"
