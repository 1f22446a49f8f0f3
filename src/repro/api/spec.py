"""The declarative config plane: typed, validated, serialisable system specs.

A :class:`SystemSpec` names every component of the paper's system by its
:mod:`repro.api.registry` key — embedder, clustering algorithm, storage
backend, lookup index, application model, serving policy, continual-learning
loop — so that a full deployment is a *dict*, not a wiring script:

    >>> spec = SystemSpec(
    ...     embedder=EmbedderSpec("pca", {"embedding_dim": 6}),
    ...     clustering=ClusteringSpec("kmeans", n_clusters=6),
    ...     model=ModelSpec("braggnn", {"width": 4}, training={"epochs": 6}),
    ... )
    >>> SystemSpec.from_dict(spec.to_dict()) == spec
    True

Every spec dataclass is frozen and validates **eagerly at construction**:
unknown registry names, out-of-range parameters, and cross-field constraints
all fail at spec time with a :class:`~repro.utils.errors.ConfigurationError`
— never halfway through materialising a deployment.  Specs round-trip
losslessly through ``to_dict``/``from_dict`` and JSON (:meth:`SystemSpec.save`
/ :meth:`SystemSpec.load`), carry a canonical content :meth:`~SystemSpec.digest`
(invariant under key reordering, so byte-different JSON files describing the
same system collide on purpose), can be diffed field-by-field
(:meth:`SystemSpec.diff`), and persist into a
:class:`~repro.storage.documentdb.DocumentDB` keyed by digest
(:meth:`SystemSpec.persist` / :meth:`SystemSpec.from_db`).

Named presets (:func:`preset`) describe the canonical configurations —
``"minimal"`` (data plane only), ``"serving"`` (adds a model and the
micro-batching runtime), ``"continual"`` (adds the drift-triggered retraining
loop), ``"ann"`` (the data plane with the IVF approximate index and a live
``n_probe`` serving knob), ``"parallel"`` (the continual loop on the
process compute plane), ``"sharded"`` (the data plane over the multi-tenant
sharded store with fair round-robin serving), ``"networked"`` (the serving
system behind the TCP network plane with replicas and autoscaling) — and are
shipped verbatim as ``examples/specs/*.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.registry import (
    available_components,
    component_factory,
    create_component,
    filter_supported_kwargs,
    is_registered,
)
from repro.utils.errors import ConfigurationError

__all__ = [
    "EmbedderSpec",
    "ClusteringSpec",
    "StorageSpec",
    "IndexSpec",
    "ShardingSpec",
    "ModelSpec",
    "ServingSpec",
    "ContinualSpec",
    "ObservabilitySpec",
    "ExecutorSpec",
    "NetworkSpec",
    "SystemSpec",
    "preset",
    "preset_names",
]

#: DocumentDB collection used by :meth:`SystemSpec.persist`.
SPEC_COLLECTION = "system_specs"


# -- validation helpers ------------------------------------------------------------
def _check_jsonable(label: str, value: Any) -> Any:
    """Deep-normalise ``value`` into plain JSON types, or raise."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_check_jsonable(label, v) for v in value]
    if isinstance(value, Mapping):
        out = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(f"{label}: mapping keys must be strings, got {key!r}")
            out[key] = _check_jsonable(label, v)
        return out
    raise ConfigurationError(
        f"{label}: value {value!r} of type {type(value).__name__} is not JSON-serialisable"
    )


def _frozen_params(spec: Any, attr: str = "params") -> None:
    """Normalise a frozen dataclass's mapping field in place (post-init)."""
    label = f"{type(spec).__name__}.{attr}"
    value = getattr(spec, attr)
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{label} must be a mapping, got {type(value).__name__}")
    object.__setattr__(spec, attr, _check_jsonable(label, value))


def _check_positive_number(owner: str, name: str, value: Any, optional: bool = False) -> None:
    """Type-then-range check, so a string in a JSON spec raises
    :class:`ConfigurationError` rather than a bare ``TypeError``."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{owner}.{name} must be a number, got {type(value).__name__}"
        )
    if value <= 0:
        raise ConfigurationError(f"{owner}.{name} must be positive")


def _check_registered(kind: str, name: str, owner: str) -> None:
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"{owner} requires a non-empty {kind} name")
    if not is_registered(kind, name):
        raise ConfigurationError(
            f"{owner}: unknown {kind} {name!r}; available: {available_components(kind)}"
        )


def _trial_construct(owner: str, build, *args, **kwargs) -> Any:
    """Eagerly construct a component to surface bad parameters at spec time."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{owner}: {exc}") from exc
    except TypeError as exc:
        raise ConfigurationError(f"{owner}: invalid parameters ({exc})") from exc


def _from_dict(cls, data: Mapping[str, Any], nested: Optional[Mapping[str, Any]] = None):
    """Build dataclass ``cls`` from a plain dict, rejecting unknown keys.

    ``None`` is rejected like any other non-mapping: optional *nested*
    sections are handled by the caller (a ``None`` section is simply never
    passed through its converter), so a top-level JSON ``null`` cannot
    silently produce a ``None`` spec.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{cls.__name__} config must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} field(s): {unknown}; known: {sorted(known)}")
    kwargs = dict(data)
    for key, converter in (nested or {}).items():
        if kwargs.get(key) is not None:
            kwargs[key] = converter(kwargs[key])
    return cls(**kwargs)


# -- component specs ---------------------------------------------------------------
@dataclass(frozen=True)
class EmbedderSpec:
    """Which :mod:`repro.embedding` embedder to use, by registry name."""

    name: str = "pca"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _frozen_params(self)
        _check_registered("embedder", self.name, "EmbedderSpec")
        _trial_construct("EmbedderSpec", create_component, "embedder", self.name, **self.params)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EmbedderSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class ClusteringSpec:
    """Clustering algorithm and cluster-count policy of the fairDS index."""

    algorithm: str = "kmeans"
    #: Integer ``K``, or ``"auto"`` for elbow-method selection.
    n_clusters: Union[int, str] = "auto"
    max_auto_clusters: int = 15
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _frozen_params(self)
        _check_registered("clustering", self.algorithm, "ClusteringSpec")
        if isinstance(self.n_clusters, str):
            if self.n_clusters != "auto":
                raise ConfigurationError(
                    "ClusteringSpec.n_clusters must be an integer >= 1 or 'auto'"
                )
        elif not isinstance(self.n_clusters, int) or isinstance(self.n_clusters, bool) \
                or self.n_clusters < 1:
            raise ConfigurationError("ClusteringSpec.n_clusters must be an integer >= 1 or 'auto'")
        if not isinstance(self.max_auto_clusters, int) or isinstance(self.max_auto_clusters, bool) \
                or self.max_auto_clusters < 2:
            raise ConfigurationError("ClusteringSpec.max_auto_clusters must be an integer >= 2")
        if "n_clusters" in self.params:
            raise ConfigurationError(
                "ClusteringSpec.params must not contain 'n_clusters'; "
                "use the n_clusters field"
            )
        trial_k = 2 if self.n_clusters == "auto" else self.n_clusters
        _trial_construct(
            "ClusteringSpec", create_component, "clustering", self.algorithm,
            n_clusters=trial_k, **self.params,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusteringSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class StorageSpec:
    """Document store backing the historical samples, Zoo, and checkpoints."""

    backend: str = "documentdb"
    collection: str = "fairds_samples"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _frozen_params(self)
        _check_registered("storage", self.backend, "StorageSpec")
        if not isinstance(self.collection, str) or not self.collection:
            raise ConfigurationError("StorageSpec.collection must be a non-empty string")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StorageSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class IndexSpec:
    """Nearest-neighbour lookup index over the embedding space."""

    backend: str = "clustered"
    #: Storage dtype of the index (``"float32"`` or ``"float64"``); see
    #: :class:`repro.core.fairds.FairDS` for the precision trade-off.
    dtype: str = "float32"
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Partitions probed per query for probing backends (``"clustered"``,
    #: ``"ivf"``); ``None`` keeps the backend's default.  On an ``"ivf"``
    #: deployment this is also the serving runtime's live ``n_probe`` knob's
    #: initial value.
    n_probe: Optional[int] = None

    def __post_init__(self) -> None:
        _frozen_params(self)
        _check_registered("index", self.backend, "IndexSpec")
        if self.dtype not in ("float32", "float64"):
            raise ConfigurationError("IndexSpec.dtype must be 'float32' or 'float64'")
        if self.n_probe is not None:
            if not isinstance(self.n_probe, int) or isinstance(self.n_probe, bool) \
                    or self.n_probe < 1:
                raise ConfigurationError("IndexSpec.n_probe must be an integer >= 1")
            if "n_probe" in self.params:
                raise ConfigurationError(
                    "IndexSpec.params must not contain 'n_probe' when the "
                    "n_probe field is set"
                )
            factory = component_factory("index", self.backend)
            if not filter_supported_kwargs(factory, {"n_probe": self.n_probe}):
                raise ConfigurationError(
                    f"IndexSpec: index backend {self.backend!r} does not accept "
                    "n_probe; use a probing backend ('clustered', 'ivf') or "
                    "drop the field"
                )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IndexSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class ShardingSpec:
    """Topology and tenancy of the ``"sharded"`` index backend.

    Declares *how many* shard backends each tenant gets, how writes are
    replicated across them, which registered index backend every shard runs,
    and the per-tenant unique-key quotas — the Pulumi-style "cluster as
    validated config" shape, so scaling out is a spec edit, not a wiring
    script.  Only meaningful together with ``IndexSpec(backend="sharded")``;
    :class:`SystemSpec` enforces that pairing.
    """

    shards: int = 4
    replication: int = 1
    shard_backend: str = "flat"
    shard_params: Mapping[str, Any] = field(default_factory=dict)
    #: Default cap on unique keys per tenant (``None`` = unlimited).
    default_quota: Optional[int] = None
    #: Per-tenant overrides of ``default_quota``.
    tenant_quotas: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _frozen_params(self, "shard_params")
        _frozen_params(self, "tenant_quotas")
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 1:
            raise ConfigurationError("ShardingSpec.shards must be an integer >= 1")
        if not isinstance(self.replication, int) or isinstance(self.replication, bool) \
                or not 1 <= self.replication <= self.shards:
            raise ConfigurationError(
                f"ShardingSpec.replication must be an integer in [1, shards={self.shards}]"
            )
        _check_registered("index", self.shard_backend, "ShardingSpec")
        if self.shard_backend == "sharded":
            raise ConfigurationError("ShardingSpec.shard_backend cannot itself be 'sharded'")
        if self.default_quota is not None and (
            not isinstance(self.default_quota, int)
            or isinstance(self.default_quota, bool)
            or self.default_quota < 1
        ):
            raise ConfigurationError("ShardingSpec.default_quota must be an integer >= 1 or null")
        for tenant, quota in self.tenant_quotas.items():
            if not isinstance(quota, int) or isinstance(quota, bool) or quota < 1:
                raise ConfigurationError(
                    f"ShardingSpec.tenant_quotas[{tenant!r}] must be an integer >= 1"
                )
        from repro.storage.sharded import ShardedVectorStore

        # Eager trial construction builds the shard-backend template, so bad
        # shard_params fail at spec time like every other section.
        _trial_construct(
            "ShardingSpec", ShardedVectorStore, dim=4,
            n_shards=self.shards, replication=self.replication,
            shard_backend=self.shard_backend, shard_params=self.shard_params,
            tenant_quota=self.default_quota, tenant_quotas=self.tenant_quotas,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardingSpec":
        return _from_dict(cls, data)

    def store_params(self) -> Dict[str, Any]:
        """The :class:`ShardedVectorStore` constructor kwargs this spec names
        (merged under ``IndexSpec.params`` by the deployment wiring)."""
        return {
            "n_shards": self.shards,
            "replication": self.replication,
            "shard_backend": self.shard_backend,
            "shard_params": dict(self.shard_params),
            "tenant_quota": self.default_quota,
            "tenant_quotas": dict(self.tenant_quotas),
        }


@dataclass(frozen=True)
class ModelSpec:
    """Application model architecture plus its training hyper-parameters."""

    architecture: str = "braggnn"
    params: Mapping[str, Any] = field(default_factory=dict)
    #: :class:`repro.nn.trainer.TrainingConfig` keyword arguments.
    training: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _frozen_params(self)
        _frozen_params(self, "training")
        _check_registered("model", self.architecture, "ModelSpec")
        _trial_construct("ModelSpec", create_component, "model", self.architecture, **self.params)
        from repro.nn.trainer import TrainingConfig

        _trial_construct("ModelSpec.training", TrainingConfig, **self.training)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class ServingSpec:
    """Micro-batching serving runtime configuration."""

    #: :class:`repro.serving.batcher.BatchingPolicy` keyword arguments.
    batching: Mapping[str, Any] = field(default_factory=dict)
    num_workers: int = 2

    def __post_init__(self) -> None:
        _frozen_params(self, "batching")
        if not isinstance(self.num_workers, int) or isinstance(self.num_workers, bool) \
                or self.num_workers < 1:
            raise ConfigurationError("ServingSpec.num_workers must be an integer >= 1")
        from repro.serving.batcher import BatchingPolicy

        _trial_construct("ServingSpec.batching", BatchingPolicy, **self.batching)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class ContinualSpec:
    """The drift-triggered continual-learning loop (monitor → … → hot-swap)."""

    trigger: str = "certainty"
    trigger_params: Mapping[str, Any] = field(default_factory=dict)
    tag: str = "latest"
    gate_factor: float = 2.0
    absolute_gate: Optional[float] = None
    refresh_on_trigger: bool = True
    #: Persist per-step checkpoints (crash-resume) in the system storage backend.
    checkpoint: bool = True
    step_retries: int = 0
    step_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        _frozen_params(self, "trigger_params")
        _check_registered("trigger", self.trigger, "ContinualSpec")
        _trial_construct(
            "ContinualSpec", create_component, "trigger", self.trigger, **self.trigger_params
        )
        if not isinstance(self.tag, str) or not self.tag:
            raise ConfigurationError("ContinualSpec.tag must be a non-empty string")
        _check_positive_number("ContinualSpec", "gate_factor", self.gate_factor)
        _check_positive_number("ContinualSpec", "absolute_gate", self.absolute_gate, optional=True)
        if not isinstance(self.step_retries, int) or isinstance(self.step_retries, bool) \
                or self.step_retries < 0:
            raise ConfigurationError("ContinualSpec.step_retries must be a non-negative integer")
        _check_positive_number("ContinualSpec", "step_timeout_s", self.step_timeout_s, optional=True)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContinualSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class ObservabilitySpec:
    """Metrics/tracing plane of a deployment (see :mod:`repro.observability`).

    ``enabled=False`` keeps the deployment completely uninstrumented beyond
    the always-on telemetry snapshots — no tracer is wired, so the serving
    hot path takes its zero-overhead branch.
    """

    enabled: bool = True
    #: Fraction of request/pipeline roots that get a full trace, in [0, 1].
    sample_rate: float = 0.1
    #: Ring-buffer bound on finished spans kept in memory.
    trace_buffer: int = 4096
    #: Export surfaces the ``repro observe`` CLI and CI smoke use; the
    #: deployment itself always exposes ``metrics_text()``/``trace_spans()``.
    exporters: Tuple[str, ...] = ("prometheus", "jsonl")

    _KNOWN_EXPORTERS = ("prometheus", "jsonl")

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ConfigurationError("ObservabilitySpec.enabled must be a boolean")
        if isinstance(self.sample_rate, bool) \
                or not isinstance(self.sample_rate, (int, float)) \
                or not 0.0 <= float(self.sample_rate) <= 1.0:
            raise ConfigurationError("ObservabilitySpec.sample_rate must be a number in [0, 1]")
        if not isinstance(self.trace_buffer, int) or isinstance(self.trace_buffer, bool) \
                or self.trace_buffer < 1:
            raise ConfigurationError("ObservabilitySpec.trace_buffer must be an integer >= 1")
        if isinstance(self.exporters, str) or not isinstance(self.exporters, (list, tuple)):
            raise ConfigurationError("ObservabilitySpec.exporters must be a list of names")
        unknown = sorted(set(self.exporters) - set(self._KNOWN_EXPORTERS))
        if unknown:
            raise ConfigurationError(
                f"ObservabilitySpec.exporters: unknown exporter(s) {unknown}; "
                f"available: {list(self._KNOWN_EXPORTERS)}"
            )
        if len(set(self.exporters)) != len(tuple(self.exporters)):
            raise ConfigurationError("ObservabilitySpec.exporters must not repeat names")
        object.__setattr__(self, "exporters", tuple(self.exporters))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "sample_rate": float(self.sample_rate),
            "trace_buffer": self.trace_buffer,
            "exporters": list(self.exporters),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObservabilitySpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class ExecutorSpec:
    """Compute-plane backend for data-parallel training, MC-dropout probes,
    and peak fitting (see :mod:`repro.compute`).

    ``kind`` is a registry name — ``"inline"`` (serial, the behaviour of a
    spec without an executor section), ``"thread"``, or ``"process"`` (the
    GIL-escaping backend with shared-memory array handoff).  Construction is
    lazy: validating a spec never spawns worker processes.
    """

    kind: str = "inline"
    workers: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _frozen_params(self)
        _check_registered("executor", self.kind, "ExecutorSpec")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) \
                or self.workers < 1:
            raise ConfigurationError("ExecutorSpec.workers must be an integer >= 1")
        if "max_workers" in self.params:
            raise ConfigurationError(
                "ExecutorSpec.params must not contain 'max_workers'; use the workers field"
            )
        trial = _trial_construct(
            "ExecutorSpec", create_component, "executor", self.kind,
            max_workers=self.workers, **self.params,
        )
        # Executors start lazily, so the trial spawned nothing — but close it
        # anyway in case a custom registered backend allocates eagerly.
        close = getattr(trial, "close", None)
        if callable(close):
            close()

    def build(self):
        """Construct the configured executor (workers spawn on first use)."""
        return create_component(
            "executor", self.kind, max_workers=self.workers, **self.params
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutorSpec":
        return _from_dict(cls, data)


@dataclass(frozen=True)
class NetworkSpec:
    """The network serving plane (see :mod:`repro.net`): TCP endpoint,
    replica fleet, and optional autoscaling.

    ``port=0`` binds an ephemeral port (read it back from
    ``Deployment.serve_network().address``).  ``autoscale`` holds
    :class:`repro.net.autoscaler.AutoscalePolicy` keyword arguments —
    ``None`` serves a fixed fleet of ``replicas``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 2
    #: Bound on one protocol frame body, either direction (bytes).
    max_frame_bytes: int = 16 * 1024 * 1024
    #: Per-connection cap on unanswered requests.
    max_in_flight: int = 64
    #: Consecutive health-probe failures before a replica is ejected.
    eject_after: int = 3
    #: Health-probe period of the replica set (seconds).
    health_interval_s: float = 0.5
    #: :class:`~repro.net.autoscaler.AutoscalePolicy` kwargs; ``None`` = fixed fleet.
    autoscale: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError("NetworkSpec.host must be a non-empty string")
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not 0 <= self.port <= 65535:
            raise ConfigurationError("NetworkSpec.port must be an integer in [0, 65535]")
        for name, minimum in (("replicas", 1), ("max_frame_bytes", 1024),
                              ("max_in_flight", 1), ("eject_after", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ConfigurationError(
                    f"NetworkSpec.{name} must be an integer >= {minimum}"
                )
        _check_positive_number("NetworkSpec", "health_interval_s", self.health_interval_s)
        if self.autoscale is not None:
            object.__setattr__(
                self, "autoscale",
                _check_jsonable("NetworkSpec.autoscale", self.autoscale),
            )
            from repro.net.autoscaler import AutoscalePolicy

            trial = _trial_construct(
                "NetworkSpec.autoscale", AutoscalePolicy.from_dict, self.autoscale
            )
            if trial.max_replicas < self.replicas:
                raise ConfigurationError(
                    "NetworkSpec.autoscale: max_replicas must be >= the initial "
                    f"replicas ({self.replicas})"
                )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkSpec":
        return _from_dict(cls, data)


# -- the composed system spec ------------------------------------------------------
@dataclass(frozen=True)
class SystemSpec:
    """One declarative description of the whole fairDMS system.

    Materialise it with :class:`repro.api.deployment.Deployment`; serialise
    with :meth:`to_dict` / :meth:`save`; identify with :meth:`digest`.

    Cross-field constraints enforced at construction:

    * a ``continual`` section requires a ``model`` section (the loop retrains
      the application model);
    * the system storage backend must be a *document* store — the built-in
      ``"file"`` backend holds flat sample payloads and cannot back the
      collections fairDS, the Zoo, and checkpoints need;
    * ``policy`` must form a valid :class:`repro.core.fairdms.UpdatePolicy`.
    """

    name: str = "fairdms"
    seed: int = 0
    embedder: EmbedderSpec = field(default_factory=EmbedderSpec)
    clustering: ClusteringSpec = field(default_factory=ClusteringSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    index: IndexSpec = field(default_factory=IndexSpec)
    #: Shard topology and tenancy; requires ``index.backend == "sharded"``.
    sharding: Optional[ShardingSpec] = None
    model: Optional[ModelSpec] = None
    serving: Optional[ServingSpec] = None
    continual: Optional[ContinualSpec] = None
    observability: Optional[ObservabilitySpec] = None
    #: Compute-plane backend; ``None`` behaves exactly like ``kind="inline"``.
    executor: Optional[ExecutorSpec] = None
    #: Network serving plane; ``None`` keeps serving in-process only.
    network: Optional[NetworkSpec] = None
    #: :class:`repro.core.fairdms.UpdatePolicy` keyword arguments.
    policy: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("SystemSpec.name must be a non-empty string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError("SystemSpec.seed must be an integer")
        for attr, cls in (
            ("embedder", EmbedderSpec),
            ("clustering", ClusteringSpec),
            ("storage", StorageSpec),
            ("index", IndexSpec),
        ):
            if not isinstance(getattr(self, attr), cls):
                raise ConfigurationError(f"SystemSpec.{attr} must be a {cls.__name__}")
        for attr, cls in (
            ("sharding", ShardingSpec),
            ("model", ModelSpec), ("serving", ServingSpec),
            ("continual", ContinualSpec), ("observability", ObservabilitySpec),
            ("executor", ExecutorSpec), ("network", NetworkSpec),
        ):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, cls):
                raise ConfigurationError(f"SystemSpec.{attr} must be a {cls.__name__} or None")
        _frozen_params(self, "policy")
        from repro.core.fairdms import UpdatePolicy

        _trial_construct("SystemSpec.policy", UpdatePolicy, **self.policy)
        # Cross-field constraints.
        if self.continual is not None and self.model is None:
            raise ConfigurationError(
                "SystemSpec: a 'continual' section requires a 'model' section "
                "(the loop retrains the application model)"
            )
        if self.sharding is not None:
            if self.index.backend != "sharded":
                raise ConfigurationError(
                    "SystemSpec: a 'sharding' section requires "
                    "IndexSpec(backend='sharded'); got "
                    f"index.backend={self.index.backend!r}"
                )
            overlap = sorted(set(self.index.params) & set(self.sharding.store_params()))
            if overlap:
                raise ConfigurationError(
                    f"SystemSpec: index.params must not duplicate sharding fields {overlap}; "
                    "declare the topology once, in the 'sharding' section"
                )
        if self.storage.backend == "file":
            raise ConfigurationError(
                "SystemSpec.storage: the system store must be a document database "
                "(the 'file' backend holds flat sample payloads and cannot back "
                "the fairDS/Zoo/checkpoint collections); use 'documentdb'"
            )

    # -- serialisation -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-serialisable dict capturing the whole spec."""
        return {
            "name": self.name,
            "seed": self.seed,
            "embedder": self.embedder.to_dict(),
            "clustering": self.clustering.to_dict(),
            "storage": self.storage.to_dict(),
            "index": self.index.to_dict(),
            "sharding": self.sharding.to_dict() if self.sharding is not None else None,
            "model": self.model.to_dict() if self.model is not None else None,
            "serving": self.serving.to_dict() if self.serving is not None else None,
            "continual": self.continual.to_dict() if self.continual is not None else None,
            "observability": (
                self.observability.to_dict() if self.observability is not None else None
            ),
            "executor": self.executor.to_dict() if self.executor is not None else None,
            "network": self.network.to_dict() if self.network is not None else None,
            "policy": dict(self.policy),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemSpec":
        """The inverse of :meth:`to_dict`; unknown keys are rejected."""
        return _from_dict(
            cls,
            data,
            nested={
                "embedder": EmbedderSpec.from_dict,
                "clustering": ClusteringSpec.from_dict,
                "storage": StorageSpec.from_dict,
                "index": IndexSpec.from_dict,
                "sharding": ShardingSpec.from_dict,
                "model": ModelSpec.from_dict,
                "serving": ServingSpec.from_dict,
                "continual": ContinualSpec.from_dict,
                "observability": ObservabilitySpec.from_dict,
                "executor": ExecutorSpec.from_dict,
                "network": NetworkSpec.from_dict,
            },
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as JSON; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SystemSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())

    # -- identity ----------------------------------------------------------------
    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON — the digest pre-image."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content digest of the spec (sha256 of :meth:`canonical_json`).

        Invariant under JSON key order and formatting: two files describing
        the same system produce the same digest, so digests can key persisted
        specs and detect configuration drift between deployments.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def diff(self, other: "SystemSpec") -> Dict[str, Tuple[Any, Any]]:
        """Field-level difference: ``{dotted.path: (mine, theirs)}``.

        A path present on only one side (e.g. ``model.architecture`` when the
        other spec has ``model: null``) reports ``None`` for the side that
        lacks it; whole-section presence is already visible at the section's
        own path (``"model": (None, ...)``), so the two cases stay
        distinguishable.
        """

        def flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
            if prefix:
                # Every node is recorded — mapping roots too, so a section
                # present on one side only surfaces as its whole dict.
                out[prefix] = value
            if isinstance(value, Mapping):
                for key in value:
                    flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)

        mine: Dict[str, Any] = {}
        theirs: Dict[str, Any] = {}
        flatten("", self.to_dict(), mine)
        flatten("", other.to_dict(), theirs)
        missing = object()  # internal only: never escapes into the result
        return {
            path: (mine.get(path), theirs.get(path))
            for path in sorted(set(mine) | set(theirs))
            if mine.get(path, missing) != theirs.get(path, missing)
        }

    # -- persistence in DocumentDB -----------------------------------------------
    def persist(self, db, collection: str = SPEC_COLLECTION) -> str:
        """Store the spec in ``db`` keyed by its digest; returns the digest.

        Idempotent: persisting the same content twice (even from a key-reordered
        source) upserts one document.
        """
        digest = self.digest()
        db.collection(collection).upsert_one(
            {"digest": digest},
            {"name": self.name, "spec": self.to_dict()},
        )
        return digest

    @classmethod
    def from_db(cls, db, digest: str, collection: str = SPEC_COLLECTION) -> "SystemSpec":
        """Load a persisted spec back by its digest."""
        doc = db.collection(collection).snapshot_one({"digest": digest})
        if doc is None:
            raise ConfigurationError(f"no spec with digest {digest!r} in collection {collection!r}")
        return cls.from_dict(doc["spec"])


# -- presets -----------------------------------------------------------------------
def _preset_minimal() -> SystemSpec:
    return SystemSpec(
        name="minimal",
        embedder=EmbedderSpec("pca", {"embedding_dim": 6}),
        clustering=ClusteringSpec("kmeans", n_clusters=6),
        storage=StorageSpec("documentdb"),
        index=IndexSpec("clustered", dtype="float32"),
    )


def _preset_serving() -> SystemSpec:
    minimal = _preset_minimal()
    return dataclasses.replace(
        minimal,
        name="serving",
        model=ModelSpec(
            "braggnn",
            {"width": 4},
            training={"epochs": 6, "batch_size": 32, "lr": 3e-3},
        ),
        serving=ServingSpec(batching={"max_batch_size": 16}, num_workers=2),
        policy={"distance_threshold": 0.7, "certainty_threshold": 10.0},
    )


def _preset_continual() -> SystemSpec:
    serving = _preset_serving()
    return dataclasses.replace(
        serving,
        name="continual",
        continual=ContinualSpec(
            trigger="certainty",
            trigger_params={"threshold_percent": 20.0, "cooldown": 1},
            gate_factor=2.0,
        ),
    )


def _preset_ann() -> SystemSpec:
    minimal = _preset_minimal()
    return dataclasses.replace(
        minimal,
        name="ann",
        index=IndexSpec(
            "ivf",
            dtype="float32",
            # Small enough that the CLI smoke path trains the quantizer on a
            # few hundred bootstrap samples; production stores raise these.
            params={"n_partitions": 16, "train_threshold": 64, "train_size": 4096},
            n_probe=4,
        ),
        serving=ServingSpec(batching={"max_batch_size": 32}, num_workers=2),
    )


def _preset_observed() -> SystemSpec:
    # The ann preset (IVF index: its scan counters populate the
    # repro_index_* series) with the observability plane switched on at a
    # sampling rate high enough that smoke bursts always record traces.
    ann = _preset_ann()
    return dataclasses.replace(
        ann,
        name="observed",
        observability=ObservabilitySpec(
            enabled=True, sample_rate=0.25, trace_buffer=4096,
            exporters=("prometheus", "jsonl"),
        ),
    )


def _preset_parallel() -> SystemSpec:
    # The continual system with the GIL-escaping compute plane switched on:
    # training, MC-dropout probes, and peak fitting fan out across two
    # worker processes with shared-memory array handoff.
    continual = _preset_continual()
    return dataclasses.replace(
        continual,
        name="parallel",
        executor=ExecutorSpec("process", workers=2),
    )


def _preset_networked() -> SystemSpec:
    # The serving system behind the TCP network plane: two replicas, a small
    # per-connection in-flight cap (smoke clients are few), and an autoscaler
    # sized so CLI/CI bursts can actually trip it — fast control interval,
    # short cooldowns, and a low queue watermark.
    serving = _preset_serving()
    return dataclasses.replace(
        serving,
        name="networked",
        network=NetworkSpec(
            host="127.0.0.1",
            port=0,
            replicas=2,
            max_in_flight=32,
            eject_after=3,
            health_interval_s=0.25,
            autoscale={
                "min_replicas": 1,
                "max_replicas": 4,
                "min_workers": 1,
                "max_workers": 4,
                "high_queue_per_replica": 8.0,
                "low_queue_per_replica": 1.0,
                "up_after": 2,
                "down_after": 3,
                "up_cooldown_s": 1.0,
                "down_cooldown_s": 5.0,
                "interval_s": 0.25,
            },
        ),
    )


def _preset_sharded() -> SystemSpec:
    # The data plane over the multi-tenant sharded store: four flat shards
    # per tenant, a default quota wide enough for smoke ingests, and the
    # serving runtime in fair round-robin tenancy mode.
    minimal = _preset_minimal()
    return dataclasses.replace(
        minimal,
        name="sharded",
        index=IndexSpec("sharded", dtype="float32"),
        sharding=ShardingSpec(
            shards=4,
            replication=1,
            shard_backend="flat",
            default_quota=4096,
        ),
        serving=ServingSpec(
            batching={"max_batch_size": 16, "fair_tenancy": True},
            num_workers=2,
        ),
    )


_PRESETS = {
    "minimal": _preset_minimal,
    "serving": _preset_serving,
    "continual": _preset_continual,
    "ann": _preset_ann,
    "observed": _preset_observed,
    "parallel": _preset_parallel,
    "sharded": _preset_sharded,
    "networked": _preset_networked,
}


def preset_names() -> List[str]:
    """The named presets shipped with the library."""
    return sorted(_PRESETS)


def preset(name: str) -> SystemSpec:
    """A named preset :class:`SystemSpec`.

    * ``"minimal"`` — the data plane alone: embed, cluster, store, look up.
    * ``"serving"`` — adds a BraggNN model and the micro-batching runtime.
    * ``"continual"`` — adds the drift-triggered retrain/promote/hot-swap loop.
    * ``"ann"`` — the data plane with the IVF approximate index and the
      serving runtime, exposing ``n_probe`` as a live knob.
    * ``"observed"`` — the ``"ann"`` system with the observability plane on
      (metrics registry + request tracing at a 25% sampling rate).
    * ``"parallel"`` — the ``"continual"`` system with the process compute
      plane (two workers, shared-memory handoff) under training, MC probes,
      and peak fitting.
    * ``"sharded"`` — the data plane over the multi-tenant sharded store
      (four flat shards per tenant, per-tenant quotas) with fair round-robin
      tenancy in the serving runtime.
    * ``"networked"`` — the ``"serving"`` system behind the TCP network
      plane: two replicas, client-visible typed errors, and a
      telemetry-driven autoscaler (see :mod:`repro.net`).
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {preset_names()}"
        ) from None
    return factory()
