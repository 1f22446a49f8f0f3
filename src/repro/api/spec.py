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

There is **one declaration per field** (``name: type = _field(default, check)``);
the shared :class:`_Spec` base derives validation, ``to_dict`` and ``from_dict``
from them, so a field cannot exist without being validated and serialised.

Named presets (:func:`preset`) describe the canonical configurations —
``"minimal"`` (data plane only), ``"serving"`` (adds a model and the
micro-batching runtime), ``"continual"`` (adds the drift-triggered retraining
loop), ``"ann"`` (the data plane with the IVF approximate index and a live
``n_probe`` serving knob), ``"networked"`` (the serving system behind the TCP
network plane with replicas and autoscaling) —
defined only by the JSON files shipped as ``repro/api/presets/*.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    "ModelSpec",
    "ServingSpec",
    "ContinualSpec",
    "ObservabilitySpec",
    "NetworkSpec",
    "SystemSpec",
    "preset",
    "preset_names",
]

#: DocumentDB collection used by :meth:`SystemSpec.persist`.
SPEC_COLLECTION = "system_specs"


# -- field checks ------------------------------------------------------------------
#: A check is ``(owner class name, field name, value) -> normalised value``; it
#: raises :class:`ConfigurationError` — never ``TypeError`` — on anything else.
Check = Callable[[str, str, Any], Any]


def _field(default: Any, check: Check) -> Any:
    """Declare one spec field: its default (a callable is a default factory)
    and the check every constructed value of it goes through.  A field whose
    default is ``None`` is optional: ``None`` is stored without being checked."""
    if callable(default):
        return field(default_factory=default, metadata={"check": check})
    return field(default=default, metadata={"check": check})


def _check_jsonable(label: str, value: Any) -> Any:
    """Deep-normalise ``value`` into plain JSON types, or raise."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):  # json.dumps would emit NaN/Infinity: not JSON
            raise ConfigurationError(f"{label}: {value!r} is not JSON-serialisable")
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


def _mapping(owner: str, name: str, value: Any, values: Optional[Check] = None) -> Dict[str, Any]:
    """A JSON mapping, stored deep-normalised; ``values`` checks every item."""
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{owner}.{name} must be a mapping, got {type(value).__name__}")
    value = _check_jsonable(f"{owner}.{name}", value)
    for key, item in value.items() if values is not None else ():
        values(owner, f"{name}[{key!r}]", item)
    return value


def _number(owner: str, name: str, value: Any) -> Union[int, float]:
    """Type before range, so a string in a JSON spec is a :class:`ConfigurationError`,
    not a bare ``TypeError`` — and finite, so ``save()`` never writes ``NaN``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{owner}.{name} must be a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{owner}.{name} must be a finite number")
    return value


def _positive(owner: str, name: str, value: Any) -> Union[int, float]:
    if _number(owner, name, value) <= 0:
        raise ConfigurationError(f"{owner}.{name} must be positive")
    return value


def _fraction(owner: str, name: str, value: Any) -> float:
    if not 0.0 <= _number(owner, name, value) <= 1.0:
        raise ConfigurationError(f"{owner}.{name} must be a number in [0, 1]")
    return float(value)


def _integer(lo: int = None, hi: int = None, literal: str = None) -> Check:
    """An ``int`` (never a ``bool``) within the bounds given, or ``literal``."""
    bounds = f" in [{lo}, {hi}]" if hi is not None else f" >= {lo}" if lo is not None else ""
    expected = f"an integer{bounds}" + (f" or {literal!r}" if literal is not None else "")

    def check(owner: str, name: str, value: Any) -> Any:
        if isinstance(value, str) and value == literal:
            return value
        if isinstance(value, bool) or not isinstance(value, int) \
                or (lo is not None and value < lo) or (hi is not None and value > hi):
            raise ConfigurationError(f"{owner}.{name} must be {expected}")
        return value

    return check


def _boolean(owner: str, name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{owner}.{name} must be a boolean")
    return value


def _text(owner: str, name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{owner}.{name} must be a non-empty string")
    return value


def _choice(*options: str) -> Check:
    def check(owner: str, name: str, value: Any) -> str:
        if not isinstance(value, str) or value not in options:
            raise ConfigurationError(f"{owner}.{name} must be " + " or ".join(map(repr, options)))
        return value

    return check


def _registered(kind: str) -> Check:
    def check(owner: str, name: str, value: Any) -> str:
        if not isinstance(value, str) or not is_registered(kind, value):
            raise ConfigurationError(
                f"{owner}: unknown {kind} {value!r}; available: {available_components(kind)}"
            )
        return value

    return check


def _names(noun: str, known: Sequence[str]) -> Check:
    """A list of distinct names out of ``known``, stored as a tuple."""

    def check(owner: str, name: str, value: Any) -> Tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ConfigurationError(f"{owner}.{name} must be a list of names")
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise ConfigurationError(
                f"{owner}.{name}: unknown {noun}(s) {unknown}; available: {list(known)}"
            )
        if len(set(value)) != len(value):
            raise ConfigurationError(f"{owner}.{name} must not repeat names")
        return tuple(value)

    return check


def _section(cls: type) -> Check:
    """A nested section: an instance of ``cls`` (only ``from_dict`` takes mappings)."""

    def check(owner: str, name: str, value: Any) -> Any:
        if not isinstance(value, cls):
            raise ConfigurationError(f"{owner}.{name} must be a {cls.__name__}")
        return value

    check.section = cls
    return check


def _retired(reason: str) -> Check:
    """A removed field kept as a slot that accepts only ``None`` (which is
    never checked), so spec files still carrying its ``null`` keep loading."""

    def check(owner: str, name: str, value: Any) -> Any:
        raise ConfigurationError(f"{owner}.{name}: {reason}; the field may only be null")

    return check


def _trial_construct(owner: str, build, *args, **kwargs) -> Any:
    """Eagerly construct a component to surface bad parameters at spec time."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{owner}: {exc}") from exc
    except TypeError as exc:
        raise ConfigurationError(f"{owner}: invalid parameters ({exc})") from exc


class _Spec:
    """What every spec dataclass shares, derived from its field declarations."""

    def __post_init__(self) -> None:
        owner = type(self).__name__
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                # Frozen dataclass: the normalised value goes in past __setattr__.
                object.__setattr__(self, f.name, f.metadata["check"](owner, f.name, value))
        self._validate()

    def _validate(self) -> None:
        """Per-class hook, run after the field checks: what a table cannot say."""

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-serialisable dict capturing the whole spec."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            nested = isinstance(value, _Spec)
            out[f.name] = value.to_dict() if nested else _check_jsonable(f.name, value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """The inverse of :meth:`to_dict`; unknown keys are rejected.

        ``None`` is rejected like any other non-mapping, so a top-level JSON
        ``null`` cannot silently produce a ``None`` spec (a ``None`` *nested*
        section is never passed through its class's ``from_dict``).
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} config must be a mapping, got {type(data).__name__}"
            )
        checks = {f.name: f.metadata["check"] for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(checks))
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} field(s): {unknown}; known: {sorted(checks)}"
            )
        kwargs = dict(data)
        for key, value in data.items():
            section = getattr(checks[key], "section", None)
            if section is not None and value is not None:
                kwargs[key] = section.from_dict(value)
        return cls(**kwargs)


# -- component specs ---------------------------------------------------------------
@dataclass(frozen=True)
class EmbedderSpec(_Spec):
    """Which :mod:`repro.embedding` embedder to use, by registry name."""

    name: str = _field("pca", _registered("embedder"))
    params: Mapping[str, Any] = _field(dict, _mapping)

    def _validate(self) -> None:
        _trial_construct("EmbedderSpec", create_component, "embedder", self.name, **self.params)


@dataclass(frozen=True)
class ClusteringSpec(_Spec):
    """Clustering algorithm and cluster-count policy of the fairDS index."""

    algorithm: str = _field("kmeans", _registered("clustering"))
    #: Integer ``K``, or ``"auto"`` for elbow-method selection.
    n_clusters: Union[int, str] = _field("auto", _integer(1, literal="auto"))
    max_auto_clusters: int = _field(15, _integer(2))
    params: Mapping[str, Any] = _field(dict, _mapping)

    def _validate(self) -> None:
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


@dataclass(frozen=True)
class StorageSpec(_Spec):
    """Document store backing the historical samples, Zoo, and checkpoints."""

    backend: str = _field("documentdb", _registered("storage"))
    collection: str = _field("fairds_samples", _text)
    params: Mapping[str, Any] = _field(dict, _mapping)


@dataclass(frozen=True)
class IndexSpec(_Spec):
    """Nearest-neighbour lookup index over the embedding space."""

    backend: str = _field("clustered", _registered("index"))
    #: Storage dtype of the index (``"float32"`` or ``"float64"``); see
    #: :class:`repro.core.fairds.FairDS` for the precision trade-off.
    dtype: str = _field("float32", _choice("float32", "float64"))
    params: Mapping[str, Any] = _field(dict, _mapping)
    #: Partitions probed per query for probing backends (``"clustered"``,
    #: ``"ivf"``); ``None`` keeps the backend's default.  On an ``"ivf"``
    #: deployment this is also the serving runtime's live ``n_probe`` knob's
    #: initial value.
    n_probe: Optional[int] = _field(None, _integer(1))

    def _validate(self) -> None:
        if self.n_probe is None:
            return
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


@dataclass(frozen=True)
class ModelSpec(_Spec):
    """Application model architecture plus its training hyper-parameters."""

    architecture: str = _field("braggnn", _registered("model"))
    params: Mapping[str, Any] = _field(dict, _mapping)
    #: :class:`repro.nn.trainer.TrainingConfig` keyword arguments.
    training: Mapping[str, Any] = _field(dict, _mapping)

    def _validate(self) -> None:
        _trial_construct("ModelSpec", create_component, "model", self.architecture, **self.params)
        from repro.nn.trainer import TrainingConfig

        _trial_construct("ModelSpec.training", TrainingConfig, **self.training)


@dataclass(frozen=True)
class ServingSpec(_Spec):
    """Micro-batching serving runtime configuration."""

    #: :class:`repro.serving.batcher.BatchingPolicy` keyword arguments.
    batching: Mapping[str, Any] = _field(dict, _mapping)
    num_workers: int = _field(2, _integer(1))

    def _validate(self) -> None:
        from repro.serving.batcher import BatchingPolicy

        _trial_construct("ServingSpec.batching", BatchingPolicy, **self.batching)


@dataclass(frozen=True)
class ContinualSpec(_Spec):
    """The drift-triggered continual-learning loop (monitor → … → hot-swap)."""

    trigger: str = _field("certainty", _registered("trigger"))
    trigger_params: Mapping[str, Any] = _field(dict, _mapping)
    tag: str = _field("latest", _text)
    gate_factor: float = _field(2.0, _positive)
    absolute_gate: Optional[float] = _field(None, _positive)
    refresh_on_trigger: bool = _field(True, _boolean)
    #: Persist per-step checkpoints (crash-resume) in the system storage backend.
    checkpoint: bool = _field(True, _boolean)
    step_retries: int = _field(0, _integer(0))
    step_timeout_s: Optional[float] = _field(None, _positive)

    def _validate(self) -> None:
        _trial_construct(
            "ContinualSpec", create_component, "trigger", self.trigger, **self.trigger_params
        )


_EXPORTERS = ("prometheus", "jsonl")


@dataclass(frozen=True)
class ObservabilitySpec(_Spec):
    """Metrics/tracing plane of a deployment (see :mod:`repro.observability`).

    ``enabled=False`` keeps the deployment completely uninstrumented beyond
    the always-on telemetry snapshots — no tracer is wired, so the serving
    hot path takes its zero-overhead branch.
    """

    enabled: bool = _field(True, _boolean)
    #: Fraction of request/pipeline roots that get a full trace, in [0, 1].
    sample_rate: float = _field(0.1, _fraction)
    #: Ring-buffer bound on finished spans kept in memory.
    trace_buffer: int = _field(4096, _integer(1))
    #: Export surfaces the ``repro observe`` CLI and CI smoke use; the
    #: deployment itself always exposes ``metrics_text()``/``trace_spans()``.
    exporters: Tuple[str, ...] = _field(_EXPORTERS, _names("exporter", _EXPORTERS))


@dataclass(frozen=True)
class NetworkSpec(_Spec):
    """The network serving plane (see :mod:`repro.net`): TCP endpoint,
    replica fleet, and optional autoscaling.

    ``port=0`` binds an ephemeral port (read it back from
    ``Deployment.serve_network().address``).  ``autoscale`` holds
    :class:`repro.net.autoscaler.AutoscalePolicy` keyword arguments —
    ``None`` serves a fixed fleet of ``replicas``.
    """

    host: str = _field("127.0.0.1", _text)
    port: int = _field(0, _integer(0, 65535))
    replicas: int = _field(2, _integer(1))
    #: Bound on one protocol frame body, either direction (bytes).
    max_frame_bytes: int = _field(16 * 1024 * 1024, _integer(1024))
    #: Per-connection cap on unanswered requests.
    max_in_flight: int = _field(64, _integer(1))
    #: Consecutive health-probe failures before a replica is ejected.
    eject_after: int = _field(3, _integer(1))
    #: Health-probe period of the replica set (seconds).
    health_interval_s: float = _field(0.5, _positive)
    #: :class:`~repro.net.autoscaler.AutoscalePolicy` kwargs; ``None`` = fixed fleet.
    autoscale: Optional[Mapping[str, Any]] = _field(None, _mapping)

    def _validate(self) -> None:
        if self.autoscale is None:
            return
        from repro.net.autoscaler import AutoscalePolicy

        trial = _trial_construct("NetworkSpec.autoscale", AutoscalePolicy.from_dict, self.autoscale)
        if trial.max_replicas < self.replicas:
            raise ConfigurationError(
                "NetworkSpec.autoscale: max_replicas must be >= the initial "
                f"replicas ({self.replicas})"
            )


# -- the composed system spec ------------------------------------------------------
@dataclass(frozen=True)
class SystemSpec(_Spec):
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

    name: str = _field("fairdms", _text)
    seed: int = _field(0, _integer())
    embedder: EmbedderSpec = _field(EmbedderSpec, _section(EmbedderSpec))
    clustering: ClusteringSpec = _field(ClusteringSpec, _section(ClusteringSpec))
    storage: StorageSpec = _field(StorageSpec, _section(StorageSpec))
    index: IndexSpec = _field(IndexSpec, _section(IndexSpec))
    #: Retired: spec files that still carry ``"sharding": null`` keep loading.
    sharding: None = _field(None, _retired("the sharded store was removed"))
    model: Optional[ModelSpec] = _field(None, _section(ModelSpec))
    serving: Optional[ServingSpec] = _field(None, _section(ServingSpec))
    continual: Optional[ContinualSpec] = _field(None, _section(ContinualSpec))
    observability: Optional[ObservabilitySpec] = _field(None, _section(ObservabilitySpec))
    #: Retired: spec files that still carry ``"executor": null`` keep loading.
    executor: None = _field(None, _retired("the compute plane was removed"))
    #: Network serving plane; ``None`` keeps serving in-process only.
    network: Optional[NetworkSpec] = _field(None, _section(NetworkSpec))
    #: :class:`repro.core.fairdms.UpdatePolicy` keyword arguments.
    policy: Mapping[str, Any] = _field(dict, _mapping)

    def _validate(self) -> None:
        from repro.core.fairdms import UpdatePolicy

        _trial_construct("SystemSpec.policy", UpdatePolicy, **self.policy)
        if self.continual is not None and self.model is None:
            raise ConfigurationError(
                "SystemSpec: a 'continual' section requires a 'model' section "
                "(the loop retrains the application model)"
            )
        if self.storage.backend == "file":
            raise ConfigurationError(
                "SystemSpec.storage: the system store must be a document database "
                "(the 'file' backend holds flat sample payloads and cannot back "
                "the fairDS/Zoo/checkpoint collections); use 'documentdb'"
            )

    # -- serialisation -----------------------------------------------------------
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
def preset_names() -> List[str]:
    """The named presets shipped with the library (``repro/api/presets/*.json``)."""
    directory = resources.files("repro.api") / "presets"
    return sorted(f.name[:-5] for f in directory.iterdir() if f.name.endswith(".json"))


def preset(name: str) -> SystemSpec:
    """A named preset :class:`SystemSpec`, read from its JSON file like any user spec.

    * ``"minimal"`` — the data plane alone: embed, cluster, store, look up.
    * ``"serving"`` — adds a BraggNN model and the micro-batching runtime.
    * ``"continual"`` — adds the drift-triggered retrain/promote/hot-swap loop.
    * ``"ann"`` — the data plane with the IVF approximate index and the
      serving runtime, exposing ``n_probe`` as a live knob; sized so the CLI
      smoke trains the quantizer on a few hundred samples (real stores raise it).
    * ``"observed"`` — the ``"ann"`` system (its scan counters populate the
      ``repro_index_*`` series) with the observability plane on: metrics
      registry + request tracing at 25%, so smoke bursts always record traces.
    * ``"networked"`` — the ``"serving"`` system behind the TCP network
      plane: two replicas, client-visible typed errors, and a
      telemetry-driven autoscaler that CLI/CI bursts can actually trip (fast
      interval, short cooldowns, low queue watermark; see :mod:`repro.net`).
    """
    if name not in preset_names():
        raise ConfigurationError(f"unknown preset {name!r}; available: {preset_names()}")
    preset_file = resources.files("repro.api") / "presets" / f"{name}.json"
    return SystemSpec.from_json(preset_file.read_text())
