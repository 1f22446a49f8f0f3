"""Package-wide component registry: every swappable part, constructible by name.

The scalability ablations swap their storage/index stack from configuration,
and the declarative :mod:`repro.api.spec` config plane needs the same
discipline for every component kind the system is assembled from, so one
table holds them all:

========== ============================================== =======================
kind       built-in names                                 built on
========== ============================================== =======================
embedder   ``pca``, ``autoencoder``, ``contrastive``,     :mod:`repro.embedding`
           ``byol``
clustering ``kmeans``                                     :mod:`repro.clustering`
storage    ``documentdb``, ``file``                       :mod:`repro.storage`
index      ``flat``, ``clustered``, ``ivf``                :mod:`repro.storage`
model      ``braggnn``, ``cookienetae``, ``tomogan``      :mod:`repro.models`
trigger    ``threshold``, ``certainty``                   :mod:`repro.monitoring`
policy     ``batching``, ``update``                       serving / core
========== ============================================== =======================

    >>> from repro.api.registry import create_component
    >>> embedder = create_component("embedder", "pca", embedding_dim=8)
    >>> trigger = create_component("trigger", "certainty", threshold_percent=20.0)

Built-ins register lazily on first registry access, so importing this module
stays cheap and free of circular imports (the sub-packages themselves import
it).  This is the **only** registry: there is no per-package table to keep in
step, so whatever is registered here is what specs, tuning and wiring see.

User code plugs in its own components with :func:`register_component`
(usable as a decorator)::

    @register_component("trigger", "ewma")
    class EWMATrigger: ...
"""

from __future__ import annotations

import inspect
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.utils.errors import ConfigurationError

#: Every component kind the registry covers, in presentation order.
COMPONENT_KINDS: Tuple[str, ...] = (
    "embedder",
    "clustering",
    "storage",
    "index",
    "model",
    "trigger",
    "policy",
)

#: Guards mutations of the component table only — never held across imports.
_LOCK = threading.Lock()
_COMPONENTS: Dict[str, Dict[str, Callable[..., Any]]] = {k: {} for k in COMPONENT_KINDS}
#: Builtin-load state machine: "empty" -> "loading" -> "ready" (back to
#: "empty" when a load fails, so a later call retries).
_BUILTIN_STATE = "empty"
_BUILTIN_COND = threading.Condition()
_BUILTIN_LOADER: Optional[int] = None  # thread ident of the in-progress loader


def _registry(kind: str) -> Dict[str, Callable[..., Any]]:
    try:
        return _COMPONENTS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown component kind {kind!r}; expected one of {sorted(_COMPONENTS)}"
        ) from None


def _ensure_builtins() -> None:
    """Load the built-in registrations once, on first registry access.

    Locking discipline: the loader thread runs the builtin imports with **no
    registry lock held** — holding one across ``import`` statements would
    deadlock against a thread that sits inside a module import (holding that
    module's import lock) and registers a component.  Re-entrant calls from
    the loader thread itself (the builtin imports register components, which
    calls back in here) return immediately; other threads block on an event
    until the load settles.
    """
    global _BUILTIN_STATE, _BUILTIN_LOADER
    if _BUILTIN_STATE == "ready":  # benign unlocked fast-path read
        return
    me = threading.get_ident()
    with _BUILTIN_COND:
        while _BUILTIN_STATE == "loading" and _BUILTIN_LOADER != me:
            if not _BUILTIN_COND.wait(timeout=60.0):
                # A wedged loader thread: proceed against whatever is
                # registered so far rather than hanging forever; the
                # caller's own lookup error reports any gap.
                return
        if _BUILTIN_STATE == "ready":
            return
        if _BUILTIN_STATE == "loading":
            return  # re-entrant call from inside _load_builtins itself
        _BUILTIN_STATE = "loading"
        _BUILTIN_LOADER = me
    try:
        _load_builtins()
    except BaseException:
        with _BUILTIN_COND:
            # Reset so a later call retries, and wake waiters immediately
            # (on waking they observe "empty" and take over the load).
            _BUILTIN_STATE = "empty"
            _BUILTIN_LOADER = None
            _BUILTIN_COND.notify_all()
        raise
    with _BUILTIN_COND:
        _BUILTIN_STATE = "ready"
        _BUILTIN_LOADER = None
        _BUILTIN_COND.notify_all()


def _builtin(kind: str, name: str, factory: Callable[..., Any]) -> None:
    """Register a built-in unless the name is already taken (a user may have
    registered a replacement before the lazy load ran)."""
    _COMPONENTS[kind].setdefault(name, factory)


def _load_builtins() -> None:
    from repro.embedding import (
        AutoencoderEmbedder,
        BYOLEmbedder,
        ContrastiveEmbedder,
        PCAEmbedder,
    )

    _builtin("embedder", "pca", PCAEmbedder)
    _builtin("embedder", "autoencoder", AutoencoderEmbedder)
    _builtin("embedder", "contrastive", ContrastiveEmbedder)
    _builtin("embedder", "byol", BYOLEmbedder)

    from repro.clustering.kmeans import KMeans

    _builtin("clustering", "kmeans", KMeans)

    from repro.storage.codecs import get_codec
    from repro.storage.documentdb import DocumentDB, NetworkModel
    from repro.storage.file_store import FileStore
    from repro.storage.ivf_index import IVFVectorIndex
    from repro.storage.vector_index import ClusteredVectorIndex, VectorIndex

    def _make_documentdb(codec=None, network=None, **kwargs: Any) -> DocumentDB:
        """DocumentDB factory accepting codec names and network-model dicts."""
        if isinstance(codec, str):
            codec = get_codec(codec)
        if isinstance(network, Mapping):
            network = NetworkModel(**network)
        return DocumentDB(codec=codec, network=network, **kwargs)

    _builtin("storage", "file", FileStore)
    _builtin("storage", "documentdb", _make_documentdb)
    _builtin("index", "flat", VectorIndex)
    _builtin("index", "clustered", ClusteredVectorIndex)
    _builtin("index", "ivf", IVFVectorIndex)

    from repro.models import build_braggnn, build_cookienetae, build_tomogan_denoiser

    _builtin("model", "braggnn", build_braggnn)
    _builtin("model", "cookienetae", build_cookienetae)
    _builtin("model", "tomogan", build_tomogan_denoiser)

    from repro.monitoring.triggers import CertaintyTrigger, ThresholdTrigger

    _builtin("trigger", "threshold", ThresholdTrigger)
    _builtin("trigger", "certainty", CertaintyTrigger)

    from repro.core.fairdms import UpdatePolicy
    from repro.serving.batcher import BatchingPolicy

    _builtin("policy", "batching", BatchingPolicy)
    _builtin("policy", "update", UpdatePolicy)


# -- public API --------------------------------------------------------------------
def component_kinds() -> List[str]:
    """Every kind the registry covers."""
    return list(COMPONENT_KINDS)


def register_component(
    kind: str,
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    overwrite: bool = False,
):
    """Register ``factory`` (a class or callable) under ``(kind, name)``.

    Usable directly (``register_component("trigger", "ewma", EWMATrigger)``)
    or as a decorator (``@register_component("trigger", "ewma")``).  Duplicate
    names raise unless ``overwrite=True``.
    """
    _ensure_builtins()
    registry = _registry(kind)

    def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
        with _LOCK:
            if name in registry and not overwrite:
                raise ConfigurationError(
                    f"{kind} component {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            registry[name] = fn
        return fn

    return _register(factory) if factory is not None else _register


def unregister_component(kind: str, name: str) -> bool:
    """Remove a registered component; returns True if it existed.

    Mainly for tests and plugins that add temporary components and must not
    leak them into the process-wide registry.
    """
    _ensure_builtins()
    with _LOCK:
        return _registry(kind).pop(name, None) is not None


def available_components(kind: str) -> List[str]:
    """Names registered for ``kind`` (see :data:`COMPONENT_KINDS`)."""
    _ensure_builtins()
    return sorted(_registry(kind))


def is_registered(kind: str, name: str) -> bool:
    """Whether ``(kind, name)`` is constructible."""
    _ensure_builtins()
    return name in _registry(kind)


def component_factory(kind: str, name: str) -> Callable[..., Any]:
    """The factory registered under ``(kind, name)``."""
    _ensure_builtins()
    registry = _registry(kind)
    try:
        return registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} component {name!r}; available: {sorted(registry)}"
        ) from None


def create_component(kind: str, name: str, **kwargs: Any) -> Any:
    """Instantiate the component registered under ``(kind, name)``."""
    return component_factory(kind, name)(**kwargs)


def filter_supported_kwargs(
    factory: Callable[..., Any], optional: Mapping[str, Any]
) -> Dict[str, Any]:
    """The subset of ``optional`` kwargs that ``factory``'s signature accepts.

    The wiring layer offers components *optional* context — seeds, cluster
    centres, index dtypes — that built-in factories accept but a custom
    registered component may not declare.  Filtering by signature lets a
    component that validated at spec time also construct at materialise time
    without demanding every context parameter.  Factories taking ``**kwargs``
    (and ones whose signatures cannot be inspected) receive everything.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins / C callables without signatures
        return dict(optional)
    params = signature.parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return dict(optional)
    accepted = {
        p.name
        for p in params
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return {name: value for name, value in optional.items() if name in accepted}


def create_from_spec(config: Mapping[str, Any]) -> Any:
    """Instantiate a component from ``{"kind": ..., "name": ..., "params": {...}}``."""
    if "kind" not in config or "name" not in config:
        raise ConfigurationError("component config requires 'kind' and 'name' entries")
    params = dict(config.get("params") or {})
    return create_component(config["kind"], config["name"], **params)
