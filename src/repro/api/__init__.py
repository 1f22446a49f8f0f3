"""The declarative API plane: specs in, a running system out.

* :mod:`repro.api.registry` — package-wide component registry; every
  swappable part (embedder, clustering, storage, index, model, trigger,
  policy) constructible by name.
* :mod:`repro.api.spec` — frozen, validated config dataclasses composed into
  :class:`~repro.api.spec.SystemSpec`, with JSON round-trip, content digests,
  diffing, and named presets.
* :mod:`repro.api.deployment` — :class:`~repro.api.deployment.Deployment`,
  the facade that materialises a spec into the wired system and exposes the
  whole lifecycle (``fit / ingest / lookup / certainty / update_model /
  serve / continual / snapshot / close``).

Quick start::

    from repro.api import Deployment, preset

    with Deployment.from_spec(preset("serving")) as dep:
        dep.fit(images, labels)
        with dep.serve() as runtime:
            runtime.call("predict", images[0])

Names are exported lazily (PEP 562): sub-packages import
``repro.api.registry`` at module scope, so this ``__init__`` must not import
the heavyweight spec/deployment modules eagerly.
"""

from typing import List

_EXPORTS = {
    # registry
    "COMPONENT_KINDS": "repro.api.registry",
    "available_components": "repro.api.registry",
    "component_factory": "repro.api.registry",
    "component_kinds": "repro.api.registry",
    "create_component": "repro.api.registry",
    "create_from_spec": "repro.api.registry",
    "is_registered": "repro.api.registry",
    "register_component": "repro.api.registry",
    "unregister_component": "repro.api.registry",
    # spec plane
    "ClusteringSpec": "repro.api.spec",
    "ContinualSpec": "repro.api.spec",
    "EmbedderSpec": "repro.api.spec",
    "IndexSpec": "repro.api.spec",
    "ModelSpec": "repro.api.spec",
    "NetworkSpec": "repro.api.spec",
    "ObservabilitySpec": "repro.api.spec",
    "ServingSpec": "repro.api.spec",
    "StorageSpec": "repro.api.spec",
    "SystemSpec": "repro.api.spec",
    "preset": "repro.api.spec",
    "preset_names": "repro.api.spec",
    # deployment facade
    "Deployment": "repro.api.deployment",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
