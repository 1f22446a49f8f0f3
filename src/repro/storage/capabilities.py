"""What a storage or index backend must offer, and what an index instance can do.

The two :class:`~typing.Protocol` classes describe the minimal surface of the
components registered under the ``"storage"`` and ``"index"`` kinds of
:mod:`repro.api.registry`; :func:`probe_index_capabilities` inspects one index
*instance* once, so wiring layers compose any conforming backend without
name-based special cases.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, List, Protocol, runtime_checkable

import numpy as np

from repro.storage.vector_index import QueryResult


@runtime_checkable
class StorageBackend(Protocol):
    """Minimal surface every storage backend exposes."""

    def storage_bytes(self) -> int:
        """Total payload bytes currently held by the backend."""
        ...


@runtime_checkable
class IndexBackend(Protocol):
    """Minimal surface every vector-lookup backend exposes."""

    def __len__(self) -> int: ...

    def query(self, vector: np.ndarray, k: int = 1) -> QueryResult: ...

    def query_batch(self, vectors: np.ndarray, k: int = 1) -> List[QueryResult]: ...


@dataclass(frozen=True)
class IndexCapabilities:
    """What an index backend instance's surface actually supports.

    The built-in backends differ structurally — ``clustered`` demands per-row
    ``cluster_ids`` on ``add``, ``flat`` and ``ivf`` refuse them; ``ivf``
    alone exposes the live ``n_probe`` knob and scan statistics; a minimal
    custom backend may only implement single-vector ``query``.  Probing these
    once, here, lets every wiring layer (``FairDS``, the ``Deployment``
    facade, benchmarks) compose any conforming backend without name-based
    special cases.
    """

    #: ``add(keys, vectors, cluster_ids)`` vs ``add(keys, vectors)``.
    takes_cluster_ids: bool
    #: Has a batched ``query_batch``; otherwise callers loop ``query``.
    supports_query_batch: bool
    #: Has the atomic live ``set_n_probe`` knob (IVF-style backends).
    supports_n_probe: bool
    #: Reports cumulative ``scan_stats()`` counters.
    supports_scan_stats: bool


def probe_index_capabilities(index: Any) -> IndexCapabilities:
    """Inspect an index backend instance's signatures exactly once.

    ``add`` is probed for a ``cluster_ids`` parameter (uninspectable C
    callables are assumed to take it, preserving the clustered-backend
    default); the rest are attribute probes.  Call at construction and keep
    the result — per-call ``inspect`` on a hot path is exactly what this
    exists to avoid.
    """
    add = getattr(index, "add", None)
    takes_cluster_ids = False
    if add is not None:
        try:
            takes_cluster_ids = "cluster_ids" in inspect.signature(add).parameters
        except (TypeError, ValueError):  # builtins / C callables without signatures
            takes_cluster_ids = True
    return IndexCapabilities(
        takes_cluster_ids=takes_cluster_ids,
        supports_query_batch=callable(getattr(index, "query_batch", None)),
        supports_n_probe=callable(getattr(index, "set_n_probe", None)),
        supports_scan_stats=callable(getattr(index, "scan_stats", None)),
    )
