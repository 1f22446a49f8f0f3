"""Sharded, multi-tenant vector storage with scatter-gather lookup.

The paper's deployment target — "millions of users" querying a shared
embedding store — does not fit one contiguous index.  This module scales the
storage plane *horizontally* without changing lookup semantics:

* **Hash routing.**  Every write is routed to one of ``n_shards`` backend
  instances by a stable BLAKE2b hash of its tenant-prefixed key.  Each shard
  is any registered ``"index"`` backend (``"flat"``, ``"ivf"``, ...), built
  through the same capability-probing seam :class:`~repro.core.fairds.FairDS`
  uses — the sharded store never special-cases backend names.
* **Scatter-gather lookup.**  ``query_batch`` fans out to every non-empty
  shard, collects each shard's local top-``k``, and merges with one
  vectorised ``argsort`` over the padded ``(B, S·k)`` candidate matrix.
* **Tenant isolation.**  Each tenant owns its *own* list of shard backends.
  Isolation is structural, not filtered: a lookup physically cannot return
  another tenant's key because another tenant's vectors are never scanned.
* **Quotas.**  A per-tenant cap on unique keys; a write that would exceed it
  is rejected atomically with :class:`~repro.utils.errors.QuotaExceededError`
  before any shard is touched.
* **Replication.**  ``replication=R`` writes each key to ``R`` consecutive
  shard slots; the merge deduplicates by key, so reads are unchanged.

Why the merge is exact
----------------------
Squared pairwise distances depend only on the (query row, stored row) pair,
so partitioning the stored rows across shards changes no individual
distance.  Any key in the union's true top-``k`` is necessarily in the
top-``k`` of its own shard (it beats every competitor globally, hence
locally), so the union of per-shard top-``k`` lists always contains the true
top-``k``; sorting those candidates by distance therefore reproduces the
flat index's result exactly — identical keys in identical order — up to
ties between *distinct* keys at equal distance (measure-zero for continuous
data; replicas of the *same* key tie exactly and are removed by the dedup).
The float distances agree to within a few ULPs rather than bit-for-bit: the
distance kernel is a dgemm whose accumulation order depends on the stored
matrix's shape, so partitioning the rows across shards can perturb the last
bit of a distance.  This is property-tested against
:class:`~repro.storage.vector_index.VectorIndex` in ``tests/test_sharded.py``.

Observability: ``repro_shard_size`` (per-slot stored rows), and
``repro_shard_queries_total`` / ``repro_shard_scatter_fanout_total`` /
``repro_shard_merge_latency_seconds`` flow into the process-global metrics
registry (:mod:`repro.observability.metrics`).
"""

from __future__ import annotations

import hashlib
import inspect
import threading
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence

import numpy as np

from repro.observability.metrics import default_registry
from repro.storage.capabilities import IndexCapabilities, probe_index_capabilities
from repro.storage.vector_index import QueryResult
from repro.utils.errors import (
    ConfigurationError,
    QuotaExceededError,
    StorageError,
    ValidationError,
)
from repro.utils.rng import SeedLike, derive_seed

DEFAULT_TENANT = "default"


def shard_of(tenant: str, key: str, n_shards: int) -> int:
    """Stable shard slot for ``key`` under ``tenant`` — BLAKE2b, not ``hash()``.

    Python's builtin ``hash`` is salted per process; routing with it would
    scatter the same key to different shards across restarts and across the
    compute plane's worker processes.  BLAKE2b of the tenant-prefixed key is
    deterministic everywhere.
    """
    digest = hashlib.blake2b(
        f"{tenant}\x00{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


class _TenantShards:
    """One tenant's physical state: its shard backends, key set, quota, lock."""

    __slots__ = ("shards", "keys", "quota", "lock")

    def __init__(self, shards: List[Any], quota: Optional[int]):
        self.shards = shards
        self.keys: set = set()
        self.quota = quota
        self.lock = threading.Lock()


class ShardedVectorStore:
    """Hash-routed shards per tenant, scatter-gather reads, exact merge.

    Parameters
    ----------
    dim:
        Embedding dimensionality (every shard is built with it).
    n_shards:
        Shard backends per tenant.
    replication:
        Copies of each key, written to consecutive slots (``1..n_shards``).
    shard_backend:
        Registry name of the per-shard index backend (any ``"index"`` entry
        except ``"sharded"`` itself).
    shard_params:
        Extra constructor kwargs for every shard, merged last (explicit
        configuration wins over the offered wiring context).
    tenant_quota:
        Default cap on unique keys per tenant (``None`` = unlimited).
    tenant_quotas:
        Per-tenant overrides of ``tenant_quota``.
    """

    def __init__(
        self,
        dim: int,
        n_shards: int = 4,
        replication: int = 1,
        shard_backend: str = "flat",
        shard_params: Optional[Mapping[str, Any]] = None,
        dtype: Any = np.float32,
        tenant_quota: Optional[int] = None,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        seed: SeedLike = 0,
    ):
        if int(dim) < 1:
            raise ConfigurationError("dim must be >= 1")
        if int(n_shards) < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if not 1 <= int(replication) <= int(n_shards):
            raise ConfigurationError(
                f"replication must be in [1, n_shards={int(n_shards)}], got {replication}"
            )
        if shard_backend == "sharded":
            raise ConfigurationError("shard_backend cannot itself be 'sharded'")
        self.dim = int(dim)
        self.n_shards = int(n_shards)
        self.replication = int(replication)
        self.shard_backend = str(shard_backend)
        self._shard_params = dict(shard_params or {})
        self._dtype = dtype
        self._seed = seed
        self._default_quota = self._check_quota(tenant_quota, "tenant_quota")
        self._tenant_quotas = {
            str(t): self._check_quota(q, f"tenant_quotas[{t!r}]", required=True)
            for t, q in dict(tenant_quotas or {}).items()
        }

        from repro.api.registry import component_factory

        self._shard_factory = component_factory("index", self.shard_backend)
        self._n_probe_override: Optional[int] = None

        # Build one throwaway shard now: fail fast on bad shard_params, and
        # probe the backend's surface exactly once for every future shard.
        template = self._new_shard(tenant_index=0, slot=0)
        caps = probe_index_capabilities(template)
        if not callable(getattr(template, "add", None)):
            raise ConfigurationError(
                f"shard backend {self.shard_backend!r} has no add(); "
                "it cannot receive routed writes"
            )
        if not caps.supports_query_batch and not callable(getattr(template, "query", None)):
            raise ConfigurationError(
                f"shard backend {self.shard_backend!r} has neither query_batch nor query"
            )
        self._shard_caps = caps
        self._shard_allow_empty = False
        if caps.supports_query_batch:
            try:
                params = inspect.signature(template.query_batch).parameters
                self._shard_allow_empty = "allow_empty" in params
            except (TypeError, ValueError):
                self._shard_allow_empty = False
        if caps.supports_n_probe:
            # Instance attributes, so probe_index_capabilities(self) and
            # getattr(self, "n_probe", None) see the knob only when the
            # underlying shards actually have one.
            self.set_n_probe = self._set_n_probe_all
            self.n_probe = getattr(template, "n_probe", None)

        self._lock = threading.Lock()  # tenant map + stats + gauge publishing
        self._tenants: Dict[str, _TenantShards] = {}
        self._tenant_seq = 1  # 0 was the template
        self._stats = {
            "queries": 0,
            "batches": 0,
            "shards_scanned": 0,
            "candidates_merged": 0,
        }

        registry = default_registry()
        self._m_size = registry.gauge(
            "repro_shard_size",
            "Rows stored per shard slot across all tenants (replicas included)",
            labelnames=("shard",),
        )
        self._m_queries = registry.counter(
            "repro_shard_queries_total",
            "Query vectors answered by sharded scatter-gather lookup",
        )
        self._m_fanout = registry.counter(
            "repro_shard_scatter_fanout_total",
            "Non-empty shards scanned across all scatter-gather lookups",
        )
        self._m_merge = registry.histogram(
            "repro_shard_merge_latency_seconds",
            "Latency of the vectorised per-shard top-k merge, per batch",
        )

    # -- construction helpers ----------------------------------------------------
    @staticmethod
    def _check_quota(quota: Any, what: str, required: bool = False) -> Optional[int]:
        if quota is None:
            if required:
                raise ConfigurationError(f"{what} must be a positive int, got None")
            return None
        if int(quota) < 1:
            raise ConfigurationError(f"{what} must be >= 1, got {quota}")
        return int(quota)

    def _new_shard(self, tenant_index: int, slot: int) -> Any:
        """One shard backend through the same offered-context seam as FairDS:
        the factory receives the subset of ``{dim, dtype, seed}`` its
        signature declares, with ``shard_params`` merged last."""
        from repro.api.registry import filter_supported_kwargs

        offered = {
            "dim": self.dim,
            "dtype": self._dtype,
            "seed": derive_seed(self._seed, tenant_index, slot),
        }
        kwargs = {**filter_supported_kwargs(self._shard_factory, offered), **self._shard_params}
        shard = self._shard_factory(**kwargs)
        if self._n_probe_override is not None and callable(getattr(shard, "set_n_probe", None)):
            shard.set_n_probe(self._n_probe_override)
        return shard

    @staticmethod
    def _check_tenant(tenant: Any) -> str:
        if not isinstance(tenant, str) or not tenant:
            raise ValidationError(f"tenant must be a non-empty string, got {tenant!r}")
        return tenant

    def _tenant_state(self, tenant: str) -> _TenantShards:
        state = self._tenants.get(tenant)
        if state is not None:
            return state
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                index = self._tenant_seq
                self._tenant_seq += 1
                shards = [self._new_shard(index, slot) for slot in range(self.n_shards)]
                quota = self._tenant_quotas.get(tenant, self._default_quota)
                state = _TenantShards(shards, quota)
                self._tenants[tenant] = state
        return state

    # -- writes ------------------------------------------------------------------
    def add(self, keys: Sequence[str], vectors: np.ndarray, tenant: str = DEFAULT_TENANT) -> None:
        """Route ``keys``/``vectors`` to ``tenant``'s shards (last-write-wins).

        In-batch duplicates collapse to the last occurrence before routing;
        re-adds of stored keys overwrite in place inside their shard (the
        shard backends share the same upsert semantics).  Writes that would
        push the tenant past its quota of *unique* keys raise
        :class:`QuotaExceededError` before any shard is touched.
        """
        tenant = self._check_tenant(tenant)
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        key_list = [str(k) for k in keys]
        if vectors.shape[0] != len(key_list):
            raise ValidationError(
                f"got {len(key_list)} keys for {vectors.shape[0]} vectors"
            )
        if vectors.shape[1] != self.dim:
            raise ValidationError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if not key_list:
            return
        source_rows: Dict[str, int] = {k: i for i, k in enumerate(key_list)}
        if len(source_rows) != len(key_list):  # in-batch LWW dedup
            key_list = list(source_rows)
            vectors = vectors[np.asarray([source_rows[k] for k in key_list])]

        state = self._tenant_state(tenant)
        with state.lock:
            fresh = sum(1 for k in key_list if k not in state.keys)
            if state.quota is not None and len(state.keys) + fresh > state.quota:
                raise QuotaExceededError(
                    f"tenant {tenant!r} quota exceeded: {len(state.keys)} stored "
                    f"+ {fresh} new unique keys > quota {state.quota}"
                )
            by_slot: Dict[int, List[int]] = {}
            for i, key in enumerate(key_list):
                by_slot.setdefault(shard_of(tenant, key, self.n_shards), []).append(i)
            for slot, rows in by_slot.items():
                sub_keys = [key_list[i] for i in rows]
                sub_vectors = vectors[np.asarray(rows)]
                for r in range(self.replication):
                    state.shards[(slot + r) % self.n_shards].add(sub_keys, sub_vectors)
            state.keys.update(key_list)
        self._publish_shard_sizes()

    # -- reads -------------------------------------------------------------------
    def query_batch(
        self,
        vectors: np.ndarray,
        k: int = 1,
        tenant: str = DEFAULT_TENANT,
        allow_empty: bool = False,
    ) -> List[QueryResult]:
        """Scatter to every non-empty shard of ``tenant``, gather, merge.

        Results are identical to a flat :class:`VectorIndex` over the same
        tenant's vectors (see the module docstring for why).  An unknown or
        empty tenant raises :class:`StorageError` like the single-index path
        unless ``allow_empty=True``, which returns ``[]`` per query.
        """
        if k < 1:
            raise ValidationError("k must be >= 1")
        tenant = self._check_tenant(tenant)
        queries = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValidationError(f"expected dim {self.dim}, got {queries.shape[1]}")
        batch = queries.shape[0]
        state = self._tenants.get(tenant)
        if state is None or not state.keys:
            if allow_empty:
                return [[] for _ in range(batch)]
            raise StorageError(f"sharded store is empty for tenant {tenant!r}")

        per_shard: List[List[QueryResult]] = []
        scanned = 0
        for shard in state.shards:
            if len(shard) == 0:
                continue
            scanned += 1
            per_shard.append(self._shard_query(shard, queries, k))
        merge_start = perf_counter()
        out = self._merge(per_shard, batch, k)
        merge_seconds = perf_counter() - merge_start

        self._m_queries.inc(batch)
        self._m_fanout.inc(scanned)
        self._m_merge.observe(merge_seconds)
        with self._lock:
            self._stats["queries"] += batch
            self._stats["batches"] += 1
            self._stats["shards_scanned"] += scanned
            self._stats["candidates_merged"] += sum(
                len(row) for rows in per_shard for row in rows
            )
        return out

    def query(self, vector: np.ndarray, k: int = 1, tenant: str = DEFAULT_TENANT) -> QueryResult:
        """The ``k`` nearest ``(key, distance)`` pairs for one vector."""
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        return self.query_batch(vector, k=k, tenant=tenant)[0]

    def _shard_query(self, shard: Any, queries: np.ndarray, k: int) -> List[QueryResult]:
        if self._shard_caps.supports_query_batch:
            if self._shard_allow_empty:
                # A concurrent upsert on an IVF shard transiently evicts
                # before re-adding; an empty snapshot must contribute zero
                # candidates, not abort the whole scatter.
                return shard.query_batch(queries, k=k, allow_empty=True)
            return shard.query_batch(queries, k=k)
        return [shard.query(q, k=k) for q in queries]

    def _merge(
        self, per_shard: List[List[QueryResult]], batch: int, k: int
    ) -> List[QueryResult]:
        """Vectorised top-``k`` over the union of per-shard candidates.

        Per-shard result lists are padded into one ``(batch, Σ widths)``
        distance matrix (``inf`` past each row's end) with a parallel object
        matrix of keys; a single stable ``argsort`` orders every row's
        candidates at once.  The per-row walk then only slices off the first
        ``k`` finite entries — deduplicating by key (keeping the first, i.e.
        minimal, distance) when ``replication > 1`` stores copies.
        """
        if not per_shard:
            return [[] for _ in range(batch)]
        if len(per_shard) == 1 and self.replication == 1:
            return [row[:k] for row in per_shard[0]]
        blocks_d: List[np.ndarray] = []
        blocks_k: List[np.ndarray] = []
        for rows in per_shard:
            width = max((len(row) for row in rows), default=0)
            if width == 0:
                continue
            block_d = np.full((batch, width), np.inf)
            block_k = np.empty((batch, width), dtype=object)
            for qi, row in enumerate(rows):
                if row:
                    block_d[qi, : len(row)] = [d for _, d in row]
                    block_k[qi, : len(row)] = [key for key, _ in row]
            blocks_d.append(block_d)
            blocks_k.append(block_k)
        if not blocks_d:
            return [[] for _ in range(batch)]
        dists = np.concatenate(blocks_d, axis=1)
        names = np.concatenate(blocks_k, axis=1)
        order = np.argsort(dists, axis=1, kind="stable")
        dedup = self.replication > 1
        out: List[QueryResult] = []
        for qi in range(batch):
            row_d = dists[qi]
            row_k = names[qi]
            merged: QueryResult = []
            seen: set = set()
            for col in order[qi]:
                distance = row_d[col]
                if distance == np.inf:
                    break
                key = row_k[col]
                if dedup:
                    if key in seen:
                        continue
                    seen.add(key)
                merged.append((key, float(distance)))
                if len(merged) == k:
                    break
            out.append(merged)
        return out

    # -- knobs / introspection ---------------------------------------------------
    def _set_n_probe_all(self, n_probe: int) -> int:
        """Apply the live ``n_probe`` knob to every shard of every tenant
        (and remember it for shards of tenants created later).  Installed as
        ``self.set_n_probe`` only when the shard backend supports it."""
        value = int(n_probe)
        with self._lock:
            self._n_probe_override = value
            tenants = list(self._tenants.values())
        for state in tenants:
            for shard in state.shards:
                shard.set_n_probe(value)
        self.n_probe = value
        return value

    def __len__(self) -> int:
        return sum(len(state.keys) for state in self._tenants.values())

    def __contains__(self, key: object) -> bool:
        return self.contains(str(key))

    def contains(self, key: str, tenant: str = DEFAULT_TENANT) -> bool:
        state = self._tenants.get(tenant)
        return state is not None and str(key) in state.keys

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def tenant_size(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        return len(state.keys) if state is not None else 0

    def tenant_keys(self, tenant: str) -> FrozenSet[str]:
        state = self._tenants.get(tenant)
        return frozenset(state.keys) if state is not None else frozenset()

    def tenant_quota(self, tenant: str) -> Optional[int]:
        state = self._tenants.get(tenant)
        if state is not None:
            return state.quota
        return self._tenant_quotas.get(tenant, self._default_quota)

    def set_tenant_quota(self, tenant: str, quota: Optional[int]) -> None:
        """Change a tenant's unique-key cap live.  Lowering it below the
        current size only blocks *future* writes; stored keys stay."""
        tenant = self._check_tenant(tenant)
        quota = self._check_quota(quota, "quota")
        with self._lock:
            if quota is None:
                self._tenant_quotas.pop(tenant, None)
            else:
                self._tenant_quotas[tenant] = quota
        state = self._tenants.get(tenant)
        if state is not None:
            with state.lock:
                state.quota = quota

    def shard_sizes(self, tenant: Optional[str] = None) -> List[int]:
        """Stored rows per shard slot (replicas included) — one tenant's, or
        summed across all tenants when ``tenant`` is None."""
        sizes = [0] * self.n_shards
        if tenant is not None:
            state = self._tenants.get(tenant)
            if state is not None:
                for slot, shard in enumerate(state.shards):
                    sizes[slot] = len(shard)
            return sizes
        for state in self._tenants.values():
            for slot, shard in enumerate(state.shards):
                sizes[slot] += len(shard)
        return sizes

    def _publish_shard_sizes(self) -> None:
        for slot, size in enumerate(self.shard_sizes()):
            self._m_size.labels(shard=str(slot)).set(size)

    def capabilities(self) -> IndexCapabilities:
        """The probed surface of the shard backend (shared by every shard)."""
        return self._shard_caps

    def scan_stats(self) -> Dict[str, int]:
        """Cumulative scatter-gather counters plus topology, all plain ints
        (snapshot-serialisable through ``FairDS.index_stats``)."""
        with self._lock:
            stats = dict(self._stats)
        stats.update(
            n_shards=self.n_shards,
            replication=self.replication,
            tenants=len(self._tenants),
            unique_keys=len(self),
            stored_rows=sum(self.shard_sizes()),
        )
        return stats
