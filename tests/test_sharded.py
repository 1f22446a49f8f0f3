"""Sharded multi-tenant vector storage: scatter-gather exactness, tenant
isolation, quotas, fair round-robin serving — plus the single-store
edge-case bugs the sharded path exposed (empty-index lookups, duplicate
keys, keys-tuple rebuilds).
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Deployment, ShardingSpec, SystemSpec, preset
from repro.api.registry import create_component
from repro.api.spec import IndexSpec, ServingSpec
from repro.observability.metrics import default_registry
from repro.serving.batcher import BatchingPolicy, MicroBatcher, Request
from repro.serving.runtime import ServingRuntime
from repro.storage import (
    DEFAULT_TENANT,
    IVFVectorIndex,
    ShardedVectorStore,
    VectorIndex,
    probe_index_capabilities,
    shard_of,
)
from repro.utils.errors import (
    ConfigurationError,
    QuotaExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    StorageError,
    ValidationError,
)


def _make_data(seed, n, dim):
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n)]
    return keys, rng.normal(size=(n, dim))


def assert_results_match(got, want):
    """Same keys in the same order; distances equal to within BLAS rounding.

    The distance kernel is a dgemm whose accumulation order varies with the
    stored-matrix shape, so the same (query, key) pair can differ by a few
    ULPs between a shard's small matrix and the flat index's big one — that
    is the only divergence the scatter-gather merge is allowed."""
    assert [[key for key, _ in row] for row in got] == [
        [key for key, _ in row] for row in want
    ]
    for got_row, want_row in zip(got, want):
        np.testing.assert_allclose(
            [d for _, d in got_row], [d for _, d in want_row],
            rtol=1e-9, atol=1e-12,
        )


# ---------------------------------------------------------------------------------
# Scatter-gather exactness against a flat index
# ---------------------------------------------------------------------------------
class TestScatterGatherExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 120),
        n_shards=st.integers(1, 9),
        k=st.integers(1, 40),
        dim=st.integers(2, 12),
    )
    def test_sharded_matches_flat(self, seed, n, n_shards, k, dim):
        """Random shard counts, ragged shard sizes, k larger than the
        smallest (or every) shard, empty shards when n < n_shards: the
        merged result equals a flat index over the union — identical keys
        and ordering, distances to within dgemm rounding.

        Shapes and seeds come from hypothesis; the vectors themselves from a
        numpy generator, so distances are continuous and tie-free.
        """
        keys, vectors = _make_data(seed, n, dim)
        queries = np.random.default_rng(seed + 1).normal(size=(7, dim))
        flat = VectorIndex(dim=dim)
        flat.add(keys, vectors)
        sharded = ShardedVectorStore(dim=dim, n_shards=n_shards)
        sharded.add(keys, vectors)
        assert_results_match(sharded.query_batch(queries, k=k), flat.query_batch(queries, k=k))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_shards=st.integers(2, 6),
        replication=st.integers(2, 6),
    )
    def test_replication_changes_nothing_for_reads(self, seed, n_shards, replication):
        replication = min(replication, n_shards)
        keys, vectors = _make_data(seed, 60, 6)
        queries = np.random.default_rng(seed + 1).normal(size=(5, 6))
        flat = VectorIndex(dim=6)
        flat.add(keys, vectors)
        sharded = ShardedVectorStore(dim=6, n_shards=n_shards, replication=replication)
        sharded.add(keys, vectors)
        assert_results_match(sharded.query_batch(queries, k=13), flat.query_batch(queries, k=13))
        # Replicas really are stored: total rows = unique keys x replication.
        assert sum(sharded.shard_sizes()) == 60 * replication
        assert len(sharded) == 60

    def test_k_exceeding_total_size_returns_everything_once(self):
        keys, vectors = _make_data(3, 5, 4)
        sharded = ShardedVectorStore(dim=4, n_shards=8, replication=3)
        sharded.add(keys, vectors)
        rows = sharded.query_batch(np.zeros((2, 4)), k=50)
        for row in rows:
            assert sorted(key for key, _ in row) == sorted(keys)
            assert [d for _, d in row] == sorted(d for _, d in row)

    def test_ivf_shards_match_flat_with_wide_probe(self):
        keys, vectors = _make_data(7, 200, 8)
        queries = np.random.default_rng(8).normal(size=(6, 8))
        flat = VectorIndex(dim=8)
        flat.add(keys, vectors)
        sharded = ShardedVectorStore(
            dim=8, n_shards=3, shard_backend="ivf",
            shard_params={"train_threshold": 32, "n_partitions": 4},
        )
        sharded.add(keys, vectors)
        sharded.set_n_probe(4)  # probe everything -> exact
        assert_results_match(sharded.query_batch(queries, k=5), flat.query_batch(queries, k=5))

    def test_routing_is_deterministic_and_in_range(self):
        slots = [shard_of("t", f"k{i}", 7) for i in range(300)]
        assert slots == [shard_of("t", f"k{i}", 7) for i in range(300)]
        assert set(slots) <= set(range(7))
        assert len(set(slots)) > 1  # actually spreads


# ---------------------------------------------------------------------------------
# Tenant isolation and quotas
# ---------------------------------------------------------------------------------
class TestTenancy:
    def test_cross_tenant_keys_never_leak(self):
        keys_a, vecs = _make_data(0, 40, 5)
        keys_b = [f"b{i}" for i in range(40)]
        sharded = ShardedVectorStore(dim=5, n_shards=4)
        sharded.add(keys_a, vecs, tenant="alice")
        sharded.add(keys_b, vecs, tenant="bob")  # same vectors, different keys
        queries = np.random.default_rng(1).normal(size=(8, 5))
        for row in sharded.query_batch(queries, k=40, tenant="alice"):
            assert {key for key, _ in row} <= set(keys_a)
        for row in sharded.query_batch(queries, k=40, tenant="bob"):
            assert {key for key, _ in row} <= set(keys_b)

    def test_each_tenant_sees_a_private_flat_equivalent(self):
        keys, vecs = _make_data(2, 30, 4)
        queries = np.random.default_rng(3).normal(size=(4, 4))
        sharded = ShardedVectorStore(dim=4, n_shards=3)
        sharded.add(keys, vecs, tenant="a")
        sharded.add(keys[:10], vecs[:10] + 100.0, tenant="b")  # same keys, other data
        flat_b = VectorIndex(dim=4)
        flat_b.add(keys[:10], vecs[:10] + 100.0)
        assert_results_match(
            sharded.query_batch(queries, k=6, tenant="b"), flat_b.query_batch(queries, k=6)
        )
        assert sharded.tenant_size("a") == 30 and sharded.tenant_size("b") == 10

    def test_unknown_tenant_raises_unless_allow_empty(self):
        sharded = ShardedVectorStore(dim=3)
        sharded.add(["x"], [[1.0, 2.0, 3.0]])
        with pytest.raises(StorageError, match="empty for tenant"):
            sharded.query_batch(np.zeros((2, 3)), tenant="ghost")
        assert sharded.query_batch(np.zeros((2, 3)), tenant="ghost", allow_empty=True) == [[], []]
        with pytest.raises(ValidationError, match="tenant"):
            sharded.add(["y"], [[0.0] * 3], tenant="")

    def test_quota_rejection_is_atomic(self):
        sharded = ShardedVectorStore(dim=3, n_shards=4, tenant_quota=5)
        keys, vecs = _make_data(4, 8, 3)
        with pytest.raises(QuotaExceededError, match="quota"):
            sharded.add(keys, vecs, tenant="t")
        # Nothing landed in any shard: the write was rejected before routing.
        assert sharded.tenant_size("t") == 0
        assert sum(sharded.shard_sizes("t")) == 0
        sharded.add(keys[:5], vecs[:5], tenant="t")
        assert sharded.tenant_size("t") == 5
        # Overwrites of existing keys never count against the quota.
        sharded.add(keys[:5], vecs[:5] * 2.0, tenant="t")
        assert sharded.tenant_size("t") == 5

    def test_per_tenant_quota_overrides_and_live_update(self):
        sharded = ShardedVectorStore(
            dim=2, tenant_quota=2, tenant_quotas={"vip": 100}
        )
        keys, vecs = _make_data(5, 10, 2)
        sharded.add(keys, vecs, tenant="vip")
        with pytest.raises(QuotaExceededError):
            sharded.add(keys[:3], vecs[:3], tenant="pleb")
        assert sharded.tenant_quota("pleb") == 2 and sharded.tenant_quota("vip") == 100
        sharded.set_tenant_quota("pleb", 3)
        sharded.add(keys[:3], vecs[:3], tenant="pleb")
        assert sharded.tenant_size("pleb") == 3

    def test_concurrent_ingest_while_lookup_keeps_isolation(self):
        """Writers hammer two tenants concurrently while readers sweep both:
        no reader ever sees another tenant's key, a torn batch, or an
        unordered result row."""
        dim, per_batch, batches = 6, 16, 12
        sharded = ShardedVectorStore(dim=dim, n_shards=4)
        rng = np.random.default_rng(11)
        sharded.add(["a-seed"], rng.normal(size=(1, dim)), tenant="a")
        sharded.add(["b-seed"], rng.normal(size=(1, dim)), tenant="b")
        queries = rng.normal(size=(4, dim))
        errors = []
        stop = threading.Event()

        def writer(tenant):
            try:
                wrng = np.random.default_rng(hash(tenant) % 2**32)
                for b in range(batches):
                    keys = [f"{tenant}-{b}-{i}" for i in range(per_batch)]
                    sharded.add(keys, wrng.normal(size=(per_batch, dim)), tenant=tenant)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader(tenant, prefixes):
            try:
                while not stop.is_set():
                    for row in sharded.query_batch(queries, k=20, tenant=tenant):
                        for key, _ in row:
                            assert key.startswith(prefixes), key
                        distances = [d for _, d in row]
                        assert distances == sorted(distances)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(t,)) for t in ("a", "b")]
        readers = [
            threading.Thread(target=reader, args=("a", ("a-",))),
            threading.Thread(target=reader, args=("b", ("b-",))),
        ]
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert sharded.tenant_size("a") == sharded.tenant_size("b") == per_batch * batches + 1


# ---------------------------------------------------------------------------------
# Store surface: capabilities, stats, metrics, validation
# ---------------------------------------------------------------------------------
class TestStoreSurface:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            ShardedVectorStore(dim=4, n_shards=0)
        with pytest.raises(ConfigurationError, match="replication"):
            ShardedVectorStore(dim=4, n_shards=2, replication=3)
        with pytest.raises(ConfigurationError, match="sharded"):
            ShardedVectorStore(dim=4, shard_backend="sharded")
        with pytest.raises(ConfigurationError):
            ShardedVectorStore(dim=4, shard_backend="no-such-backend")
        with pytest.raises(ConfigurationError, match="tenant_quota"):
            ShardedVectorStore(dim=4, tenant_quota=0)

    def test_registry_construction_and_probe(self):
        store = create_component("index", "sharded", dim=4, n_shards=2)
        caps = probe_index_capabilities(store)
        assert caps.supports_query_batch and caps.supports_scan_stats
        assert not caps.takes_cluster_ids
        assert not caps.supports_n_probe  # flat shards: no probe knob
        ivf_store = create_component(
            "index", "sharded", dim=4, shard_backend="ivf", shard_params={"train_threshold": 16}
        )
        assert probe_index_capabilities(ivf_store).supports_n_probe

    def test_scan_stats_and_metrics(self):
        registry = default_registry()
        sharded = ShardedVectorStore(dim=3, n_shards=2)
        keys, vecs = _make_data(6, 12, 3)
        sharded.add(keys, vecs)
        before = registry.get("repro_shard_queries_total").value
        sharded.query_batch(np.zeros((5, 3)), k=2)
        stats = sharded.scan_stats()
        assert stats["queries"] >= 5 and stats["batches"] >= 1
        assert stats["n_shards"] == 2 and stats["unique_keys"] == 12
        assert registry.get("repro_shard_queries_total").value == before + 5
        sizes = registry.get("repro_shard_size").collect()
        assert sum(child.value for _, child in sizes) >= 12
        assert registry.get("repro_shard_merge_latency_seconds") is not None
        assert registry.get("repro_shard_scatter_fanout_total") is not None

    def test_lww_upsert_through_shards(self):
        sharded = ShardedVectorStore(dim=2, n_shards=3)
        sharded.add(["a", "b", "a"], [[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        assert len(sharded) == 2
        assert sharded.query([9.0, 9.0], k=1)[0][0] == "a"
        sharded.add(["a"], [[-7.0, -7.0]])
        assert len(sharded) == 2
        assert sharded.query([-7.0, -7.0], k=1)[0][0] == "a"
        # No duplicate keys in results even at full k.
        row = sharded.query([0.0, 0.0], k=10)
        assert len(row) == 2 and len({key for key, _ in row}) == 2


# ---------------------------------------------------------------------------------
# Satellite bugfixes on the single-store paths
# ---------------------------------------------------------------------------------
class TestSingleStoreBugfixes:
    def test_empty_flat_index_raises_on_direct_path(self):
        index = VectorIndex(dim=3)
        with pytest.raises(StorageError, match="empty"):
            index.query_batch(np.zeros((1, 3)))

    def test_empty_flat_index_allow_empty_returns_empty_rows(self):
        index = VectorIndex(dim=3)
        assert index.query_batch(np.zeros((4, 3)), k=2, allow_empty=True) == [[]] * 4

    def test_empty_ivf_index_allow_empty_both_modes(self):
        untrained = IVFVectorIndex(dim=3)
        with pytest.raises(StorageError, match="empty"):
            untrained.query_batch(np.zeros((1, 3)))
        assert untrained.query_batch(np.zeros((2, 3)), allow_empty=True) == [[], []]

    def test_flat_add_duplicate_keys_last_write_wins(self):
        index = VectorIndex(dim=2)
        index.add(["k", "k"], [[1.0, 1.0], [4.0, 4.0]])
        assert len(index) == 1
        assert index.query([4.0, 4.0], k=1) == [("k", 0.0)]
        index.add(["k"], [[8.0, 8.0]])
        assert len(index) == 1
        assert index.query([8.0, 8.0], k=1) == [("k", 0.0)]
        # keys never repeat in results regardless of k.
        assert [key for key, _ in index.query([0.0, 0.0], k=5)] == ["k"]

    def test_ivf_add_duplicate_keys_last_write_wins_across_partitions(self):
        rng = np.random.default_rng(9)
        index = IVFVectorIndex(dim=4, n_partitions=4, train_threshold=32, n_probe=4)
        keys = [f"k{i}" for i in range(64)]
        vectors = rng.normal(size=(64, 4))
        index.add(keys, vectors)
        assert len(index) == 64
        # Move k0 far away: it must re-route to another partition, and the
        # old copy must be gone.
        index.add(["k0"], [[50.0] * 4])
        assert len(index) == 64
        row = index.query_batch(np.asarray([[50.0] * 4]), k=1)[0]
        assert row[0][0] == "k0"
        all_keys = [k for k, _ in index.query_batch(np.zeros((1, 4)), k=64)[0]]
        assert sorted(all_keys) == sorted(keys)

    def test_keys_tuple_is_cached_not_rebuilt(self):
        index = VectorIndex(dim=2)
        index.add(["a", "b"], [[0.0, 0.0], [1.0, 1.0]])
        first = index.keys
        assert index.keys is first  # no per-access copy
        index.add(["c"], [[2.0, 2.0]])
        second = index.keys
        assert second is not first and second == ("a", "b", "c")
        assert index.keys is second


# ---------------------------------------------------------------------------------
# Fair round-robin tenancy in the serving plane
# ---------------------------------------------------------------------------------
class TestFairTenancy:
    def _submit(self, batcher, tenant, payload):
        batcher.submit(Request(op="op", payload=payload, tenant=tenant))

    def test_round_robin_batch_composition(self):
        policy = BatchingPolicy(max_batch_size=6, max_wait_ms=0.0, fair_tenancy=True)
        batcher = MicroBatcher(policy)
        for i in range(4):
            self._submit(batcher, "a", f"a{i}")
        for i in range(2):
            self._submit(batcher, "b", f"b{i}")
        batch = batcher.take()
        # One per tenant in rotation until b drains, then a fills the rest.
        assert [r.payload for r in batch] == ["a0", "b0", "a1", "b1", "a2", "a3"]

    def test_fair_share_admission_cap(self):
        policy = BatchingPolicy(
            max_batch_size=4, max_wait_ms=50.0, max_queue_depth=8, fair_tenancy=True
        )
        batcher = MicroBatcher(policy)
        # A lone tenant is work-conserving: it may fill the whole queue.
        for i in range(8):
            self._submit(batcher, "hog", i)
        with pytest.raises(ServiceOverloadedError, match="fair share"):
            self._submit(batcher, "hog", 99)
        assert len(batcher.take()) == 4  # hog=4 still queued
        # With two active tenants the hog is capped at half the queue.
        self._submit(batcher, "small", 0)
        with pytest.raises(ServiceOverloadedError, match="fair share"):
            self._submit(batcher, "hog", 99)
        # The small tenant still has room up to its own share.
        for i in range(1, 4):
            self._submit(batcher, "small", i)
        assert batcher.depth() == 8

    def test_untenanted_requests_share_one_class(self):
        policy = BatchingPolicy(max_batch_size=4, max_wait_ms=0.0, fair_tenancy=True)
        batcher = MicroBatcher(policy)
        self._submit(batcher, None, "x0")
        self._submit(batcher, "t", "t0")
        self._submit(batcher, None, "x1")
        batch = batcher.take()
        assert sorted(r.payload for r in batch) == ["t0", "x0", "x1"]

    def test_take_and_close_work_in_fair_mode(self):
        policy = BatchingPolicy(max_batch_size=8, max_wait_ms=10_000.0, fair_tenancy=True)
        batcher = MicroBatcher(policy)
        assert batcher.take() == []
        self._submit(batcher, "a", 1)
        assert [r.payload for r in batcher.take()] == [1]  # partial, at once
        self._submit(batcher, "b", 2)
        batcher.close()
        with pytest.raises(ServiceClosedError):
            self._submit(batcher, "a", 3)
        assert [r.payload for r in batcher.take()] == [2]  # queued before close
        assert batcher.take() == [] and batcher.depth() == 0

    def test_default_fifo_path_unchanged(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=3, max_wait_ms=0.0))
        for i in range(5):
            batcher.submit(Request(op="op", payload=i, tenant="ignored"))
        assert [r.payload for r in batcher.take()] == [0, 1, 2]
        assert batcher.depth() == 2

    def test_runtime_threads_tenant_through(self):
        policy = BatchingPolicy(max_batch_size=4, max_wait_ms=1.0, fair_tenancy=True)
        runtime = ServingRuntime({"echo": lambda batch: batch}, policy=policy)
        with runtime:
            futures = [
                runtime.submit("echo", i, tenant="a" if i % 2 else "b") for i in range(10)
            ]
            assert [f.result(timeout=5) for f in futures] == list(range(10))
            assert runtime.call("echo", "solo", tenant="c", timeout=5) == "solo"


# ---------------------------------------------------------------------------------
# Spec plane and deployment wiring
# ---------------------------------------------------------------------------------
class TestShardingSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardingSpec(shards=0)
        with pytest.raises(ConfigurationError, match="replication"):
            ShardingSpec(shards=2, replication=5)
        with pytest.raises(ConfigurationError, match="sharded"):
            ShardingSpec(shard_backend="sharded")
        with pytest.raises(ConfigurationError, match="default_quota"):
            ShardingSpec(default_quota=-1)
        with pytest.raises(ConfigurationError, match="tenant_quotas"):
            ShardingSpec(tenant_quotas={"t": 0})
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            ShardingSpec(shard_params={"no_such_arg": 1})

    def test_round_trip_and_digest_stability(self):
        spec = ShardingSpec(shards=6, replication=2, default_quota=10,
                            tenant_quotas={"a": 5})
        assert ShardingSpec.from_dict(spec.to_dict()) == spec
        system = SystemSpec(index=IndexSpec("sharded"), sharding=spec)
        assert SystemSpec.from_dict(system.to_dict()) == system
        assert SystemSpec.from_json(system.to_json()).digest() == system.digest()

    def test_sharding_requires_sharded_backend(self):
        with pytest.raises(ConfigurationError, match="requires"):
            SystemSpec(sharding=ShardingSpec())
        with pytest.raises(ConfigurationError, match="duplicate"):
            SystemSpec(
                index=IndexSpec("sharded", params={"n_shards": 2}),
                sharding=ShardingSpec(),
            )

    def test_sharded_preset_shape(self):
        spec = preset("sharded")
        assert spec.index.backend == "sharded"
        assert spec.sharding is not None and spec.sharding.shards == 4
        assert spec.serving is not None
        assert spec.serving.batching["fair_tenancy"] is True

    def test_deployment_runs_sharded_preset_end_to_end(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(40, 6, 6)).astype(np.float32)
        labels = rng.normal(size=(40, 3)).astype(np.float32)
        dep = Deployment.from_preset("sharded")
        try:
            dep.fit(images, labels)
            stats = dep.fairds.index_stats()
            assert stats["n_shards"] == 4 and stats["unique_keys"] == 40
            with dep.serve() as runtime:
                runtime.call("nearest_labeled", images[0], tenant="userA", timeout=10)
                snap = runtime.telemetry_snapshot()
                assert snap["index_scan"]["n_shards"] == 4
            snap = dep.snapshot()
            assert snap["sharding"]["spec"]["shards"] == 4
            assert snap["sharding"]["stats"]["unique_keys"] == 40
        finally:
            dep.close()

    def test_deployment_merges_sharding_into_index_params(self):
        spec = SystemSpec(
            index=IndexSpec("sharded"),
            sharding=ShardingSpec(shards=3, replication=2, default_quota=500),
            serving=ServingSpec(batching={"fair_tenancy": True}),
        )
        dep = Deployment.from_spec(spec)
        try:
            assert dep.fairds.index_params["n_shards"] == 3
            assert dep.fairds.index_params["replication"] == 2
            assert dep.fairds.index_params["tenant_quota"] == 500
        finally:
            dep.close()
