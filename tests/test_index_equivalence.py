"""Equivalences the nearest-neighbour indexes rely on, as property tests.

The partitioned scan (``partitioned_topk``: probe sets, scatter, merge as
array operations over ``VectorIndex.topk``) replaced a list-based
implementation — per-partition ``(key, float)`` lists, dict-of-dict scatter,
a Python sort per query — that lives on here as the **reference**: the new
routine must return the same keys, the same float distances and the same tie
order at every ``(k, n_probe)``, and count the same scan effort.  The
reference scans a partition with its own ``topk``, so that comparison is bit
for bit on the merge; ``topk`` (which ranks on ``|x|² − 2q·x`` and adds
``|q|²`` after selecting) is held to
``reference_topk`` (the clipped ``(|q|² + |x|²) − 2q·x``) bit for bit on
grid-valued stores, where both are exact, and to the same keys with distances
within 1e-9 on continuous ones.  Around that: ``ivf`` at full probe ≡ ``flat``
≡ ``clustered`` at full probe; ``topk`` with and without supplied query norms;
an uncached mirror ≡ the in-memory index.

The partitioned *write* (``routed_upsert`` appending the rows it has shown to
be new through ``VectorIndex._append``) replaced a per-key path — every
partition's rows through the public ``add``, which looked each key up again —
kept here as ``reference_flat_add`` / ``reference_routed_upsert``: the same
adds through either leave the same keys and vectors in the same rows of the
same partitions, and the same answers.

Stores are hypothesis-generated with the cases the merge has to get right:
duplicate vectors (grid-valued data, so distances tie exactly), upserts that
move a key between partitions, partitions left empty or smaller than ``k``,
``k`` beyond the store size, and batches of 1 to 40 queries.
"""

import tracemalloc
from contextlib import contextmanager
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.storage import (
    ClusteredVectorIndex,
    IVFVectorIndex,
    VectorIndex,
)
from repro.storage.vector_index import QueryResult, grown
from repro.utils.stats import pairwise_squared_distances

SETTINGS = settings(max_examples=60, deadline=None)


# -- the reference: the list-based scan this PR removed from src/ -------------------------
def reference_topk(index: VectorIndex, queries: np.ndarray, k: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``VectorIndex._topk`` as it was: norms re-derived per call, rows and
    distances (square-rooted) through ``take_along_axis``."""
    matrix = np.asarray(index.vectors, dtype=np.float64)
    n = matrix.shape[0]
    d2 = pairwise_squared_distances(queries, matrix)
    k = min(k, n)
    if k == 1:
        idx = np.argmin(d2, axis=1)[:, None]
        return idx, np.sqrt(np.take_along_axis(d2, idx, axis=1))
    if k < n:
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    else:
        idx = np.broadcast_to(np.arange(n), d2.shape)
    selected = np.take_along_axis(d2, idx, axis=1)
    order = np.argsort(selected, axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    return idx, np.sqrt(np.take_along_axis(selected, order, axis=1))


def reference_query_batch(index: VectorIndex, queries: np.ndarray, k: int) -> List[QueryResult]:
    indices, distances = reference_topk(index, queries, k)
    keys = index.keys
    return [
        [(keys[int(j)], float(d)) for j, d in zip(idx_row, dist_row)]
        for idx_row, dist_row in zip(indices, distances)
    ]


def on_grid(batches, queries: np.ndarray) -> bool:
    """Whether every stored and query value is an integer: the scan's
    arithmetic is then exact, whatever order it adds ``|q|²``, ``|x|²`` and
    ``−2q·x`` in."""
    return all(np.array_equal(a, np.round(a)) for a in [queries, *(v for _, v in batches)])


def assert_same_answers(got: List[QueryResult], want: List[QueryResult], exact: bool) -> None:
    """``got == want`` bit for bit where ``exact``; otherwise the same keys in
    the same order, and distances within ``rtol = atol = 1e-9`` (the reference
    ranks on the clipped ``(|q|² + |x|²) − 2q·x``, the scan on ``|x|² − 2q·x``)."""
    if exact:
        assert got == want
        return
    assert [[key for key, _ in hits] for hits in got] == [[key for key, _ in hits] for hits in want]
    np.testing.assert_allclose([d for hits in got for _, d in hits],
                               [d for hits in want for _, d in hits], rtol=1e-9, atol=1e-9)


def reference_probe_sets(sizes: List[int], probe_order: np.ndarray, k: int, n_probe: int
                         ) -> List[List[int]]:
    """Partitions each query visits: nearest non-empty partitions until both
    ``n_probe`` have been probed and ``k`` candidates exist."""
    probe_lists: List[List[int]] = []
    for row in probe_order:
        chosen: List[int] = []
        probed = n_candidates = 0
        for pid in row:
            size = sizes[int(pid)]
            if not size:
                continue
            chosen.append(int(pid))
            probed += 1
            n_candidates += min(k, size)
            if probed >= n_probe and n_candidates >= k:
                break
        probe_lists.append(chosen)
    return probe_lists


def reference_partitioned_query(
    queries: np.ndarray, centers: np.ndarray, partitions: List[VectorIndex],
    n_probe: int, k: int,
) -> Tuple[List[QueryResult], Dict[str, int]]:
    """The probe / scatter / merge both partitioned indexes carried: probe
    lists, a dict of query rows per partition, one scan per partition, a
    dict-of-dicts of hits, and a Python sort of each query's candidates.  A
    partition is scanned by its own ``topk``, so what is compared bit for bit
    is the probe, scatter and merge; ``topk`` itself is held to
    ``reference_topk``."""
    center_d2 = pairwise_squared_distances(queries, centers)
    probe_lists = reference_probe_sets(
        [len(p) for p in partitions], np.argsort(center_d2, axis=1, kind="stable"), k, n_probe
    )
    by_partition: Dict[int, List[int]] = {}
    for qi, chosen in enumerate(probe_lists):
        for pid in chosen:
            by_partition.setdefault(pid, []).append(qi)
    scanned = 0
    partition_hits: Dict[int, Dict[int, QueryResult]] = {}
    for pid, q_indices in by_partition.items():
        part = partitions[pid]
        rows, d2 = part.topk(queries[q_indices], k)
        results = [[(part.keys[int(j)], float(np.sqrt(d))) for j, d in zip(q_rows, q_d2)]
                   for q_rows, q_d2 in zip(rows, d2)]
        scanned += len(part) * len(q_indices)
        partition_hits[pid] = dict(zip(q_indices, results))
    out: List[QueryResult] = []
    for qi, chosen in enumerate(probe_lists):
        candidates: QueryResult = []
        for pid in chosen:
            candidates.extend(partition_hits[pid][qi])
        candidates.sort(key=lambda kv: kv[1])
        out.append(candidates[:k])
    counts = {"partitions_probed": sum(len(chosen) for chosen in probe_lists),
              "candidates_scanned": scanned}
    return out, counts


# -- the reference: the per-key write path this PR removed from src/ ------------------------
def reference_flat_add(index: VectorIndex, keys, vectors) -> None:
    """``VectorIndex.add`` as it was: one pass over the keys that sorts them
    into overwrites and appends, and a key -> row entry set per new key."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=index.dtype))
    assert vectors.shape == (len(keys), index.dim)
    source_rows = {str(k): i for i, k in enumerate(keys)}
    overwrite_rows, overwrite_src, fresh_keys, fresh_src = [], [], [], []
    for key, src in source_rows.items():
        row = index._key_rows.get(key)
        if row is None:
            fresh_keys.append(key)
            fresh_src.append(src)
        else:
            overwrite_rows.append(row)
            overwrite_src.append(src)
    if overwrite_rows:
        index._data[np.asarray(overwrite_rows)] = vectors[np.asarray(overwrite_src)]
    if fresh_keys:
        n = len(fresh_keys)
        index._data = grown(index._data, index._size, index._size + n)
        index._data[index._size : index._size + n] = vectors[fresh_src]
        index._keys.extend(fresh_keys)
        for offset, key in enumerate(fresh_keys):
            index._key_rows[key] = index._size + offset
        index._keys_cache = None
        index._size += n
    index._writes += 1


def reference_routed_upsert(key_partition, partitions, keys, assignments, vectors) -> None:
    """``routed_upsert`` as it was: stale keys looked up one by one, a gather
    per partition, and each partition's rows through ``add``."""
    source_rows = {str(key): i for i, key in enumerate(keys)}
    if not source_rows:
        return
    keys = list(source_rows)
    kept = np.fromiter(source_rows.values(), dtype=np.int64, count=len(keys))
    stale: Dict[int, List[str]] = {}
    for key in keys:
        if key in key_partition:
            stale.setdefault(key_partition[key], []).append(key)
    for pid, gone in stale.items():
        partitions[pid].discard(gone)
    routes = assignments[kept]
    order = np.argsort(routes, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(routes[order])) + 1):
        pid, rows = int(routes[members[0]]), kept[members]
        member_keys = [keys[j] for j in members]
        reference_flat_add(partitions[pid], member_keys, vectors[rows])
        key_partition.update(dict.fromkeys(member_keys, pid))


@contextmanager
def per_key_writes():
    """Every index write inside goes through the reference path, none
    through the append that replaced it."""
    with mock.patch("repro.storage.vector_index.routed_upsert", reference_routed_upsert), \
            mock.patch("repro.storage.ivf_index.routed_upsert", reference_routed_upsert), \
            mock.patch.object(VectorIndex, "add", reference_flat_add), \
            mock.patch.object(VectorIndex, "_append", side_effect=AssertionError("appended")):
        yield


def contents(index) -> list:
    """What an index holds, row by row: per flat store (a partition, an
    inverted list, ...) its keys and its vectors; then the key -> partition
    maps met on the way."""
    if isinstance(index, VectorIndex):
        return [(index.keys, index.vectors.tolist())]
    if isinstance(index, ClusteredVectorIndex):
        return [contents(part) for part in index._partitions] + [dict(index._key_partition)]
    assert isinstance(index, IVFVectorIndex)
    if index._state is None:
        return contents(index._flat)
    return [
        (part.keys, part.vectors.tolist()) for part in index._state.partitions
    ] + [dict(index._key_partition), index._state.centers.tolist()]


# -- generated stores ------------------------------------------------------------------
@st.composite
def stores(draw):
    """Add batches over a small key pool (in-batch repeats and upserts), the
    final key -> vector map, a query batch, and the partition count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    n_parts = draw(st.integers(1, 7))
    pool = draw(st.integers(1, 60))
    grid = draw(st.booleans())

    def points(n):
        if grid:  # few distinct values: duplicate vectors, exactly tied distances
            return rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        return rng.normal(scale=3.0, size=(n, dim))

    batches = []
    final: Dict[str, np.ndarray] = {}
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        keys = [f"k{i}" for i in rng.integers(0, pool, size=n)]
        vectors = points(n)
        batches.append((keys, vectors))
        final.update(zip(keys, vectors))
    queries = points(draw(st.integers(1, 40)))
    return batches, final, queries, n_parts, rng


# Every builder queries between adds, so each add meets a published mirror
# (and its norms) that it has to invalidate.
def build_flat(batches, dtype=np.float32, **kwargs) -> VectorIndex:
    flat = VectorIndex(batches[0][1].shape[1], dtype=dtype, **kwargs)
    for keys, vectors in batches:
        flat.add(keys, vectors)
        flat.query_batch(vectors[:1], k=2)
    return flat


def build_ivf(batches, n_parts, **kwargs) -> IVFVectorIndex:
    """Trained as early as the store allows, so later batches route, upsert
    and move keys between inverted lists."""
    ivf = IVFVectorIndex(batches[0][1].shape[1], n_partitions=n_parts, train_threshold=4,
                         seed=1, **kwargs)
    for keys, vectors in batches:
        ivf.add(keys, vectors)
        ivf.query_batch(vectors[:1], k=2)
    ivf.train()
    return ivf


def build_clustered(batches, n_parts, rng, n_probe) -> ClusteredVectorIndex:
    """Arbitrary assignments over a random subset of the clusters: some stay
    empty, and a re-added key usually lands in another cluster."""
    dim = batches[0][1].shape[1]
    clustered = ClusteredVectorIndex(rng.normal(scale=3.0, size=(n_parts, dim)), n_probe=n_probe)
    allowed = rng.choice(n_parts, size=rng.integers(1, n_parts + 1), replace=False)
    for keys, vectors in batches:
        clustered.add(keys, vectors, rng.choice(allowed, size=len(keys)))
        clustered.query_batch(vectors[:1], k=2)
    return clustered


def assert_same_neighbours(got: List[QueryResult], flat: VectorIndex, final, queries, k,
                           margin=1e-6):
    """An exact backend agrees with ``flat``: the same distances; every key
    really lies at its reported distance; no key twice; and the same key at
    every rank whose distance is not tied (tied keys may swap, also across
    the ``k`` boundary — hence the comparison against ``k + 1`` neighbours)."""
    for g, w, query in zip(got, flat.query_batch(queries, k=k + 1), queries):
        assert len(g) == min(k, len(flat))
        g_d, w_d = np.array([d for _, d in g]), np.array([d for _, d in w])
        np.testing.assert_allclose(g_d, w_d[: len(g)], rtol=1e-6, atol=1e-6)
        held = [np.linalg.norm(np.float32(final[key]).astype(np.float64) - query) for key, _ in g]
        np.testing.assert_allclose(g_d, held, rtol=1e-6, atol=1e-6)
        assert len({key for key, _ in g}) == len(g)
        gaps = np.diff(w_d, prepend=-np.inf, append=np.inf)
        for rank in np.flatnonzero((gaps[:-1] > margin) & (gaps[1:] > margin)):
            if rank < len(g):
                assert g[rank][0] == w[rank][0]


# -- the properties --------------------------------------------------------------------
@SETTINGS
@given(stores(), st.integers(1, 70))
def test_full_probe_ivf_and_clustered_equal_flat(store, k):
    batches, final, queries, n_parts, rng = store
    flat = build_flat(batches)
    assert len(flat) == len(final)
    want = flat.query_batch(queries, k=k)
    assert_same_answers(want, reference_query_batch(flat, queries, k),
                        exact=on_grid(batches, queries))

    ivf = build_ivf(batches, n_parts, n_probe=n_parts)
    assert len(ivf) == len(final) and all(key in ivf for key in final)
    assert_same_neighbours(ivf.query_batch(queries, k=k), flat, final, queries, k)

    clustered = build_clustered(batches, n_parts, rng, n_probe=n_parts)
    assert len(clustered) == len(final) and all(key in clustered for key in final)
    assert_same_neighbours(clustered.query_batch(queries, k=k), flat, final, queries, k)


@SETTINGS
@given(stores(), st.integers(1, 70), st.data())
def test_partitioned_scan_equals_list_based_reference_at_every_n_probe(store, k, data):
    batches, _, queries, n_parts, rng = store
    ivf = build_ivf(batches, n_parts)
    assume(ivf.is_trained)
    state = ivf._state
    partitions = state.partitions
    for n_probe in range(1, len(partitions) + 1):
        ivf.set_n_probe(n_probe)
        before = ivf.scan_stats()
        got = ivf.query_batch(queries, k=k)
        after = ivf.scan_stats()
        want, counts = reference_partitioned_query(queries, state.centers, partitions, n_probe, k)
        assert got == want  # keys, float distances and tie order, bit for bit
        assert {name: after[name] - before[name] for name in counts} == counts
        assert after["queries"] - before["queries"] == len(queries)

    n_probe = data.draw(st.integers(1, n_parts))
    clustered = build_clustered(batches, n_parts, rng, n_probe=n_probe)
    want, _ = reference_partitioned_query(
        queries, clustered.centers, clustered._partitions, clustered.n_probe, k)
    assert clustered.query_batch(queries, k=k) == want


@SETTINGS
@given(stores(), st.integers(1, 70), st.sampled_from([np.float32, np.float64]))
def test_topk_norms_and_uncached_mirror_equal_the_in_memory_index(store, k, dtype):
    batches, _, queries, _, _ = store
    flat = build_flat(batches, dtype=dtype)
    rows, d2 = flat.topk(queries, k)
    assert rows.shape == d2.shape == (len(queries), min(k, len(flat)))
    for got in (flat.topk(queries, k, np.sum(queries * queries, axis=1)),
                build_flat(batches, dtype=dtype, cache_query_matrix=False).topk(queries, k)):
        np.testing.assert_array_equal(got[0], rows)
        np.testing.assert_array_equal(got[1], d2)
    ref_rows, ref_dist = reference_topk(flat, queries, k)
    np.testing.assert_array_equal(rows, ref_rows)
    if on_grid(batches, queries):
        np.testing.assert_array_equal(np.sqrt(d2), ref_dist)
    else:
        np.testing.assert_allclose(np.sqrt(d2), ref_dist, rtol=1e-9, atol=1e-9)

    want = flat.query_batch(queries, k=k)
    uncached = build_flat(batches, dtype=dtype, cache_query_matrix=False)
    assert uncached.query_batch(queries, k=k) == want and uncached._mirror is None


def test_a_nearest_row_scan_holds_one_distance_sized_temporary():
    """``k = 1`` over a ``30 × 5,000`` partition: the GEMM, scaled and shifted
    in place, is the only ``(30, 5000)`` array alive (the clipped
    ``(|q|² + |x|²) − 2q·x`` held two)."""
    rng = np.random.default_rng(11)
    index = VectorIndex(8)
    index.add([f"r{i}" for i in range(5000)], rng.normal(size=(5000, 8)))
    queries = rng.normal(size=(30, 8))
    index.topk(queries, 1)  # builds the cached mirror, outside the measurement
    tracemalloc.start()
    try:
        index.topk(queries, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 30 * 5000 * 8  # one (30, 5000) float64 array


def test_identical_rows_equal_to_the_query_tie_by_row_number():
    """Two stored copies of the query: the lower row wins, and at ``k = 2`` the
    other comes second at the same distance — on every exact backend."""
    rng = np.random.default_rng(12)
    vectors = rng.normal(scale=3.0, size=(40, 4))
    vectors[23] = vectors[7]
    keys = [f"r{i}" for i in range(40)]
    query = vectors[7:8].astype(np.float32).astype(np.float64)  # as stored
    flat = VectorIndex(4)
    flat.add(keys, vectors)
    ivf = IVFVectorIndex(4, n_partitions=4, n_probe=4, train_threshold=8, seed=1)
    ivf.add(keys, vectors)
    assert ivf.is_trained
    centers = rng.normal(scale=3.0, size=(4, 4))
    clustered = ClusteredVectorIndex(centers, n_probe=4)
    clustered.add(keys, vectors, np.argmin(pairwise_squared_distances(vectors, centers), axis=1))
    for index in (flat, ivf, clustered):
        assert [key for key, _ in index.query(query, k=1)] == ["r7"]
        (first, d_first), (second, d_second) = index.query(query, k=2)
        assert (first, second) == ("r7", "r23") and d_first == d_second


@SETTINGS
@given(stores(), st.integers(1, 70))
def test_appending_proved_rows_leaves_what_the_per_key_path_left(store, k):
    batches, final, queries, n_parts, rng = store
    clustered_seed = int(rng.integers(2**32))
    builders = {
        "flat": lambda: build_flat(batches),
        "ivf": lambda: build_ivf(batches, n_parts, n_probe=2),
        "clustered": lambda: build_clustered(
            batches, n_parts, np.random.default_rng(clustered_seed), n_probe=2),
    }
    for name, build in builders.items():
        got = build()
        with per_key_writes():
            want = build()
        assert contents(got) == contents(want), name
        assert len(got) == len(final) and all(key in got for key in final)
        assert got.query_batch(queries, k=k) == want.query_batch(queries, k=k), name


# -- a mirror that grows: any interleaving of writes and reads ----------------------------
@st.composite
def histories(draw):
    """Writes and reads in any order over a small key pool, as ``(kind, ...)``
    operations: ``append`` (keys never stored: the write that extends a
    published mirror), ``overwrite`` (stored keys only), ``mixed`` (stored and
    new keys in one call, one of them repeated), ``add`` (whatever the pool
    gives), ``discard`` and ``query``; plus the dimension."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    pool = draw(st.integers(2, 30))
    grid = draw(st.booleans())
    kinds = draw(st.lists(
        st.sampled_from(["append", "append", "overwrite", "mixed", "add", "discard", "query"]),
        min_size=2, max_size=14))

    def points(n):
        if grid:
            return rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        return rng.normal(scale=3.0, size=(n, dim))

    ops, stored, minted = [], set(), 0
    for kind in ["append", "query", *kinds, "query"]:
        n = int(rng.integers(1, 12))
        if kind == "query":
            ops.append((kind, points(n), int(rng.integers(1, 8))))
            continue
        keys = [f"k{i}" for i in rng.integers(0, pool, size=n)]
        if kind == "discard":
            stored -= set(keys)
            ops.append((kind, keys))
            continue
        new = [f"n{minted + i}" for i in range(n)]
        minted += n
        some_stored = sorted(stored)[:: max(1, len(stored) // n)][:n]
        if kind == "append":
            keys = new
        elif kind == "overwrite" and stored:
            keys = some_stored
        elif kind == "mixed" and stored:
            keys = [*some_stored, *new, some_stored[0], new[0]]
        stored |= set(keys)
        ops.append(("add", keys, points(len(keys))))
    return ops, dim


def flat_stores(index) -> List[VectorIndex]:
    """Every ``VectorIndex`` an index answers from."""
    if isinstance(index, VectorIndex):
        return [index]
    if isinstance(index, ClusteredVectorIndex):
        return list(index._partitions)
    assert isinstance(index, IVFVectorIndex)
    if index._state is None:
        return [index._flat]
    return list(index._state.partitions)


def assert_answers_as_if_rebuilt(index, ask, queries, k):
    """Whatever mirrors ``index``'s history has left — extended, rebuilt, stale
    or none — it answers, bit for bit, what fresh ``VectorIndex``es holding the
    same rows answer: store by store, then as a whole with every mirror dropped."""
    for store in flat_stores(index):
        mirror = store._mirror
        assert mirror is None or store.cache_query_matrix
        if mirror is not None and mirror[0] == store._writes:  # the one a query would be served
            assert mirror[1].shape == (len(store), store.dim) and mirror[2].shape == (len(store),)
        if not len(store):
            continue
        fresh = VectorIndex(store.dim, dtype=store.dtype, cache_query_matrix=False)
        fresh.add(list(store.keys), store.vectors)
        for got, want in zip(store.topk(queries, k), fresh.topk(queries, k)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert store.query_batch(queries, k=k) == fresh.query_batch(queries, k=k)
    got = ask(queries, k)
    for store in flat_stores(index):
        store._mirror = None
    assert ask(queries, k) == got


@SETTINGS
@given(histories(), st.sampled_from([np.float32, np.float64]), st.booleans())
def test_a_flat_index_answers_as_a_fresh_one_after_any_history(history, dtype, cache):
    ops, dim = history
    index = VectorIndex(dim, dtype=dtype, cache_query_matrix=cache)
    final: Dict[str, np.ndarray] = {}
    for kind, *args in ops:
        if kind == "add":
            index.add(*args)
            final.update(zip(*args))
        elif kind == "discard":
            index.discard(args[0])
            for key in args[0]:
                final.pop(key, None)
        else:
            assert_answers_as_if_rebuilt(
                index, lambda queries, k: index.query_batch(queries, k=k), *args)
        assert dict(zip(index.keys, index.vectors.tolist())) == {
            key: vector.astype(dtype).tolist() for key, vector in final.items()}
    assert (index._mirror is not None) == cache


@SETTINGS
@given(histories(), st.sampled_from([np.float32, np.float64]), st.booleans(),
       st.sampled_from(["clustered", "ivf"]), st.integers(1, 5))
def test_partitioned_indexes_answer_as_fresh_ones_after_any_history(history, dtype, cache,
                                                                    backend, n_parts):
    ops, dim = history
    rng = np.random.default_rng(len(ops))
    ivf_params = {"n_partitions": n_parts, "train_threshold": 4, "cache_query_matrix": cache,
                  "n_probe": 2}
    if backend == "clustered":
        index = ClusteredVectorIndex(rng.normal(scale=3.0, size=(n_parts, dim)), n_probe=2,
                                     dtype=dtype, cache_query_matrix=cache)
    else:
        index = IVFVectorIndex(dim, dtype=dtype, seed=1, **ivf_params)
    final: Dict[str, np.ndarray] = {}
    for kind, *args in ops:
        if kind == "add":
            keys, vectors = args
            if backend == "clustered":  # a stored key usually lands elsewhere: evicted, then appended
                index.add(keys, vectors, rng.integers(0, n_parts, size=len(keys)))
            else:
                index.add(keys, vectors)
            final.update(zip(keys, vectors))
        elif kind == "query":
            assert_answers_as_if_rebuilt(
                index, lambda queries, k: index.query_batch(queries, k=k), *args)
        held = {key: vector for store in flat_stores(index)
                for key, vector in zip(store.keys, store.vectors.tolist())}
        assert held == {key: vector.astype(dtype).tolist() for key, vector in final.items()}


def test_a_pure_append_extends_the_mirror_and_every_other_write_drops_it():
    """Counted, not timed: which writes leave the next query a mirror to
    rebuild (``_float64_rows`` from row 0) and which extend it in place."""
    rng = np.random.default_rng(4)
    built: List[Tuple[int, int]] = []
    real = VectorIndex._float64_rows

    def recorded(self, start, end):
        built.append((start, end))
        return real(self, start, end)

    def since(action):
        del built[:]
        action()
        return list(built)

    def twin(index):
        fresh = VectorIndex(index.dim, dtype=index.dtype, cache_query_matrix=False)
        fresh.add(list(index.keys), index.vectors)
        return fresh

    queries = rng.normal(size=(6, 3))
    with mock.patch.object(VectorIndex, "_float64_rows", recorded):
        for dtype in (np.float32, np.float64):
            index = VectorIndex(3, dtype=dtype)
            index.add([f"s{i}" for i in range(40)], rng.normal(size=(40, 3)))
            assert since(lambda: index.query_batch(queries, k=3)) == [(0, 40)]
            assert since(lambda: index.query_batch(queries, k=3)) == []
            held = index._mirror  # what a reader in mid-scan holds
            kept = (held[1].copy(), held[2].copy())
            # Appends, across capacity doublings of the store and of the mirror.
            size = 40
            for n in (5, 1, 30, 200, 1):
                keys = [f"a{size + i}" for i in range(n)]
                assert since(lambda: index.add(keys, rng.normal(size=(n, 3)))) == [(size, size + n)]
                size += n
                assert since(lambda: index.query_batch(queries, k=3)) == []
                assert index.query_batch(queries, k=size) == twin(index).query_batch(queries, k=size)
            _, matrix, norms = index._mirror
            assert matrix.shape == (size, 3) and norms.shape == (size,)
            assert np.shares_memory(matrix, index._data) == (dtype is np.float64)
            np.testing.assert_array_equal(matrix, np.asarray(index.vectors, dtype=np.float64))
            np.testing.assert_array_equal(norms, np.sum(matrix * matrix, axis=1))
            # The reader's tuple is a prefix nothing wrote into.
            assert held[1].shape == (40, 3) and held[2].shape == (40,)
            np.testing.assert_array_equal(held[1], kept[0])
            np.testing.assert_array_equal(held[2], kept[1])
            # Every other write: nothing at write time, a rebuild at the next query.
            for write in (
                lambda: index.add(["s3"], [[9.0, 9.0, 9.0]]),                         # overwrite
                lambda: index.add(["s4", "z0"], [[7.0, 7.0, 7.0], [1.0, 1.0, 1.0]]),  # with an append
                lambda: index.add(["z1", "z1"], rng.normal(size=(2, 3))),   # appended, after a query
                lambda: index.discard(["s5", "never stored"]),
            ):
                was = len(index)
                built_by_write = since(write)
                extended = [(was, len(index))] if len(index) > was and built_by_write else []
                assert built_by_write == extended
                rebuilt = since(lambda: index.query_batch(queries, k=3))
                assert rebuilt == ([] if extended else [(0, len(index))])
                assert index.query_batch(queries, k=5) == twin(index).query_batch(queries, k=5)
            assert index.query([9.0, 9.0, 9.0])[0][0] == "s3"
            assert index.query([7.0, 7.0, 7.0])[0][0] == "s4"

        # A key that re-routes: evicted from one partition (dropped there),
        # appended to the other (extended there).
        clustered = ClusteredVectorIndex(np.array([[0.0, 0.0], [10.0, 10.0]]), n_probe=2)
        clustered.add(["a", "b", "c", "d"], [[0, 1], [1, 0], [10, 9], [9, 10]], [0, 0, 1, 1])
        both = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert since(lambda: clustered.query_batch(both, k=4)) == [(0, 2), (0, 2)]
        assert since(lambda: clustered.add(["a"], [[9, 9]], [1])) == [(2, 3)]
        assert since(lambda: clustered.query_batch(both, k=4)) == [(0, 1)]
        assert [key for key, _ in clustered.query([10.0, 10.0], k=4)] == ["c", "d", "a", "b"]

        # No cached mirror, nothing to extend: every query converts, no write does.
        uncached = VectorIndex(3, cache_query_matrix=False)
        uncached.add(["p", "q"], rng.normal(size=(2, 3)))
        uncached.query_batch(queries, k=1)
        assert since(lambda: uncached.add(["r"], rng.normal(size=(1, 3)))) == []
        assert since(lambda: uncached.query_batch(queries, k=1)) == [(0, 3)]
        assert uncached._mirror is None


def test_public_adds_still_validate_and_dedupe_what_they_are_given():
    """The append inside skips the checks; no public ``add`` does."""
    import pytest

    from repro.utils.errors import ValidationError

    flat = VectorIndex(2)
    ivf = IVFVectorIndex(2, n_partitions=2, train_threshold=2)
    clustered = ClusteredVectorIndex(np.eye(2))
    for index, extra in ((flat, ()), (ivf, ()), (clustered, ([0, 1],))):
        index.add(["a", "b"], np.eye(2), *extra)
        with pytest.raises(ValidationError):
            index.add(["c"], np.ones((1, 3)), *(e[:1] for e in extra))
        with pytest.raises(ValidationError):
            index.add(["c", "d"], np.ones((1, 2)), *(e[:1] for e in extra))
        # 7 is passed through str(); "a" is re-sent, and twice: the last wins.
        index.add([7, "a", "a"], np.array([[5.0, 5.0], [9.0, 9.0], [0.0, 2.0]]), *(
            [0, 0, 1] for _ in extra))
        assert len(index) == 3 and "7" in index
        assert index.query_batch(np.array([[0.0, 2.0]]), k=1) == [[("a", 0.0)]]
    assert ivf.is_trained and sorted(ivf._key_partition) == ["7", "a", "b"]
