"""Nearest-neighbour indexes over embedding vectors.

fairDS looks up "the most similar historical sample" for a new embedding.  A
flat (exact) index scales linearly with the database — the cost the paper
calls out for naive instance discrimination — while the cluster-partitioned
index implements the paper's two-level hierarchical search: first find the
nearest cluster centre, then search only within that cluster.

Both indexes keep their vectors in one contiguous ``(capacity, dim)`` matrix
(float32 by default) grown by amortised doubling, and answer whole query
batches with one GEMM per matrix, ranking on ``|x|² − 2q·x`` (``|q|²`` and
the clip at 0 are applied to the selected entries only).  ``query`` is the
one-row special case of ``query_batch``, so the per-vector and batched paths
can never drift apart.  Distances are accumulated in float64 regardless of the
storage dtype so the reported nearest-neighbour ordering stays numerically
stable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.tracing import current_span
from repro.utils.errors import StorageError, ValidationError
from repro.utils.stats import pairwise_squared_distances

#: One query's result: ``(key, euclidean_distance)`` pairs, nearest first.
QueryResult = List[Tuple[str, float]]

_INITIAL_CAPACITY = 32


def as_queries(vectors: np.ndarray, dim: int, k: int) -> np.ndarray:
    """``vectors`` as a float64 ``(B, dim)`` query batch, with ``k`` checked."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    queries = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if queries.shape[1] != dim:
        raise ValidationError(f"expected dim {dim}, got {queries.shape[1]}")
    return queries


def grown(buffer: np.ndarray, size: int, needed: int) -> np.ndarray:
    """``buffer``, or a doubled copy of its first ``size`` rows that holds ``needed``."""
    capacity = buffer.shape[0]
    if needed <= capacity:
        return buffer
    capacity = max(capacity, _INITIAL_CAPACITY)
    while capacity < needed:
        capacity *= 2
    out = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    out[:size] = buffer[:size]
    return out


def appended(head: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``head`` followed by ``rows``.  Where ``head`` is the leading rows of a
    buffer (what this returned before) the rows are written past its end into
    that buffer, :func:`grown` when full, so arrays handed out earlier stay as
    they were; any other ``head`` is copied.  Only the newest head of a buffer
    may be extended (the buffer does not know how far it is written), by one
    writer at a time."""
    size, end = head.shape[0], head.shape[0] + rows.shape[0]
    buffer = head.base
    if not (type(buffer) is np.ndarray and buffer.dtype == head.dtype
            and buffer.shape[1:] == head.shape[1:] and buffer.strides == head.strides
            and np.may_share_memory(buffer[:1], head[:1])):  # i.e. they start on one row
        buffer = head
    buffer = grown(buffer, size, end)
    buffer[size:end] = rows
    return buffer[:end]


class VectorIndex:
    """Exact nearest-neighbour index with incremental adds.

    Parameters
    ----------
    dim:
        Dimensionality of the stored vectors.
    dtype:
        Storage dtype of the contiguous vector matrix.  Distance computations
        are carried out in float64 regardless, against a query-time float64
        mirror (a free view when the storage dtype is already float64).
    cache_query_matrix:
        Whether to keep the float64 mirror (and its squared row norms) between
        queries: grown by each append, rebuilt by the first query after any
        other write.  True favours query latency at the cost of holding both
        copies (1.5-2x a plain float64 index for float32 storage); False pays
        the conversion on every query: right for huge, rarely-queried stores.
    """

    def __init__(self, dim: int, dtype=np.float32, cache_query_matrix: bool = True):
        if dim < 1:
            raise ValidationError("dim must be >= 1")
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        self.cache_query_matrix = bool(cache_query_matrix)
        self._data = np.empty((0, self.dim), dtype=self.dtype)
        self._size = 0
        self._keys: List[str] = []
        self._key_rows: Dict[str, int] = {}
        self._keys_cache: Optional[Tuple[str, ...]] = None
        # (write count it was computed at, float64 mirror, its squared row
        # norms): published as one reference, so no reader scores a mirror
        # against other norms, and served only while ``_writes`` still equals
        # its count.  Every write bumps ``_writes`` *last*, so a mirror a
        # reader computed across a write — whenever it gets stored — carries
        # a stale count.  A pure append publishes the current mirror plus its
        # rows under the next count; every other write leaves it stale.
        self._mirror: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._writes = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: object) -> bool:
        return key in self._key_rows

    @property
    def vectors(self) -> np.ndarray:
        """Read-only, contiguous view of the stored vectors (no copy)."""
        view = self._data[: self._size]
        view.flags.writeable = False
        return view

    @property
    def keys(self) -> Tuple[str, ...]:
        """The stored keys, row-aligned with :attr:`vectors`: a tuple cached
        for the published size (a reader racing an add builds its own)."""
        cached = self._keys_cache
        size = self._size
        if cached is None or len(cached) != size:
            cached = tuple(self._keys[:size])
            self._keys_cache = cached
        return cached

    # -- writes ----------------------------------------------------------------
    def add(self, keys: Sequence[str], vectors: np.ndarray) -> None:
        """Add (or overwrite) vectors under ``keys``, **last write wins**: a
        stored key is overwritten in place (its row keeps its position), and of
        a key repeated in the call only the final occurrence is kept — so no
        key ever holds two rows, or comes back twice from ``query_batch``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=self.dtype))
        if vectors.shape[1] != self.dim:
            raise ValidationError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if len(keys) != vectors.shape[0]:
            raise ValidationError("keys and vectors must have the same length")
        # Last occurrence of each key wins within the batch; iteration below
        # preserves first-seen order, so fresh keys append deterministically.
        source_rows: Dict[str, int] = {str(k): i for i, k in enumerate(keys)}
        overwrite_rows: List[int] = []
        overwrite_src: List[int] = []
        fresh_keys: List[str] = []
        fresh_src: List[int] = []
        for key, src in source_rows.items():
            row = self._key_rows.get(key)
            if row is None:
                fresh_keys.append(key)
                fresh_src.append(src)
            else:
                overwrite_rows.append(row)
                overwrite_src.append(src)
        if overwrite_rows:
            self._data[np.asarray(overwrite_rows)] = vectors[np.asarray(overwrite_src)]
            self._writes += 1  # drops the mirror before an append could carry the old rows across
        if fresh_keys:
            self._append(fresh_keys, vectors[fresh_src])

    def _append(self, keys: List[str], vectors: np.ndarray) -> None:
        """Append ``vectors`` as new rows under ``keys``, which the caller has
        shown to be strings, distinct and not stored (:meth:`add`,
        :func:`routed_upsert`); ``vectors`` is ``(len(keys), dim)``."""
        size = self._size
        end = size + len(keys)
        self._data = grown(self._data, size, end)
        self._data[size:end] = vectors
        self._keys.extend(keys)
        self._key_rows.update(zip(keys, range(size, end)))
        # Invalidate before publishing the new size so a concurrent query
        # never pairs the stale keys view with the grown size.
        self._keys_cache = None
        mirror, writes = self._mirror, self._writes
        self._size = end
        if mirror is not None and mirror[0] == writes:
            # Per append: rows x dim float64 and a norm each; the next query
            # rebuilds nothing.  Readers of the old tuple keep its prefix.
            rows, rows_sq = self._float64_rows(size, end)
            matrix = self._data[:end] if self.dtype == np.float64 else appended(mirror[1], rows)
            self._mirror = (writes + 1, matrix, appended(mirror[2], rows_sq))
        self._writes = writes + 1

    def _float64_rows(self, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Rows ``[start, end)`` as the mirror holds them: in float64 (a view
        when that is the storage dtype) and their squared norms."""
        rows = np.asarray(self._data[start:end], dtype=np.float64)
        return rows, np.sum(rows * rows, axis=1)

    def discard(self, keys: Sequence[str]) -> None:
        """Remove ``keys`` (absent keys are ignored) by swap-with-last.

        Unlike :meth:`add`, removal is not safe against concurrent readers —
        callers synchronise externally (the IVF index holds its write lock).
        """
        for key in keys:
            row = self._key_rows.pop(str(key), None)
            if row is None:
                continue
            last = self._size - 1
            if row != last:
                self._data[row] = self._data[last]
                moved_key = self._keys[last]
                self._keys[row] = moved_key
                self._key_rows[moved_key] = row
            self._keys.pop()
            self._keys_cache = None
            self._size = last
        self._writes += 1

    # -- reads -----------------------------------------------------------------
    def _ranked(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`topk` before ``|q|²`` is added: rows and their keys
        ``|x|² − 2q·x``, from one ``(B, n)`` temporary (the GEMM, in place)."""
        # One local snapshot, so a concurrent add() (system-plane ingest racing
        # a user-plane lookup) never pairs a mirror with other norms or sizes.
        mirror = self._mirror
        writes = self._writes
        if mirror is None or mirror[0] != writes:
            mirror = (writes, *self._float64_rows(0, self._size))
            if self.cache_query_matrix:
                self._mirror = mirror
        _, matrix, matrix_sq = mirror
        s = queries @ matrix.T
        s *= -2.0
        s += matrix_sq
        n = matrix.shape[0]
        k = min(k, n)
        each = np.arange(s.shape[0])[:, None]
        if k == 1:
            rows = s.argmin(axis=1)[:, None]
            return rows, s[each, rows]
        if k < n:
            rows = np.argpartition(s, k - 1, axis=1)[:, :k]
        else:
            rows = np.broadcast_to(np.arange(n), s.shape)
        selected = s[each, rows]
        order = np.argsort(selected, axis=1, kind="stable")
        return rows[each, order], selected[each, order]

    def topk(self, queries: np.ndarray, k: int, queries_sq: Optional[np.ndarray] = None
             ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``min(k, len(self))`` nearest rows of a non-empty index per query
        as ``(rows, squared_distances)``, nearest first, ties by row number:
        :meth:`query_batch` before keys are resolved.  ``queries`` is float64
        ``(B, dim)``, ``queries_sq`` its squared row norms if already known.

        Rows are ranked on ``|x|² − 2q·x`` (:meth:`_ranked`): on ``d²`` up to
        rounding.  ``|q|²`` and the clip at 0 are applied to the selected
        entries.  Exact on integer-valued data; on continuous data ``d²`` is
        within 1e-9 of ``(|q|² + |x|²) − 2q·x``, and distinct rows whose ``d²``
        rounds to ≤ 0 rank by ``|x|² − 2q·x``, not by row number."""
        rows, d2 = self._ranked(queries, k)
        if queries_sq is None:
            queries_sq = np.sum(queries * queries, axis=1)
        d2 += queries_sq[:, None]
        np.maximum(d2, 0.0, out=d2)
        return rows, d2

    def query_batch(self, vectors: np.ndarray, k: int = 1) -> List[QueryResult]:
        """Top-``k`` ``(key, distance)`` pairs for every row of ``vectors``,
        the whole batch in one :meth:`topk`.

        An empty index raises :class:`StorageError`: querying an empty store
        is almost always a wiring bug.
        """
        queries = as_queries(vectors, self.dim, k)
        if self._size == 0:
            raise StorageError("vector index is empty")
        rows, d2 = self.topk(queries, k)
        keys = self._keys
        return [
            [(keys[row], dist) for row, dist in zip(q_rows, q_dists)]
            for q_rows, q_dists in zip(rows.tolist(), np.sqrt(d2).tolist())
        ]

    def query(self, vector: np.ndarray, k: int = 1) -> QueryResult:
        """Return the ``k`` nearest ``(key, distance)`` pairs for ``vector``."""
        vector = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        return self.query_batch(vector, k=k)[0]


def routed_upsert(key_partition: Dict[str, int], partitions: Sequence[VectorIndex],
                  keys: Sequence[str], assignments: np.ndarray, vectors: np.ndarray) -> None:
    """Last-write-wins add of ``vectors`` under ``keys`` to the partitions
    named by ``assignments`` — the write path of both partitioned indexes.
    Of a key repeated in the call only the final occurrence is kept; a stored
    key is swap-removed (``discard``) from the partition holding it before its
    new row is appended, so a key that re-routes never leaves a second row
    behind — and every row left to write is new to its partition, which takes
    it through ``_append`` without looking the keys up again.
    ``key_partition`` records where each key went.
    """
    source_rows = dict(zip(map(str, keys), range(len(keys))))
    if not source_rows:
        return
    if not key_partition.keys().isdisjoint(source_rows):
        stale: Dict[int, List[str]] = {}
        for key in source_rows:
            if key in key_partition:
                stale.setdefault(key_partition[key], []).append(key)
        for pid, gone in stale.items():
            partitions[pid].discard(gone)
    # What is left to write is distinct and stored nowhere: group it by
    # partition with one gather, then append each slice.
    keys = list(source_rows)
    kept = np.fromiter(source_rows.values(), dtype=np.int64, count=len(keys))
    routes = assignments[kept]
    order = np.argsort(routes, kind="stable")
    routes, rows = routes[order], kept[order]
    keys = [keys[j] for j in order.tolist()]
    vectors = vectors[rows]
    bounds = [0, *(np.flatnonzero(np.diff(routes)) + 1).tolist(), len(keys)]
    for start, end in zip(bounds, bounds[1:]):
        pid = int(routes[start])
        partitions[pid]._append(keys[start:end], vectors[start:end])
        key_partition.update(dict.fromkeys(keys[start:end], pid))


def partitioned_topk(
    queries: np.ndarray, probe_order: np.ndarray, partitions: Sequence[VectorIndex],
    n_probe: int, k: int,
) -> Tuple[List[QueryResult], int, int]:
    """Merged top-``k`` of a query batch over a partitioned store.

    ``probe_order`` is ``(B, P)``: each query's partitions, nearest centre
    first.  A query visits its nearest *non-empty* partitions until ``n_probe``
    are probed and ``k`` candidates exist; each touched partition is scanned
    once with the ascending sub-batch of queries visiting it, by
    :meth:`VectorIndex._ranked`, whose ``|q|²`` and clip at 0 are applied once,
    to the padded ``(pairs, k)`` matrix, after the loop (``inf`` stays ``inf``).
    Results land in a padded ``(B, slots * k)`` matrix in probe order, so one
    ``argmin`` / stable ``argsort`` merges them, ties broken by probe rank, then
    row.  Returns the ``(key, distance)`` lists and the scan's ``(query,
    partition)`` pair and candidate counts, which are also added to the active
    trace span, if any.
    """
    n_queries, n_parts = probe_order.shape
    sizes = np.fromiter((len(part) for part in partitions), dtype=np.int64, count=n_parts)
    ordered = sizes[probe_order]
    nonempty = ordered > 0
    probed = np.cumsum(nonempty, axis=1)
    available = np.cumsum(np.minimum(ordered, k), axis=1)
    done = (probed >= n_probe) & (available >= k)
    stop = np.where(done.any(axis=1), np.argmax(done, axis=1), n_parts - 1)
    chosen = nonempty & (np.arange(n_parts) <= stop[:, None])

    # (query, partition) pairs, grouped by partition; queries stay ascending
    # within a group, slots number a query's partitions in probe order.
    qi, pos = np.nonzero(chosen)
    by_partition = np.argsort(probe_order[qi, pos], kind="stable")
    qi, pos = qi[by_partition], pos[by_partition]
    pids, slots = probe_order[qi, pos], probed[qi, pos] - 1
    n_pairs, n_slots = pids.shape[0], int(slots.max()) + 1
    bounds = np.flatnonzero(np.diff(pids, prepend=-1, append=n_parts)).tolist()

    # Gathered once in pair order: a partition's sub-batch is then a slice.
    pair_queries = queries[qi]
    pair_rows = np.zeros((n_pairs, k), dtype=np.int64)
    pair_d2 = np.full((n_pairs, k), np.inf)
    touched = pids[bounds[:-1]]
    widths = np.minimum(sizes[touched], k).tolist()
    for pid, width, start, end in zip(touched.tolist(), widths, bounds, bounds[1:]):
        pair_rows[start:end, :width], pair_d2[start:end, :width] = partitions[pid]._ranked(
            pair_queries[start:end], width)
    pair_d2 += np.sum(queries * queries, axis=1)[qi, None]
    np.maximum(pair_d2, 0.0, out=pair_d2)

    pair_of = np.zeros((n_queries, n_slots), dtype=np.int64)
    pair_of[qi, slots] = np.arange(n_pairs)
    distances = np.full((n_queries, n_slots, k), np.inf)
    distances[qi, slots] = np.sqrt(pair_d2)
    distances = distances.reshape(n_queries, n_slots * k)
    if k == 1:
        best = np.argmin(distances, axis=1)[:, None]
    else:
        best = np.argsort(distances, axis=1, kind="stable")[:, :k]
    each = np.arange(n_queries)
    pair = pair_of[each[:, None], best // k]
    found = np.minimum(available[each, stop], k).tolist()
    results = [
        [(partitions[pid]._keys[row], dist)
         for pid, row, dist in zip(q_pids[:n], q_rows[:n], q_dists[:n])]
        for q_pids, q_rows, q_dists, n in zip(
            pids[pair].tolist(), pair_rows[pair, best % k].tolist(),
            distances[each[:, None], best].tolist(), found)
    ]
    n_candidates = int(sizes[pids].sum())
    span = current_span()
    if span is not None:
        span.set_attribute("partitions", span.attributes.get("partitions", 0) + n_pairs)
        span.set_attribute("candidates", span.attributes.get("candidates", 0) + n_candidates)
    return results, n_pairs, n_candidates


class ClusteredVectorIndex:
    """Two-level (cluster -> sample) nearest-neighbour index.

    Built from cluster centres (from the fairDS clustering module) plus the
    per-sample embedding and cluster assignment.  A query first picks the
    ``n_probe`` nearest cluster centres and then searches only the members of
    those clusters — sub-linear lookup for large historical stores.

    Batched queries are routed per partition (:func:`partitioned_topk`): every
    query is assigned its probe set in one centre-distance computation, then
    each touched partition is searched exactly once with the sub-batch of
    queries probing it.
    """

    def __init__(self, centers: np.ndarray, n_probe: int = 1, dtype=np.float32,
                 cache_query_matrix: bool = True):
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if centers.shape[0] < 1:
            raise ValidationError("need at least one cluster centre")
        if n_probe < 1:
            raise ValidationError("n_probe must be >= 1")
        self.centers = centers
        self.dim = centers.shape[1]
        self.n_probe = int(min(n_probe, centers.shape[0]))
        self.dtype = np.dtype(dtype)
        self.cache_query_matrix = bool(cache_query_matrix)
        self._partitions = [
            VectorIndex(self.dim, dtype=self.dtype, cache_query_matrix=self.cache_query_matrix)
            for _ in range(centers.shape[0])
        ]
        self._key_partition: Dict[str, int] = {}

    def add(self, keys: Sequence[str], vectors: np.ndarray, cluster_ids: Sequence[int]) -> None:
        """Add (or overwrite) vectors under ``keys``: last-write-wins, also
        across clusters (:func:`routed_upsert`)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=self.dtype))
        cluster_ids = np.asarray(cluster_ids, dtype=int)
        if vectors.shape[1] != self.dim:
            raise ValidationError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if not (len(keys) == vectors.shape[0] == cluster_ids.shape[0]):
            raise ValidationError("keys, vectors and cluster_ids must have equal length")
        if np.any(cluster_ids < 0) or np.any(cluster_ids >= self.centers.shape[0]):
            raise ValidationError("cluster_ids out of range")
        routed_upsert(self._key_partition, self._partitions, keys, cluster_ids, vectors)

    def __len__(self) -> int:
        return len(self._key_partition)

    def __contains__(self, key: object) -> bool:
        return key in self._key_partition

    def query_batch(self, vectors: np.ndarray, k: int = 1) -> List[QueryResult]:
        """Top-``k`` pairs for every row of ``vectors``, one search per partition."""
        queries = as_queries(vectors, self.dim, k)
        if len(self) == 0:
            raise StorageError("clustered vector index is empty")
        probe_order = np.argsort(pairwise_squared_distances(queries, self.centers), kind="stable")
        return partitioned_topk(queries, probe_order, self._partitions, self.n_probe, k)[0]

    query = VectorIndex.query
