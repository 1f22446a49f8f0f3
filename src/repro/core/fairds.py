"""fairDS — the FAIR data service.

Responsibilities (paper Section II-A):

1. **Indexing** — train a self-supervised embedding model on historical data,
   cluster the embedding space with k-means (K chosen by the elbow method when
   not given), and write every labeled historical sample to the data store
   together with its embedding and cluster id.
2. **Discovery / pseudo-labeling** — given new *unlabeled* data, compute its
   cluster probability distribution and return the same number of already
   labeled historical samples drawn to follow that distribution
   (:meth:`FairDS.lookup`), or retrieve, per input sample, the nearest labeled
   historical sample within a distance threshold
   (:meth:`FairDS.nearest_labeled`) as in the Fig. 9 protocol.
3. **System plane** — monitor cluster-assignment certainty on incoming data
   (:meth:`FairDS.certainty`) and rebuild the embedding/clustering models and
   the store index from accumulated data when it degrades
   (:meth:`FairDS.refresh`).
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.api.registry import component_factory, filter_supported_kwargs, is_registered
from repro.clustering.elbow import select_k_elbow
from repro.clustering.fuzzy import assignment_certainty_batch
from repro.clustering.kmeans import KMeans
from repro.core.distribution import DatasetDistribution
from repro.dataio.sampler import WeightedClusterSampler, cluster_members
from repro.embedding.base import Embedder
from repro.observability.tracing import trace_span
from repro.storage.documentdb import Collection, DocumentDB
from repro.storage.capabilities import IndexCapabilities, probe_index_capabilities
from repro.utils.cache import LRUCache, row_digests
from repro.utils.errors import ConfigurationError, NotFittedError, ValidationError
from repro.utils.rng import SeedLike, default_rng, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compute.executor import Executor

#: Document fields every (re)fit sets afresh; a refresh carries all other
#: fields of a stored sample over, its encoded payload included.
_REFIT_FIELDS = frozenset({"_id", "label", "embedding", "cluster_id"})


# -- process-executor worker functions (module-level: pickled by reference) ----
def _embedder_session_setup(ctx, embedder_blob: bytes):
    return pickle.loads(embedder_blob)


def _embedder_transform_task(ctx, images: np.ndarray) -> np.ndarray:
    return np.asarray(ctx.state.transform(np.asarray(images, dtype=np.float64)), dtype=np.float64)


@dataclass
class LookupResult:
    """Labeled data returned by a fairDS pseudo-labeling lookup."""

    images: np.ndarray
    labels: np.ndarray
    doc_ids: List[str]
    input_distribution: DatasetDistribution
    retrieved_distribution: DatasetDistribution

    def __len__(self) -> int:
        return self.images.shape[0]


class _IntColumn:
    """Append-only integer column with amortised O(1) append.

    :meth:`append` returns a view of everything appended so far.  Views handed
    out earlier stay valid and unchanged — later values land beyond their end,
    or in a fresh buffer after a doubling — which is what lets a published
    catalog snapshot be read without a lock while the next one is prepared.
    One writer at a time.
    """

    __slots__ = ("_buffer", "_size")

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.intp)
        self._size = 0

    def append(self, values: np.ndarray) -> np.ndarray:
        size = self._size + len(values)
        if size > self._buffer.size:
            grown = np.empty(max(size, 2 * self._buffer.size), dtype=np.intp)
            grown[: self._size] = self._buffer[: self._size]
            self._buffer = grown
        self._buffer[self._size : size] = values
        self._size = size
        return self._buffer[:size]


class _SampleCatalog(NamedTuple):
    """What a lookup needs of every stored sample, column by column.

    One immutable snapshot of the labelled store in ``Collection.find()``
    order: row ``i`` is the ``i``-th document.  It describes ``collection``
    at write ``version`` and no other state of it.  ``cluster_ids`` and
    ``members`` (row numbers per cluster id present) are NumPy views of
    exactly this snapshot's length; ``doc_ids`` and ``labels`` are append-only
    lists shared with later snapshots, of which only the rows below
    ``len(cluster_ids)`` belong to this one.
    """

    collection: Collection
    version: int
    doc_ids: List[str]
    labels: List[Any]
    cluster_ids: np.ndarray
    members: Dict[int, np.ndarray]
    cluster_column: _IntColumn
    member_columns: Dict[int, _IntColumn]

    @classmethod
    def of(
        cls, collection: Collection, version: int, docs: Sequence[Mapping[str, Any]]
    ) -> "_SampleCatalog":
        """The catalog of ``docs``, which are ``collection.find()`` at ``version``."""
        empty = cls(collection, version, [], [], np.empty(0, dtype=np.intp), {}, _IntColumn(), {})
        return empty.extended(version, [d["_id"] for d in docs], docs)

    def extended(
        self, version: int, doc_ids: Sequence[str], fields: Sequence[Mapping[str, Any]]
    ) -> "_SampleCatalog":
        """The snapshot after documents ``doc_ids`` carrying ``fields`` were
        appended to the collection, in O(batch + clusters).

        Consumes ``self``: the shared lists and columns grow in place (beyond
        what ``self`` and older snapshots read), so only the newest snapshot
        may be extended, by one thread at a time.
        """
        added = np.array([f["cluster_id"] for f in fields], dtype=np.intp)
        first_row = self.cluster_ids.size
        members = dict(self.members)
        for c, rows in cluster_members(added).items():
            column = self.member_columns.get(c)
            if column is None:
                column = self.member_columns[c] = _IntColumn()
            members[c] = column.append(rows + first_row)
        self.doc_ids.extend(doc_ids)
        self.labels.extend(f["label"] for f in fields)
        return self._replace(
            version=version, cluster_ids=self.cluster_column.append(added), members=members
        )


class FairDS:
    """The FAIR data service.

    Parameters
    ----------
    embedder:
        Any :class:`~repro.embedding.base.Embedder`; the paper's default for
        Bragg peaks is BYOL, but PCA keeps tests fast.
    n_clusters:
        Number of k-means clusters, or ``"auto"`` to select K with the elbow
        method (the paper's YellowBrick-based automation).
    db:
        Backing :class:`~repro.storage.documentdb.DocumentDB`; an in-process
        one is created when omitted.
    collection:
        Name of the collection holding labeled historical samples.
    seed:
        RNG seed for clustering and sampling.
    embedding_cache_size:
        Capacity of the LRU embedding cache keyed on per-sample content
        digests: samples already embedded since the last (re)fit skip the
        embedder entirely on repeated lookups/monitoring probes.  ``0``
        disables caching (use this for stochastic embedders whose transform
        is not a pure per-sample function).
    index_dtype:
        Storage dtype of the nearest-neighbour index.  The index answers
        queries against a cached float64 mirror either way, so float32
        (default) trades ~1e-7 relative distance error for a smaller
        authoritative store; pass ``np.float64`` to hold one full-precision
        copy (the mirror becomes a free view) and make
        :meth:`nearest_labeled` thresholds exact.
    clustering_algorithm / clustering_params:
        Registry name (kind ``"clustering"``) and extra constructor kwargs of
        the clustering model fitted over the embedding space.  The component
        must expose the KMeans-style surface (``fit`` / ``predict`` /
        ``labels_`` / ``cluster_centers_`` / ``n_clusters``).
    index_backend / index_params:
        Registry name (kind ``"index"``) and extra constructor kwargs of the
        nearest-neighbour index.  ``"clustered"`` (default) partitions by
        cluster id; ``"flat"`` scans exactly.  Custom backends are built with
        ``(centers=..., dtype=...)`` when their factory accepts them, and fed
        through ``add(keys, vectors[, cluster_ids])``.
    """

    def __init__(
        self,
        embedder: Embedder,
        n_clusters: Union[int, str] = "auto",
        db: Optional[DocumentDB] = None,
        collection: str = "fairds_samples",
        max_auto_clusters: int = 15,
        seed: SeedLike = 0,
        embedding_cache_size: int = 4096,
        index_dtype=np.float32,
        clustering_algorithm: str = "kmeans",
        clustering_params: Optional[Dict[str, Any]] = None,
        index_backend: str = "clustered",
        index_params: Optional[Dict[str, Any]] = None,
        executor: Optional["Executor"] = None,
    ):
        if isinstance(n_clusters, str):
            if n_clusters != "auto":
                raise ConfigurationError("n_clusters must be an integer or 'auto'")
        elif n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if max_auto_clusters < 2:
            raise ConfigurationError("max_auto_clusters must be >= 2")
        self.embedder = embedder
        self._requested_clusters = n_clusters
        self.max_auto_clusters = int(max_auto_clusters)
        if embedding_cache_size < 0:
            raise ConfigurationError("embedding_cache_size must be non-negative")
        if not is_registered("clustering", clustering_algorithm):
            raise ConfigurationError(
                f"unknown clustering algorithm {clustering_algorithm!r}; "
                "register it under kind 'clustering' first"
            )
        if not is_registered("index", index_backend):
            raise ConfigurationError(
                f"unknown index backend {index_backend!r}; register it under kind 'index' first"
            )
        self.db = db or DocumentDB()
        self.collection_name = collection
        self.seed = seed
        self.clustering_algorithm = clustering_algorithm
        self.clustering_params = dict(clustering_params or {})
        self.index_backend = index_backend
        self.index_params = dict(index_params or {})
        self._kmeans = None  # the fitted clustering model (KMeans-style surface)
        self._index = None
        self._index_caps: Optional[IndexCapabilities] = None
        self._lookup_counter = 0
        self._lookup_counter_lock = threading.Lock()
        #: Newest published :class:`_SampleCatalog`; replaced whole, read
        #: without a lock.  ``_catalog_lock`` serialises the writers.
        self._catalog: Optional[_SampleCatalog] = None
        self._catalog_lock = threading.Lock()
        self._embed_cache = LRUCache(embedding_cache_size)
        self._embed_generation = 0
        self.index_dtype = np.dtype(index_dtype)
        #: Optional parallel compute plane for multi-dataset embedding fans
        #: (certainty/distribution batches).  ``None`` keeps every serial
        #: code path — and the embedding LRU cache — exactly as before.
        self.executor = executor
        self._executor_session = None
        self._executor_session_generation = -1

    # -- helpers -----------------------------------------------------------------
    @property
    def collection(self) -> Collection:
        return self.db.collection(self.collection_name)

    @property
    def is_fitted(self) -> bool:
        return self._kmeans is not None

    @property
    def n_clusters(self) -> int:
        if self._kmeans is None:
            raise NotFittedError("fairDS has not been fitted yet")
        return self._kmeans.n_clusters

    def store_size(self) -> int:
        return self.collection.count()

    @staticmethod
    def _validate_images_labels(images: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if images.shape[0] == 0:
            raise ValidationError("images must be non-empty")
        if images.shape[0] != labels.shape[0]:
            raise ValidationError("images and labels must have the same length")
        return images, labels

    def _embed(self, images: np.ndarray) -> np.ndarray:
        """Embed ``images``, serving repeated samples from the LRU cache.

        Samples are keyed by ``(fit_generation, content_digest)``: the digest
        covers the sample's raw bytes, and the generation counter advances on
        every (re)fit, so an embedding computed with an old representation —
        even one put by a thread racing a concurrent refresh — can never be
        served against the new clustering.  Only cache misses are pushed
        through the embedder.
        """
        images = np.asarray(images, dtype=np.float64)
        cache = self._embed_cache
        if cache.maxsize == 0:
            return np.asarray(self.embedder.transform(images), dtype=np.float64)
        if images.ndim == 1:
            # One flat sample (Embedder.flatten semantics), not a batch of scalars.
            images = images.reshape(1, -1)
        generation = self._embed_generation
        keys = [(generation, digest) for digest in row_digests(images)]
        cached = [cache.get(key) for key in keys]
        missing = [i for i, hit in enumerate(cached) if hit is None]
        if len(missing) == len(keys):
            embeddings = np.asarray(self.embedder.transform(images), dtype=np.float64)
            for i, key in enumerate(keys):
                cache.put(key, embeddings[i].copy())
            return embeddings
        if missing:
            fresh = np.asarray(self.embedder.transform(images[missing]), dtype=np.float64)
            for row, i in enumerate(missing):
                cache.put(keys[i], fresh[row].copy())
                cached[i] = fresh[row]
        return np.stack([np.asarray(vec, dtype=np.float64) for vec in cached])

    def embedding_cache_info(self) -> Dict[str, float]:
        """Hit/miss counters of the embedding LRU cache."""
        return self._embed_cache.info()

    def _embed_batches(self, batches: List[np.ndarray]) -> List[np.ndarray]:
        """Embed several datasets; fans out across :attr:`executor` when one
        is configured.  The parallel path pushes whole datasets through the
        pure ``embedder.transform`` (identical results, no LRU round-trip) —
        a win exactly when several genuinely new datasets arrive together,
        which is the monitoring/batched-certainty shape."""
        executor = self.executor
        if (
            executor is None
            or executor.closed
            or executor.max_workers <= 1
            or len(batches) <= 1
        ):
            return [self._embed(images) for images in batches]
        if executor.kind == "process":
            return self._embed_batches_process(batches)
        return executor.map(self._transform64, batches)

    def _transform64(self, images: np.ndarray) -> np.ndarray:
        return np.asarray(self.embedder.transform(images), dtype=np.float64)

    def _embed_batches_process(self, batches: List[np.ndarray]) -> List[np.ndarray]:
        """Process fan-out over a persistent worker session holding the
        (pickled-once) embedder; the session is rebuilt whenever a (re)fit
        advances the embedding generation."""
        session = self._executor_session
        if (
            session is None
            or session.closed
            or self._executor_session_generation != self._embed_generation
        ):
            if session is not None:
                session.close()
            session = self.executor.open_session(
                setup=_embedder_session_setup,
                setup_args=(pickle.dumps(self.embedder),),
            )
            self._executor_session = session
            self._executor_session_generation = self._embed_generation
        return session.map(_embedder_transform_task, batches)

    # -- indexing -----------------------------------------------------------------------
    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Dict]] = None,
        embedder_kwargs: Optional[Dict] = None,
    ) -> "FairDS":
        """Train the embedding + clustering models and populate the data store."""
        images, labels = self._validate_images_labels(images, np.asarray(labels))
        if metadata is not None and len(metadata) != images.shape[0]:
            raise ValidationError("metadata must match the number of images")
        with trace_span("fairds.fit"):
            return self._rebuild(images, labels, metadata, list(images), embedder_kwargs)

    def _rebuild(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Mapping[str, Any]]],
        payloads: Optional[List[np.ndarray]],
        embedder_kwargs: Optional[Dict],
    ) -> "FairDS":
        """Fit the models on ``images`` and replace the store with them.

        ``payloads`` are what the collection encodes as the samples' payloads;
        ``None`` when every ``metadata`` entry already carries its sample's
        encoded ``payload`` / ``payload_bytes`` fields (a refresh).
        """
        with trace_span("embedder.fit"):
            self.embedder.fit(images, **(embedder_kwargs or {}))
        # The representation changed: advance the cache generation (so even
        # in-flight embeddings keyed to the old representation die unread)
        # and drop the stale entries.  The store itself bypasses the cache:
        # it is embedded once, and would only evict itself.
        self._embed_generation += 1
        self._embed_cache.clear()
        with trace_span("embedder.transform"):
            embeddings = self._transform64(images)

        with trace_span("clustering.fit"):
            if self._requested_clusters == "auto":
                k_max = min(self.max_auto_clusters, embeddings.shape[0])
                k, _ = select_k_elbow(embeddings, k_min=2, k_max=k_max, seed=derive_seed(self.seed, 1))
            else:
                k = int(self._requested_clusters)
            if embeddings.shape[0] < k:
                raise ValidationError(
                    f"need at least n_clusters={k} samples to fit fairDS, got {embeddings.shape[0]}"
                )
            self._kmeans = self._make_clusterer(k).fit(embeddings)
            cluster_ids = self._kmeans.labels_

        with trace_span("store.write"):
            # Reset the collection so repeated fits don't accumulate stale copies
            # (nor the catalog keep the dropped one alive while the new one fills).
            self.db.drop_collection(self.collection_name)
            self._catalog = None
            coll = self.collection
            coll.create_index("cluster_id")
            ids = coll.insert_many(
                self._sample_fields(labels, embeddings, cluster_ids, metadata), payloads
            )
        with trace_span("index.build"):
            self._index = self._make_index()
            self._index_add(ids, embeddings, cluster_ids)
            self._sample_catalog()
        return self

    @staticmethod
    def _sample_fields(
        labels: np.ndarray,
        embeddings: np.ndarray,
        cluster_ids: np.ndarray,
        metadata: Optional[Sequence[Mapping[str, Any]]],
    ) -> List[Dict[str, Any]]:
        """The document fields of each sample, payload aside."""
        fields = [
            {"label": label, "embedding": embedding, "cluster_id": cluster_id}
            for label, embedding, cluster_id in zip(
                labels.tolist(),
                embeddings.tolist(),
                np.asarray(cluster_ids, dtype=np.intp).tolist(),
            )
        ]
        if metadata is not None:
            for sample, extra in zip(fields, metadata):
                sample.update(extra)
        return fields

    def _make_clusterer(self, k: int):
        """The clustering model named by ``clustering_algorithm``, through the
        unified component registry.

        ``n_clusters`` (and any ``clustering_params``) are passed always;
        the derived ``seed`` only when the factory's signature accepts it —
        so a custom algorithm that validated at spec time (where no seed is
        offered) constructs identically here.
        """
        factory = component_factory("clustering", self.clustering_algorithm)
        if factory is KMeans and not self.clustering_params:
            # Fast path only when "kmeans" still resolves to the builtin — a
            # user overwrite through the registry must win.
            return KMeans(n_clusters=k, seed=derive_seed(self.seed, 2))
        optional = filter_supported_kwargs(factory, {"seed": derive_seed(self.seed, 2)})
        return factory(**{"n_clusters": k, **optional, **self.clustering_params})

    def _make_index(self):
        """The lookup index named by ``index_backend``.

        No name-based special cases: every backend is *offered* one superset
        of wiring context — the embedding dimensionality, the fitted cluster
        centres, the index dtype, a conservative ``n_probe`` default, and a
        derived seed — and receives exactly the subset its factory signature
        declares (``"flat"`` takes ``dim``/``dtype``, ``"clustered"`` takes
        ``centers``/``n_probe``, ``"ivf"`` takes ``dim``/``n_probe``/``seed``;
        a custom backend takes whatever it asks for).  ``index_params`` is
        merged last, so explicit configuration always wins.  The constructed
        instance's surface is probed **once**
        (:func:`~repro.storage.capabilities.probe_index_capabilities`) to learn
        how to feed and query it — see :meth:`_index_add` and
        :meth:`_index_query_batch`.
        """
        assert self._kmeans is not None
        centers = np.asarray(self._kmeans.cluster_centers_, dtype=np.float64)
        factory = component_factory("index", self.index_backend)
        offered = {
            "dim": centers.shape[1],
            "centers": centers,
            "dtype": self.index_dtype,
            "n_probe": 2,
            "seed": derive_seed(self.seed, 3),
        }
        kwargs = {**filter_supported_kwargs(factory, offered), **self.index_params}
        index = factory(**kwargs)
        self._index_caps = probe_index_capabilities(index)
        return index

    @property
    def index_capabilities(self) -> Optional[IndexCapabilities]:
        """Probed surface of the current index (``None`` before fit)."""
        return self._index_caps

    def _index_add(self, keys: List[str], vectors: np.ndarray, cluster_ids: np.ndarray) -> None:
        assert self._index is not None and self._index_caps is not None
        if self._index_caps.takes_cluster_ids:
            self._index.add(keys, vectors, cluster_ids)
        else:
            self._index.add(keys, vectors)

    def _index_query_batch(self, vectors: np.ndarray, k: int = 1):
        """Batched lookup against any backend: one ``query_batch`` call when
        the backend has it, a per-row ``query`` loop otherwise."""
        assert self._index is not None and self._index_caps is not None
        queries = int(np.atleast_2d(vectors).shape[0])
        with trace_span("index.scan", backend=self.index_backend, queries=queries, k=k):
            if self._index_caps.supports_query_batch:
                return self._index.query_batch(vectors, k=k)
            return [self._index.query(row, k=k) for row in np.atleast_2d(vectors)]

    # -- live index knobs --------------------------------------------------------
    def set_index_n_probe(self, n_probe: int) -> int:
        """Atomically retune the index's ``n_probe`` scan width (no rebuild).

        Only supported by backends exposing ``set_n_probe`` (``"ivf"``);
        raises :class:`ConfigurationError` otherwise so a serving knob wired
        to the wrong backend fails loudly, not silently.
        """
        if self._index is None or self._index_caps is None:
            raise NotFittedError("set_index_n_probe() requires fit() first")
        if not self._index_caps.supports_n_probe:
            raise ConfigurationError(
                f"index backend {self.index_backend!r} has no live n_probe knob"
            )
        return int(self._index.set_n_probe(n_probe))

    @property
    def index_n_probe(self) -> Optional[int]:
        """The index's current ``n_probe`` (``None`` when not applicable)."""
        index = self._index
        n_probe = getattr(index, "n_probe", None) if index is not None else None
        return int(n_probe) if n_probe is not None else None

    def index_stats(self) -> Dict[str, int]:
        """The index's cumulative scan counters (empty when unsupported)."""
        if self._index is None or self._index_caps is None \
                or not self._index_caps.supports_scan_stats:
            return {}
        return dict(self._index.scan_stats())

    def _catalog_at(self, coll: Collection, version: int) -> Optional[_SampleCatalog]:
        """The published catalog, if it describes ``coll`` at ``version``."""
        catalog = self._catalog
        if catalog is not None and catalog.collection is coll and catalog.version == version:
            return catalog
        return None

    def _sample_catalog(self) -> _SampleCatalog:
        """The catalog of the store as it is now.

        The published snapshot is served for as long as it names the current
        ``Collection`` object at its current write version — so a change made
        behind fairDS's back (``insert`` / ``update_one`` / ``delete_many`` on
        the collection, a dropped or re-created collection) is never answered
        from stale columns.  Otherwise the catalog is rebuilt from
        ``find()``, its only construction path.
        """
        coll = self.collection
        catalog = self._catalog_at(coll, coll.version)
        if catalog is None:
            with self._catalog_lock:
                # An ingest or another lookup may have caught up while we waited.
                catalog = self._catalog_at(coll, coll.version)
                if catalog is None:
                    version = coll.version
                    catalog = _SampleCatalog.of(coll, version, coll.find())
                    # A write that raced the read leaves the documents
                    # unattributable to one version: good for this caller, as
                    # find() always was, but not to publish.
                    if coll.version == version:
                        self._catalog = catalog
        return catalog

    def ingest(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Dict]] = None,
    ) -> List[str]:
        """Add newly labeled data to the store using the existing embedding/clustering."""
        if not self.is_fitted:
            raise NotFittedError("fairDS.ingest() requires fit() first")
        images, labels = self._validate_images_labels(images, np.asarray(labels))
        embeddings = self._embed(images)
        cluster_ids = self._kmeans.predict(embeddings)
        fields = self._sample_fields(labels, embeddings, cluster_ids, metadata)
        coll = self.collection
        with self._catalog_lock:
            version = coll.version
            ids = coll.insert_many(fields, list(images))
            # Append to the catalog only if it described the collection just
            # before this insert and nothing else was written meanwhile;
            # otherwise it stays behind and the next lookup rebuilds it.
            catalog = self._catalog_at(coll, version)
            if catalog is not None and coll.version == version + 1:
                self._catalog = catalog.extended(version + 1, ids, fields)
        self._index_add(ids, embeddings, cluster_ids)
        return ids

    # -- discovery ----------------------------------------------------------------------------
    def dataset_distribution(self, images: np.ndarray, label: str = "") -> DatasetDistribution:
        """Cluster PDF of an (unlabeled) input dataset — the one-dataset
        special case of :meth:`dataset_distribution_batch`."""
        return self.dataset_distribution_batch([images], labels=[label])[0]

    def dataset_distribution_batch(
        self, batches: Sequence[np.ndarray], labels: Optional[Sequence[str]] = None
    ) -> List[DatasetDistribution]:
        """Cluster PDFs for a batch of datasets — one per input array.

        Embeddings are resolved per dataset through the LRU cache, then all
        cluster assignments are predicted in a single pass over the
        concatenated rows instead of one ``predict`` call per dataset.
        """
        if not self.is_fitted:
            raise NotFittedError("fairDS.dataset_distribution_batch() requires fit() first")
        if labels is not None and len(labels) != len(batches):
            raise ValidationError("labels must match the number of batches")
        if not len(batches):
            return []
        validated = []
        for images in batches:
            images = np.asarray(images, dtype=np.float64)
            if images.shape[0] == 0:
                raise ValidationError("images must be non-empty")
            validated.append(images)
        embeddings = self._embed_batches(validated)
        cluster_ids = self._kmeans.predict(np.vstack(embeddings))
        out: List[DatasetDistribution] = []
        start = 0
        for i, emb in enumerate(embeddings):
            label = labels[i] if labels is not None else ""
            out.append(
                DatasetDistribution.from_cluster_ids(
                    cluster_ids[start : start + emb.shape[0]], self.n_clusters, label=label
                )
            )
            start += emb.shape[0]
        return out

    def lookup(
        self,
        images: np.ndarray,
        n_samples: Optional[int] = None,
        label: str = "",
    ) -> LookupResult:
        """Retrieve labeled historical data matching the input dataset's distribution.

        Returns the same number of labeled samples as the input (unless
        ``n_samples`` overrides it), drawn cluster-by-cluster according to the
        input's cluster PDF — the paper's pseudo-labeling operation.
        """
        return self.lookup_batch([images], n_samples=n_samples, labels=[label])[0]

    def lookup_batch(
        self,
        batches: Sequence[np.ndarray],
        n_samples: Optional[Union[int, Sequence[Optional[int]]]] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[LookupResult]:
        """Pseudo-label several datasets in one round trip.

        Results are *identical* to calling :meth:`lookup` once per dataset, in
        order, but all retrieved payloads are fetched in a single call.  The
        store itself is not walked: the draw reads the sample catalog
        (:meth:`_sample_catalog`), so a lookup costs O(request + clusters) in
        Python plus one ``rng.choice`` per wanted cluster, whatever the store
        size.

        ``n_samples`` may be a single override applied to every dataset, or a
        per-dataset sequence (``None`` entries fall back to the dataset size).
        """
        if not self.is_fitted:
            raise NotFittedError("fairDS.lookup() requires fit() first")
        if not len(batches):
            return []
        if labels is None:
            labels = [""] * len(batches)
        elif len(labels) != len(batches):
            raise ValidationError("labels must match the number of batches")
        if n_samples is None or not hasattr(n_samples, "__len__"):
            n_samples = [n_samples] * len(batches)  # scalar (incl. float) applied to every dataset
        elif len(n_samples) != len(batches):
            raise ValidationError("n_samples must be a scalar or match the number of batches")
        n_outs = []
        for images, n_override in zip(batches, n_samples):
            n_out = int(n_override) if n_override is not None else int(np.asarray(images).shape[0])
            if n_out < 1:
                raise ValidationError("n_samples must be >= 1")
            n_outs.append(n_out)

        catalog = self._sample_catalog()
        if not catalog.cluster_ids.size:
            raise ValidationError("the fairDS store is empty; ingest historical data first")
        if max(catalog.members) >= self.n_clusters:
            raise ValidationError("the store holds a cluster id the fitted clustering does not have")

        distributions = self.dataset_distribution_batch(batches, labels=labels)

        # Everything that can fail has happened above, before any sampler
        # seed is consumed — a rejected batch leaves the lookup counter (and
        # thus reproducibility vs N single calls) untouched.  The block of
        # seeds is reserved atomically: concurrent lookups never share one.
        with self._lookup_counter_lock:
            first_counter = self._lookup_counter
            self._lookup_counter += len(batches)

        plans = []
        all_chosen_ids: List[str] = []
        for offset, (distribution, n_out, label) in enumerate(zip(distributions, n_outs, labels)):
            sampler = WeightedClusterSampler(
                catalog.cluster_ids,
                distribution.pdf,
                n_samples=n_out,
                seed=derive_seed(self.seed, 101, first_counter + offset),
                members_by_cluster=catalog.members,
            )
            chosen = list(sampler)
            chosen_ids = [catalog.doc_ids[i] for i in chosen]
            plans.append((distribution, chosen, chosen_ids, label))
            all_chosen_ids.extend(chosen_ids)

        payloads = catalog.collection.fetch_payloads(all_chosen_ids)
        results: List[LookupResult] = []
        cursor = 0
        for distribution, chosen, chosen_ids, label in plans:
            batch_payloads = payloads[cursor : cursor + len(chosen_ids)]
            cursor += len(chosen_ids)
            retrieved_images = np.stack([np.asarray(p) for p in batch_payloads])
            retrieved_labels = np.array([catalog.labels[i] for i in chosen], dtype=np.float64)
            retrieved_dist = DatasetDistribution.from_cluster_ids(
                catalog.cluster_ids[chosen], self.n_clusters, label=f"{label}:retrieved"
            )
            results.append(
                LookupResult(
                    images=retrieved_images,
                    labels=retrieved_labels,
                    doc_ids=chosen_ids,
                    input_distribution=distribution,
                    retrieved_distribution=retrieved_dist,
                )
            )
        return results

    def nearest_labeled(
        self, images: np.ndarray, threshold: Optional[float] = None
    ) -> List[Tuple[Optional[np.ndarray], float]]:
        """Per-sample nearest labeled historical sample within ``threshold``.

        Returns a list of ``(label, distance)``; ``label`` is ``None`` when no
        historical sample lies within the embedding-space threshold, in which
        case the caller should fall back to conventional labeling (Fig. 9's
        ``|b - p| >= T`` branch).  ``threshold=None`` disables the gate — the
        nearest label is always returned (the serving path applies per-request
        thresholds client-side).  All samples are resolved against the index
        in one batched query, and the labels within the threshold fetched in
        one store operation.
        """
        if not self.is_fitted or self._index is None:
            raise NotFittedError("fairDS.nearest_labeled() requires fit() first")
        if threshold is None:
            threshold = np.inf
        elif threshold <= 0:
            raise ValidationError("threshold must be positive")
        embeddings = self._embed(np.asarray(images, dtype=np.float64))
        hits = [hit for (hit,) in self._index_query_batch(embeddings, k=1)]
        docs = iter(self.collection.get_many(
            [doc_id for doc_id, dist in hits if dist < threshold]))
        return [
            (np.asarray(next(docs)["label"], dtype=np.float64), dist)
            if dist < threshold else (None, dist)
            for _, dist in hits
        ]

    # -- system plane ---------------------------------------------------------------------------
    def certainty(self, images: np.ndarray, confidence: float = 0.5, fuzzifier: float = 2.0) -> float:
        """Cluster-assignment certainty (percent) of the input dataset (Fig. 16 metric).

        ``fuzzifier`` is the fuzzy c-means ``m`` parameter: values closer to 1
        sharpen memberships, which is appropriate when the embedding space has
        many nearby clusters (as with the 15-cluster Bragg space of the paper).
        The one-dataset special case of :meth:`certainty_batch`.
        """
        return self.certainty_batch([images], confidence=confidence, fuzzifier=fuzzifier)[0]

    def certainty_batch(
        self,
        batches: Sequence[np.ndarray],
        confidence: float = 0.5,
        fuzzifier: float = 2.0,
    ) -> List[float]:
        """Cluster-assignment certainty for several datasets at once.

        Embeddings come from the shared LRU cache where possible, and the
        fuzzy memberships of all datasets are computed in a single pass.
        """
        if not self.is_fitted:
            raise NotFittedError("fairDS.certainty_batch() requires fit() first")
        embeddings = self._embed_batches(
            [np.asarray(images, dtype=np.float64) for images in batches]
        )
        return assignment_certainty_batch(
            embeddings, self._kmeans.cluster_centers_, m=fuzzifier, confidence=confidence
        )

    def refresh(self, embedder_kwargs: Optional[Dict] = None) -> "FairDS":
        """Retrain the embedding and clustering models from the accumulated store.

        This is the system-plane action fired by the uncertainty trigger: all
        stored samples are re-embedded, the clustering is re-fit, every
        document's embedding/cluster fields are rewritten (under new ids, in a
        new collection), and the lookup index rebuilt.  Payloads are decoded
        once, for the embedder; the documents keep their encoded blobs as they
        are.
        """
        if not self.is_fitted:
            raise NotFittedError("fairDS.refresh() requires fit() first")
        with trace_span("fairds.refresh"):
            with trace_span("refresh.read"):
                coll = self.collection
                docs = coll.find()
                if not docs:
                    raise ValidationError("cannot refresh an empty store")
                images, labels = self._validate_images_labels(
                    np.stack(coll.fetch_payloads([d.id for d in docs])),
                    np.array([d["label"] for d in docs], dtype=np.float64),
                )
                kept = [
                    {k: v for k, v in d.items() if k not in _REFIT_FIELDS} for d in docs
                ]
            return self._rebuild(images, labels, kept, None, embedder_kwargs)
