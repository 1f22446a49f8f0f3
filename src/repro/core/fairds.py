"""fairDS — the FAIR data service.

Responsibilities (paper Section II-A):

1. **Indexing** — train a self-supervised embedding model on historical data,
   cluster the embedding space with k-means (K chosen by the elbow method when
   not given), and write every labeled historical sample to the data store
   with its cluster id, and its embedding to the lookup index.
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

**What a reader may rely on.**  Everything a read needs — fitted embedder, its
embedding cache, clustering, sample table, index — is one :class:`_Generation`,
published by one reference assignment.  A (re)fit builds generation N+1
*aside* and publishes it last, so a read running beside a refresh answers
wholly from N or wholly from N+1 (lookups say which:
:attr:`LookupResult.generation`), never from a mixture, and a (re)fit that
raises leaves N published and untouched.  Readers take no lock.  The writers
(:meth:`FairDS.fit`, :meth:`FairDS.refresh`, :meth:`FairDS.ingest`, the
``n_probe`` retune) are serialised by one lock: an ingest that arrives during
a refresh waits for it and lands in generation N+1.  Those writers are the
store's only ones: :attr:`FairDS.collection`, its document view, is read-only.
"""

from __future__ import annotations

import copy
import functools
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.registry import component_factory, filter_supported_kwargs, is_registered
from repro.clustering.elbow import select_k_elbow
from repro.clustering.fuzzy import assignment_certainty_batch
from repro.core.distribution import DatasetDistribution
from repro.dataio.sampler import WeightedClusterSampler, cluster_members
from repro.embedding.base import Embedder
from repro.observability.tracing import current_span, trace_span
from repro.storage.document import Document, new_object_ids
from repro.storage.documentdb import Collection, DocumentDB
from repro.storage.capabilities import IndexCapabilities, probe_index_capabilities
from repro.storage.vector_index import appended
from repro.utils.cache import LRUCache, row_digests
from repro.utils.errors import ConfigurationError, NotFittedError, ValidationError
from repro.utils.rng import SeedLike, derive_seed

def _transform64(embedder: Embedder, images: np.ndarray) -> np.ndarray:
    return np.asarray(embedder.transform(images), dtype=np.float64)


def _nonempty64(images: np.ndarray) -> np.ndarray:
    """``images`` as float64, holding at least one sample."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[0] == 0:
        raise ValidationError("images must be non-empty")
    return images


@dataclass
class LookupResult:
    """Labeled data returned by a fairDS pseudo-labeling lookup.

    ``generation`` is the number of the one :class:`_Generation` every part
    of the answer came from (``doc_ids`` are ids in *its* collection).
    """

    images: np.ndarray
    labels: np.ndarray
    doc_ids: List[str]
    input_distribution: DatasetDistribution
    retrieved_distribution: DatasetDistribution
    generation: int

    def __len__(self) -> int:
        return self.images.shape[0]


_NO_ROWS = np.empty(0, dtype=np.intp)


class _SampleCatalog(NamedTuple):
    """The generation's sample table: the one store of fairDS's samples,
    column by column, in write order.

    Row ``i`` is one sample: its id, its payload (``images``, float64: the
    only copy in the process), label (``labels``, float64), metadata (a
    mapping, or ``None``) and cluster id; ``row_of`` maps an id to its row
    and ``members`` lists the rows of each cluster id present.  Only
    :meth:`FairDS._write_samples` extends a table.  The array columns are
    NumPy views of exactly this snapshot's rows, the heads of buffers later
    snapshots grow (:func:`~repro.storage.vector_index.appended`: a view
    handed out stays as it was, so a published snapshot is read without a
    lock while the next is prepared); ``doc_ids``, ``row_of`` and
    ``metadata`` are append-only and shared with later snapshots, of which
    only the first :attr:`size` rows belong to this one.  A refresh's table
    shares generation N's ``images``, ``labels`` and ``metadata`` and gives
    the rows new ids, cluster ids and members.
    """

    doc_ids: List[str]
    row_of: Dict[str, int]
    images: np.ndarray
    labels: np.ndarray
    metadata: List[Optional[Mapping[str, Any]]]
    cluster_ids: np.ndarray
    members: Dict[int, np.ndarray]

    @classmethod
    def empty(cls, images: np.ndarray, labels: np.ndarray) -> "_SampleCatalog":
        """A table with no row yet, for rows shaped like these (the first rows
        appended to its empty views are copied to buffers of their own)."""
        return cls([], {}, images[:0], labels[:0], [], _NO_ROWS, {})

    @property
    def size(self) -> int:
        return self.cluster_ids.size

    def extended(
        self,
        doc_ids: Sequence[str],
        cluster_ids: np.ndarray,
        images: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        metadata: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> "_SampleCatalog":
        """The snapshot after rows ``size ..`` were named ``doc_ids`` with
        these cluster ids, in O(batch + clusters).  With ``images``, those
        rows are appended first, with ``labels`` and a copy of ``metadata``;
        without, the ids name rows the columns already hold.

        Consumes ``self``: the shared lists and buffers grow in place (beyond
        what ``self`` and older snapshots read), so only the newest snapshot
        may be extended, by one thread at a time.  The arrays are appended
        before any list grows, so a raise leaves the shared lists untouched.
        """
        added = np.asarray(cluster_ids, dtype=np.intp)
        extras = [None] * added.size if metadata is None else [dict(extra) for extra in metadata]
        first_row = self.size
        table = self._replace(cluster_ids=appended(self.cluster_ids, added),
                              members=dict(self.members))
        for c, rows in cluster_members(added).items():
            table.members[c] = appended(self.members.get(c, _NO_ROWS), rows + first_row)
        if images is not None:
            table = table._replace(images=appended(self.images, images),
                                   labels=appended(self.labels, labels))
            self.metadata.extend(extras)
        self.doc_ids.extend(doc_ids)
        self.row_of.update(zip(doc_ids, range(first_row, table.size)))
        return table


@dataclass(eq=False)
class _Generation:
    """One published state of the system plane: what one (re)fit produced.

    The first seven fields never change after publication (the index grows
    under :meth:`FairDS.ingest`, and ``collection``, the document view of
    ``catalog``, when read; each safe beside readers).  The last is the slot
    that legitimately moves afterwards: ``catalog``, the sample table,
    replaced whole by every ingest.
    """

    number: int
    embedder: Embedder
    cache: LRUCache
    clusterer: Any  # KMeans-style surface
    collection: Collection
    index: Any
    caps: IndexCapabilities
    catalog: _SampleCatalog


class FairDS:
    """The FAIR data service.

    Parameters
    ----------
    embedder:
        Any :class:`~repro.embedding.base.Embedder`; the paper's default for
        Bragg peaks is BYOL, but PCA keeps tests fast.  The instance is the
        unfitted *template*: every (re)fit trains a deep copy, so a published
        embedder is never refitted under a reader.  The fitted one is
        :attr:`embedder`.
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
        digests: samples the current generation has embedded skip the
        embedder when they come again.  Used only where the embedder declares
        ``memoize`` (:class:`~repro.embedding.base.Embedder`: the network
        embedders do; PCA, cheaper than a digest, does not); ``0`` disables it.
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
    ):
        if isinstance(n_clusters, str):
            if n_clusters != "auto":
                raise ConfigurationError("n_clusters must be an integer or 'auto'")
        elif n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if max_auto_clusters < 2:
            raise ConfigurationError("max_auto_clusters must be >= 2")
        self._template = embedder
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
        self.embedding_cache_size = int(embedding_cache_size)
        self.index_dtype = np.dtype(index_dtype)
        self._lookup_counter = 0
        self._lookup_counter_lock = threading.Lock()
        #: The one piece of published state (``None`` before the first fit):
        #: replaced whole by :meth:`_rebuild`, read once per public read.
        self._generation: Optional[_Generation] = None
        #: Serialises the writers — fit, refresh, ingest, the ``n_probe`` retune.
        self._write_lock = threading.Lock()

    # -- views of the published generation ---------------------------------------
    def _live(self, operation: str) -> _Generation:
        """The published generation — the one read of it a public call makes."""
        gen = self._generation
        if gen is None:
            raise NotFittedError(f"fairDS.{operation}() requires fit() first")
        return gen

    @property
    def generation(self) -> int:
        """Number of the published generation: 0 before the first fit, then
        one more with every :meth:`fit` / :meth:`refresh` that completed."""
        gen = self._generation
        return gen.number if gen is not None else 0

    @property
    def embedder(self) -> Embedder:
        """The fitted embedder (before the first fit, the unfitted template)."""
        gen = self._generation
        return gen.embedder if gen is not None else self._template

    @property
    def collection(self) -> Collection:
        """The published generation's samples as documents (``label``,
        metadata, ``_id``, ``cluster_id``, ``payload`` encoded with the db's
        codec, ``payload_bytes``) in write order, for readers that want them.

        A view of the sample table, which no fairDS operation reads through:
        its first read after a (re)fit builds the documents, and each later
        read appends the rows ingests added since (:meth:`_documents`), with
        no network charge.  ``db.collection(name)`` serves this same object
        until the next refresh.  Read-only to callers.
        """
        gen = self._generation
        return gen.collection if gen is not None else self.db.collection(self.collection_name)

    @property
    def is_fitted(self) -> bool:
        return self._generation is not None

    @property
    def n_clusters(self) -> int:
        return self._live("n_clusters").clusterer.n_clusters

    def store_size(self) -> int:
        gen = self._generation
        return gen.catalog.size if gen is not None else self.collection.count()

    @staticmethod
    def _validate_labelled(
        images: np.ndarray, labels: np.ndarray, metadata: Optional[Sequence[Dict]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        images = _nonempty64(images)
        labels = np.asarray(labels, dtype=np.float64)
        if images.shape[0] != labels.shape[0]:
            raise ValidationError("images and labels must have the same length")
        if metadata is not None and len(metadata) != images.shape[0]:
            raise ValidationError("metadata must match the number of images")
        return images, labels

    def _charge(self, *arrays: np.ndarray) -> None:
        """Bill the network model for the array bytes one read or write moves."""
        network = self.db.network
        if not network.is_free:
            network.charge(sum(array.nbytes for array in arrays))

    @staticmethod
    def _embed(gen: _Generation, images: np.ndarray) -> np.ndarray:
        """Embed ``images``.  Where ``gen`` holds a cache (its embedder
        memoises), samples are keyed by a digest of their raw bytes and only
        misses reach the embedder.  The cache belongs to the generation whose
        embedder filled it, so an embedding computed with an old representation
        — even one put by a thread racing a refresh — lands where no reader of
        the new clustering looks."""
        images = np.asarray(images, dtype=np.float64)
        cache = gen.cache
        if cache.maxsize == 0:
            return _transform64(gen.embedder, images)
        if images.ndim == 1:
            # One flat sample (Embedder.flatten semantics), not a batch of scalars.
            images = images.reshape(1, -1)
        keys = row_digests(images)
        cached = cache.get_many(keys)
        missing = [i for i, hit in enumerate(cached) if hit is None]
        if len(missing) == len(keys):
            embeddings = _transform64(gen.embedder, images)
            cache.put_many(keys, [row.copy() for row in embeddings])
            return embeddings
        if missing:
            fresh = _transform64(gen.embedder, images[missing])
            cache.put_many([keys[i] for i in missing], [row.copy() for row in fresh])
            for row, i in zip(fresh, missing):
                cached[i] = row
        return np.array(cached, dtype=np.float64)

    def embedding_cache_info(self) -> Dict[str, float]:
        """Hit/miss counters of the published generation's embedding cache
        (they restart with every refit; all zeros where it is bypassed)."""
        gen = self._generation
        return (gen.cache if gen is not None else LRUCache(self.embedding_cache_size)).info()

    # -- indexing -----------------------------------------------------------------------
    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Dict]] = None,
        embedder_kwargs: Optional[Dict] = None,
    ) -> "FairDS":
        """Train the embedding + clustering models and populate the data store."""
        images, labels = self._validate_labelled(images, labels, metadata)
        with self._write_lock, trace_span("fairds.fit"):
            self._charge(images, labels)
            return self._rebuild(images, _SampleCatalog.empty(images, labels),
                                 (images, labels, metadata), embedder_kwargs)

    def _rebuild(
        self,
        images: np.ndarray,
        table: _SampleCatalog,
        rows: tuple,
        embedder_kwargs: Optional[Dict],
        carried_clusters: Optional[np.ndarray] = None,
    ) -> "FairDS":
        """Build the next generation from ``images`` and publish it.

        Everything is built aside — a copy of the embedder, a fresh
        clusterer, an empty collection view, a new index — and nothing of the
        published generation is touched, so readers keep answering from it
        and a raise anywhere before the last statements costs nothing.  Caller
        holds the writer lock.  The new generation's sample table is
        ``table`` extended by ``rows`` (:meth:`_write_samples`): at a fit
        ``images`` with their labels and metadata; at a refresh none, the
        table holding ``images`` and naming none of its rows.

        ``carried_clusters`` — the cluster ids generation N gave these
        samples; a refresh passes them, a :meth:`fit` is always cold — warm-
        start the clustering when the refit keeps N's cluster count, none of
        N's clusters is empty and the registered clusterer's ``fit`` takes
        ``init``.  Lloyd then starts from the per-cluster means of the *new*
        embeddings grouped by the old ids (N's partition, not N's centres: a
        rotated or sign-flipped embedding space cannot misplace one), so
        cluster ``i`` of N+1 grew from cluster ``i`` of N and the ids every
        Zoo record's cluster PDF is written in keep their meaning.
        """
        prev = self._generation
        with trace_span("embedder.fit"):
            embedder = copy.deepcopy(prev.embedder if prev is not None else self._template)
            embedder.fit(images, **(embedder_kwargs or {}))
        # The store bypasses the embedding cache: it is embedded once, and
        # would only evict itself.
        with trace_span("embedder.transform"):
            embeddings = _transform64(embedder, images)

        with trace_span("clustering.fit") as span:
            if self._requested_clusters == "auto":
                k_max = min(self.max_auto_clusters, embeddings.shape[0])
                k, _ = select_k_elbow(embeddings, k_min=2, k_max=k_max, seed=derive_seed(self.seed, 1))
            else:
                k = int(self._requested_clusters)
            if embeddings.shape[0] < k:
                raise ValidationError(
                    f"need at least n_clusters={k} samples to fit fairDS, got {embeddings.shape[0]}"
                )
            clusterer = self._make_clusterer(k)
            start: Dict[str, Any] = {}
            if carried_clusters is not None and k == prev.clusterer.n_clusters:
                counts = np.bincount(carried_clusters, minlength=k)
                if counts.size == k and counts.all():
                    sums = [np.bincount(carried_clusters, weights=column, minlength=k)
                            for column in embeddings.T]
                    start = filter_supported_kwargs(
                        clusterer.fit, {"init": np.stack(sums, axis=1) / counts[:, None]}
                    )
            clusterer.fit(embeddings, **start)
            cluster_ids = np.asarray(clusterer.labels_, dtype=np.intp)
            if span is not None:
                span.set_attribute("warm_start", bool(start))
                span.set_attribute("lloyd_iterations", getattr(clusterer, "n_iter_", None))

        with trace_span("store.write"):
            coll = self.db.detached_collection(self.collection_name)
            ids, catalog = self._write_samples(table, cluster_ids, *rows)
        with trace_span("index.build"):
            index, caps = self._make_index(clusterer)
            n_probe = getattr(prev.index, "n_probe", None) if prev is not None else None
            if n_probe is not None and caps.supports_n_probe:
                index.set_n_probe(n_probe)  # a live retune outlives the refit
            self._index_add(index, caps, ids, embeddings, cluster_ids)
        gen = _Generation(
            prev.number + 1 if prev is not None else 1, embedder,
            LRUCache(self.embedding_cache_size if embedder.memoize else 0),
            clusterer, coll, index, caps, catalog,
        )
        coll.source = functools.partial(self._documents, gen)
        # Publication: the (empty) collection view takes over its name, then
        # one reference assignment.  Generation N is simply no longer
        # referenced from here.
        self.db.install(coll)
        self._generation = gen
        span = current_span()
        if span is not None:
            span.set_attribute("generation", gen.number)
        return self

    @staticmethod
    def _documents(gen: _Generation, start: int) -> List[Document]:
        """Rows ``start ..`` of ``gen``'s sample table as documents: the
        source of its collection view (:attr:`collection`)."""
        catalog = gen.catalog
        stop = catalog.size
        blobs = gen.collection.codec.encode_many(catalog.images[start:stop])
        return [
            Document({"label": label, **(extra or {})}, _id=doc_id, cluster_id=cluster_id,
                     payload=blob, payload_bytes=len(blob))
            for label, extra, doc_id, cluster_id, blob in zip(
                catalog.labels[start:stop].tolist(), catalog.metadata[start:stop],
                catalog.doc_ids[start:stop], catalog.cluster_ids[start:stop].tolist(), blobs)
        ]

    @staticmethod
    def _write_samples(
        catalog: _SampleCatalog,
        cluster_ids: np.ndarray,
        images: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        metadata: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> Tuple[List[str], _SampleCatalog]:
        """The only writer of samples: ``catalog`` extended by one row per
        cluster id, each under a fresh id (:meth:`_SampleCatalog.extended`).

        A fit or an ingest passes its ``images``, ``labels`` and ``metadata``
        rows; a refresh passes none, and the ids name the rows its table
        shares with generation N.  No document is built and no codec called:
        :attr:`collection` builds documents when read.  Returns the new ids
        and the extended table.
        """
        ids = new_object_ids(len(cluster_ids))
        return ids, catalog.extended(ids, cluster_ids, images, labels, metadata)

    def _make_clusterer(self, k: int):
        """The clustering model named by ``clustering_algorithm``, through the
        unified component registry.

        ``n_clusters`` (and any ``clustering_params``) are passed always;
        the derived ``seed`` only when the factory's signature accepts it —
        so a custom algorithm that validated at spec time (where no seed is
        offered) constructs identically here.
        """
        factory = component_factory("clustering", self.clustering_algorithm)
        optional = filter_supported_kwargs(factory, {"seed": derive_seed(self.seed, 2)})
        return factory(**{"n_clusters": k, **optional, **self.clustering_params})

    def _make_index(self, clusterer) -> Tuple[Any, IndexCapabilities]:
        """The lookup index named by ``index_backend``, and its probed surface.

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
        centers = np.asarray(clusterer.cluster_centers_, dtype=np.float64)
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
        return index, probe_index_capabilities(index)

    @property
    def index_capabilities(self) -> Optional[IndexCapabilities]:
        """Probed surface of the current index (``None`` before fit)."""
        gen = self._generation
        return gen.caps if gen is not None else None

    @staticmethod
    def _index_add(index, caps: IndexCapabilities, keys: List[str], vectors: np.ndarray,
                   cluster_ids: np.ndarray) -> None:
        if caps.takes_cluster_ids:
            index.add(keys, vectors, cluster_ids)
        else:
            index.add(keys, vectors)

    def _index_query_batch(self, gen: _Generation, vectors: np.ndarray, k: int = 1):
        """Batched lookup against any backend: one ``query_batch`` call when
        the backend has it, a per-row ``query`` loop otherwise."""
        queries = int(np.atleast_2d(vectors).shape[0])
        with trace_span("index.scan", backend=self.index_backend, queries=queries, k=k):
            if gen.caps.supports_query_batch:
                return gen.index.query_batch(vectors, k=k)
            return [gen.index.query(row, k=k) for row in np.atleast_2d(vectors)]

    # -- live index knobs --------------------------------------------------------
    @property
    def index_supports_n_probe(self) -> bool:
        """Whether the index has the live ``n_probe`` knob — read off the
        backend factory before the first fit builds an instance to probe."""
        gen = self._generation
        if gen is not None:
            return gen.caps.supports_n_probe
        factory = component_factory("index", self.index_backend)
        return callable(getattr(factory, "set_n_probe", None))

    def set_index_n_probe(self, n_probe: int) -> int:
        """Atomically retune the index's ``n_probe`` scan width (no rebuild).

        Only supported by backends exposing ``set_n_probe`` (``"ivf"``);
        raises :class:`ConfigurationError` otherwise so a serving knob wired
        to the wrong backend fails loudly, not silently.  Serialised with the
        writers: a retune during a refresh applies to the generation it
        publishes, and every later refit carries the value over.
        """
        with self._write_lock:
            gen = self._live("set_index_n_probe")
            if not gen.caps.supports_n_probe:
                raise ConfigurationError(
                    f"index backend {self.index_backend!r} has no live n_probe knob"
                )
            return int(gen.index.set_n_probe(n_probe))

    @property
    def index_n_probe(self) -> Optional[int]:
        """The index's current ``n_probe`` (``None`` when not applicable)."""
        gen = self._generation
        n_probe = getattr(gen.index, "n_probe", None) if gen is not None else None
        return int(n_probe) if n_probe is not None else None

    def index_stats(self) -> Dict[str, int]:
        """The index's cumulative scan counters (empty when unsupported)."""
        gen = self._generation
        if gen is None or not gen.caps.supports_scan_stats:
            return {}
        return dict(gen.index.scan_stats())

    def ingest(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        metadata: Optional[Sequence[Dict]] = None,
    ) -> List[str]:
        """Add newly labeled data to the store using the existing embedding/clustering.

        Waits for a (re)fit in progress and lands in the generation it publishes.
        """
        with self._write_lock:
            gen = self._live("ingest")
            images, labels = self._validate_labelled(images, labels, metadata)
            catalog = gen.catalog
            if (images.shape[1:], labels.shape[1:]) != (catalog.images.shape[1:],
                                                        catalog.labels.shape[1:]):
                raise ValidationError("images and labels must be shaped like the stored ones")
            embeddings = self._embed(gen, images)
            cluster_ids = np.asarray(gen.clusterer.predict(embeddings), dtype=np.intp)
            self._charge(images, labels)
            # The table is published before the index learns the ids, so
            # every key a scan returns has a row (:meth:`nearest_labeled`).
            ids, gen.catalog = self._write_samples(catalog, cluster_ids, images, labels, metadata)
            self._index_add(gen.index, gen.caps, ids, embeddings, cluster_ids)
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
        return self._distributions(self._live("dataset_distribution_batch"), batches, labels)

    def _distributions(
        self, gen: _Generation, batches: Sequence[np.ndarray], labels: Optional[Sequence[str]]
    ) -> List[DatasetDistribution]:
        if labels is not None and len(labels) != len(batches):
            raise ValidationError("labels must match the number of batches")
        if not len(batches):
            return []
        batches = [_nonempty64(images) for images in batches]  # all refused before any embeds
        embeddings = [self._embed(gen, images) for images in batches]
        cluster_ids = gen.clusterer.predict(np.vstack(embeddings))
        out: List[DatasetDistribution] = []
        start = 0
        for i, emb in enumerate(embeddings):
            label = labels[i] if labels is not None else ""
            out.append(
                DatasetDistribution.from_cluster_ids(
                    cluster_ids[start : start + emb.shape[0]], gen.clusterer.n_clusters, label=label
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
        order.  The draw and the retrieval read the generation's sample table
        (:class:`_SampleCatalog`) — the chosen rows of its cluster-id, image
        and label columns — so a lookup costs O(request + clusters) in Python
        plus one ``rng.choice`` per wanted cluster, whatever the store size,
        and its results are charged to the network model as one read.

        ``n_samples`` may be a single override applied to every dataset, or a
        per-dataset sequence (``None`` entries fall back to the dataset size).
        """
        gen = self._live("lookup")
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

        catalog = gen.catalog
        n_clusters = gen.clusterer.n_clusters
        if max(catalog.members) >= n_clusters:
            raise ValidationError("the store holds a cluster id the fitted clustering does not have")

        distributions = self._distributions(gen, batches, labels)

        # Everything that can fail has happened above, before any sampler
        # seed is consumed — a rejected batch leaves the lookup counter (and
        # thus reproducibility vs N single calls) untouched.  The block of
        # seeds is reserved atomically: concurrent lookups never share one.
        with self._lookup_counter_lock:
            first_counter = self._lookup_counter
            self._lookup_counter += len(batches)

        results: List[LookupResult] = []
        for offset, (distribution, n_out, label) in enumerate(zip(distributions, n_outs, labels)):
            sampler = WeightedClusterSampler(
                catalog.cluster_ids,
                distribution.pdf,
                n_samples=n_out,
                seed=derive_seed(self.seed, 101, first_counter + offset),
                members_by_cluster=catalog.members,
            )
            chosen = list(sampler)
            results.append(
                LookupResult(
                    # Fancy indexing copies: each result owns its rows.
                    images=catalog.images[chosen],
                    labels=catalog.labels[chosen],
                    doc_ids=[catalog.doc_ids[i] for i in chosen],
                    input_distribution=distribution,
                    retrieved_distribution=DatasetDistribution.from_cluster_ids(
                        catalog.cluster_ids[chosen], n_clusters, label=f"{label}:retrieved"
                    ),
                    generation=gen.number,
                )
            )
        self._charge(*(r.images for r in results), *(r.labels for r in results))
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
        in one batched query, and the labels within the threshold read from
        the label column as one store operation.
        """
        gen = self._live("nearest_labeled")
        if threshold is None:
            threshold = np.inf
        elif threshold <= 0:
            raise ValidationError("threshold must be positive")
        embeddings = self._embed(gen, _nonempty64(images))
        hits = [hit for (hit,) in self._index_query_batch(gen, embeddings, k=1)]
        # Read after the scan: an ingest publishes its rows before the index
        # learns their ids, so every key the scan returned has a row here.
        catalog = gen.catalog
        picked = catalog.labels[[catalog.row_of[key] for key, dist in hits if dist < threshold]]
        self._charge(picked)
        found = (picked[i, ...] for i in range(len(picked)))  # arrays, 0-d for scalar labels
        return [(next(found), dist) if dist < threshold else (None, dist) for _, dist in hits]

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
        gen = self._live("certainty_batch")
        batches = [_nonempty64(images) for images in batches]  # all refused before any embeds
        embeddings = [self._embed(gen, images) for images in batches]
        return assignment_certainty_batch(
            embeddings, gen.clusterer.cluster_centers_, m=fuzzifier, confidence=confidence
        )

    def refresh(self, embedder_kwargs: Optional[Dict] = None) -> "FairDS":
        """Retrain the embedding and clustering models from the accumulated store.

        This is the system-plane action fired by the uncertainty trigger: all
        stored samples are re-embedded, the clustering is re-fit, every sample
        gets a new id and cluster id (in a new table, with a new collection
        view), and the lookup index is rebuilt — all of it aside, as
        the next generation, while reads keep answering from this one; a
        refresh that raises leaves this one published, and may be retried.

        Generation N+1 is derived from N's sample table.  *Shared:* N's
        ``images``, ``labels`` and ``metadata`` columns — nothing is decoded,
        encoded or copied; the embedder is refitted on the image column as it
        stands, charged to the network model as one read — and N's partition,
        which warm-starts the clustering when :meth:`_rebuild`'s conditions
        hold, so cluster ids keep their meaning.  *New:* everything fitted or
        derived — embedder, embeddings, centres, ids, cluster ids, members,
        the collection view, index.
        """
        with self._write_lock:
            gen = self._live("refresh")
            with trace_span("fairds.refresh"):
                with trace_span("refresh.read"):
                    catalog = gen.catalog
                    self._charge(catalog.images)
                    table = catalog._replace(
                        doc_ids=[], row_of={}, cluster_ids=_NO_ROWS, members={})
                return self._rebuild(
                    catalog.images, table, (), embedder_kwargs, catalog.cluster_ids)
