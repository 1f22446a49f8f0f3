"""Storage substrate: an embedded document database and an NFS-like file store.

The paper stores labeled historical data in MongoDB (serialised with Pickle or
Blosc) and compares training-time I/O against reading files directly from NFS
(Figs. 6-8).  This package rebuilds that stack in-process:

* :mod:`repro.storage.codecs` — pluggable serialisers (``pickle``, ``blosc``
  — zlib-compressed pickle standing in for Blosc, ``raw`` ndarray bytes).
* :mod:`repro.storage.document` — document model with generated object ids.
* :mod:`repro.storage.documentdb` — a MongoDB-like embedded database:
  named collections, ``insert_many`` / ``find`` with field filters /
  ``update`` / ``delete``, secondary hash indexes, reader-writer locking for
  concurrent reads during training and writes during data updates, and an
  optional simulated network latency per fetch (the remote-MongoDB effect the
  paper measures).
* :mod:`repro.storage.file_store` — an NFS-like store keeping each sample as
  an ``.npy`` file on the local filesystem.
* :mod:`repro.storage.vector_index` — exact and cluster-partitioned
  nearest-neighbour lookup over embedding vectors, stored contiguously and
  queried a whole batch at a time.
* :mod:`repro.storage.ivf_index` — the self-training IVF approximate index:
  coarse-quantized inverted lists with a live ``n_probe`` knob.
* :mod:`repro.storage.capabilities` — the ``StorageBackend``/``IndexBackend``
  protocols and one-shot capability probing
  (:func:`~repro.storage.capabilities.probe_index_capabilities`).

Backends are constructed by name through the package-wide registry —
``create_component("index", "flat", dim=16)``,
``create_component("storage", "documentdb", codec="blosc")`` (see
:mod:`repro.api.registry`) — so benchmarks and services pick their stack from
config.
"""

from repro.storage.codecs import (
    Codec,
    PickleCodec,
    CompressedCodec,
    RawArrayCodec,
    get_codec,
)
from repro.storage.concurrency import ReadWriteLock
from repro.storage.document import Document, new_object_id
from repro.storage.documentdb import Collection, DocumentDB, NetworkModel
from repro.storage.file_store import FileStore
from repro.storage.capabilities import (
    IndexBackend,
    IndexCapabilities,
    StorageBackend,
    probe_index_capabilities,
)
from repro.storage.ivf_index import IVFVectorIndex
from repro.storage.vector_index import VectorIndex, ClusteredVectorIndex

__all__ = [
    "IndexBackend",
    "IndexCapabilities",
    "probe_index_capabilities",
    "StorageBackend",
    "ReadWriteLock",
    "Codec",
    "PickleCodec",
    "CompressedCodec",
    "RawArrayCodec",
    "get_codec",
    "Document",
    "new_object_id",
    "Collection",
    "DocumentDB",
    "NetworkModel",
    "FileStore",
    "VectorIndex",
    "ClusteredVectorIndex",
    "IVFVectorIndex",
]
