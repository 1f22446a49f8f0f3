"""An embedded, MongoDB-like document database.

Implements the subset of MongoDB behaviour fairDS relies on:

* named collections with ``insert_one`` / ``insert_many`` / ``find`` /
  ``find_one`` / ``update_one`` / ``delete_many`` / ``count``,
* equality and range filters (``{"cluster_id": 3}``,
  ``{"scan": {"$gte": 10}}``),
* secondary hash indexes for O(1) equality lookups on indexed fields,
* serialisation of array payloads through a pluggable
  :class:`~repro.storage.codecs.Codec`,
* a readers-writer lock so many DataLoader workers can read concurrently
  while system-plane updates take exclusive write access, and
* an optional :class:`NetworkModel` adding per-operation latency and
  bandwidth-proportional transfer time, which is how the "MongoDB hosted
  remotely over 100 GbE" configuration of Figs. 6-8 is reproduced on a
  single machine.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.storage.codecs import Codec, PickleCodec
from repro.storage.concurrency import ReadWriteLock
from repro.storage.document import Document
from repro.utils.errors import ConfigurationError, StorageError


@dataclass(frozen=True)
class NetworkModel:
    """Simulated network between the client and the (remote) database.

    ``latency_s`` is added once per operation; payload bytes are charged at
    ``bandwidth_bytes_per_s``.  ``NetworkModel.local()`` disables both.
    """

    latency_s: float = 0.0
    bandwidth_bytes_per_s: float = float("inf")

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError("latency_s must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")

    @staticmethod
    def local() -> "NetworkModel":
        return NetworkModel(0.0, float("inf"))

    @property
    def is_free(self) -> bool:
        """True when :meth:`charge` never sleeps, whatever the byte count."""
        return self.latency_s == 0 and not np.isfinite(self.bandwidth_bytes_per_s)

    def charge(self, n_bytes: int) -> None:
        """Sleep for the simulated transfer time of ``n_bytes``."""
        delay = self.latency_s
        if np.isfinite(self.bandwidth_bytes_per_s):
            delay += n_bytes / self.bandwidth_bytes_per_s
        if delay > 0:
            time.sleep(delay)


class Collection:
    """A named collection of documents with optional secondary indexes."""

    def __init__(self, name: str, codec: Codec, network: NetworkModel, lock: ReadWriteLock):
        self.name = name
        self.codec = codec
        self.network = network
        self._lock = lock
        self._docs: Dict[str, Document] = {}
        self._indexes: Dict[str, Dict[Any, set]] = {}
        #: Where a view's documents come from (``None`` for a plain store):
        #: called before every read with the number of documents held, it
        #: returns the ones to append, without calling back into the collection.
        self.source: Optional[Callable[[int], List[Document]]] = None

    @contextmanager
    def _reading(self) -> Iterator[None]:
        """The read lock, taken once what :attr:`source` has pending is in."""
        if self.source is not None:
            with self._lock.write():
                docs = self.source(len(self._docs))
                self._docs.update((doc["_id"], doc) for doc in docs)
                self._index_add(docs)
        with self._lock.read():
            yield

    # -- indexes -----------------------------------------------------------------
    def create_index(self, field: str) -> None:
        """Create (or rebuild) a hash index on ``field``."""
        with self._lock.write():
            index: Dict[Any, set] = defaultdict(set)
            for doc_id, doc in self._docs.items():
                if field in doc:
                    index[doc[field]].add(doc_id)
            self._indexes[field] = dict(index)

    def indexed_fields(self) -> List[str]:
        return sorted(self._indexes)

    def _index_add(self, docs: Sequence[Document]) -> None:
        for field, index in self._indexes.items():
            for doc in docs:
                if field in doc:
                    index.setdefault(doc[field], set()).add(doc["_id"])

    def _index_remove(self, doc: Document) -> None:
        for field, index in self._indexes.items():
            if field in doc and doc[field] in index:
                index[doc[field]].discard(doc.id)
                if not index[doc[field]]:
                    del index[doc[field]]

    # -- writes ------------------------------------------------------------------
    def insert_one(self, data: Mapping[str, Any], payload: Any = None) -> str:
        """Insert a document; ``payload`` (if given) is encoded with the codec."""
        return self.insert_many([data], [payload] if payload is not None else None)[0]

    def insert_many(
        self, datas: Sequence[Mapping[str, Any]], payloads: Optional[Sequence[Any]] = None
    ) -> List[str]:
        """Insert one document per mapping, all or none; returns their ids.

        A :class:`Document` is stored as the object it is (the caller hands it
        over); any other mapping is copied into a new one.  ``payloads`` (one
        per document) are encoded as one batch by the codec.  An empty batch
        changes nothing.
        """
        if payloads is not None and len(payloads) != len(datas):
            raise StorageError("payloads must match datas in length")
        if not len(datas):
            return []
        docs = [data if type(data) is Document else Document(data) for data in datas]
        total_bytes = 0
        if payloads is not None:
            for doc, blob in zip(docs, self.codec.encode_many(payloads)):
                doc["payload"] = blob
                doc["payload_bytes"] = size = len(blob)
                total_bytes += size
        ids = [doc["_id"] for doc in docs]
        self.network.charge(total_bytes)
        with self._lock.write():
            # All or nothing: the batch is checked against the store and
            # against itself before the first document is stored.
            if len(set(ids)) != len(ids) or not self._docs.keys().isdisjoint(ids):
                taken: set = set()
                for doc_id in ids:  # only to name the offender
                    if doc_id in taken or doc_id in self._docs:
                        raise StorageError(f"duplicate _id {doc_id!r}")
                    taken.add(doc_id)
            self._docs.update(zip(ids, docs))
            self._index_add(docs)
        return ids

    def update_one(self, query: Mapping[str, Any], changes: Mapping[str, Any]) -> bool:
        """Update the first document matching ``query``; returns True if found."""
        self.network.charge(0)
        with self._lock.write():
            for doc in self._docs.values():
                if doc.matches(query):
                    self._index_remove(doc)
                    doc.update({k: v for k, v in changes.items() if k != "_id"})
                    self._index_add([doc])
                    return True
        return False

    def upsert_one(
        self, query: Mapping[str, Any], changes: Mapping[str, Any], payload: Any = None
    ) -> str:
        """Update the first document matching ``query``, inserting one when
        none matches; returns the document's id.

        On insert the equality fields of ``query`` seed the new document (the
        Mongo upsert convention), so the document remains findable by the same
        query.  ``payload`` (when given) is encoded with the codec and
        replaces any existing payload.
        """
        blob = self.codec.encode(payload) if payload is not None else None

        def apply(doc: Optional[Dict[str, Any]]) -> Mapping[str, Any]:
            data: Dict[str, Any] = dict(changes)
            if blob is not None:
                data["payload"] = blob
                data["payload_bytes"] = len(blob)
            return data

        return self.transform_one(
            query, apply, charge_bytes=0 if blob is None else len(blob)
        )

    def transform_one(
        self,
        query: Mapping[str, Any],
        transform: "Callable[[Optional[Dict[str, Any]]], Optional[Mapping[str, Any]]]",
        charge_bytes: int = 0,
    ) -> Optional[str]:
        """Atomic read-modify-write of the first document matching ``query``.

        ``transform`` receives a plain-dict copy of the matched document (or
        ``None`` when nothing matches) and returns the new field mapping —
        applied as an update when a document matched, or inserted as a new
        document (seeded with the query's equality fields) when none did.
        Returning ``None`` leaves the collection unchanged, which makes the
        call a consistent read-only snapshot.

        The whole read+transform+write runs under the collection write lock,
        so concurrent callers — including ones holding *different* wrapper
        objects over the same database — cannot interleave and lose updates.
        ``transform`` must not call back into the collection.
        ``charge_bytes`` is billed to the network model (outside the lock).
        """
        self.network.charge(charge_bytes)
        with self._lock.write():
            target = None
            for doc in self._candidates(query):
                if doc.matches(query):
                    target = doc
                    break
            changes = transform(dict(target) if target is not None else None)
            if changes is None:
                return target.id if target is not None else None
            if target is not None:
                self._index_remove(target)
                target.update({k: v for k, v in changes.items() if k != "_id"})
                self._index_add([target])
                return target.id
            data = {k: v for k, v in query.items() if not isinstance(v, Mapping)}
            data.update({k: v for k, v in changes.items() if k != "_id"})
            doc = Document(data)
            self._docs[doc.id] = doc
            self._index_add([doc])
            return doc.id

    def delete_many(self, query: Mapping[str, Any]) -> int:
        self.network.charge(0)
        with self._lock.write():
            doomed = [doc_id for doc_id, doc in self._docs.items() if doc.matches(query)]
            for doc_id in doomed:
                self._index_remove(self._docs[doc_id])
                del self._docs[doc_id]
        return len(doomed)

    # -- reads ---------------------------------------------------------------------
    def _candidates(self, query: Mapping[str, Any]) -> Iterable[Document]:
        # _id equality is the primary key: O(1), no index needed.
        if "_id" in query and not isinstance(query["_id"], Mapping):
            doc = self._docs.get(query["_id"])
            return [doc] if doc is not None else []
        # Use the most selective applicable index for equality terms.
        for field, index in self._indexes.items():
            if field in query and not isinstance(query[field], Mapping):
                ids = index.get(query[field], set())
                return [self._docs[i] for i in ids if i in self._docs]
        return list(self._docs.values())

    def find(
        self,
        query: Optional[Mapping[str, Any]] = None,
        limit: Optional[int] = None,
        decode_payload: bool = False,
    ) -> List[Document]:
        """Return documents matching ``query`` (all documents if ``None``)."""
        with self._reading():
            if query:
                matches = [doc for doc in self._candidates(query) if doc.matches(query)]
            else:
                # The empty filter keeps every document: no per-document test.
                matches = list(self._docs.values())
        if limit is not None:
            matches = matches[:limit]
        if not self.network.is_free:
            self.network.charge(sum(doc.get("payload_bytes", 0) for doc in matches))
        if decode_payload:
            out = []
            for doc in matches:
                copy = Document(dict(doc))
                if "payload" in copy:
                    copy["payload"] = self.codec.decode(copy["payload"])
                out.append(copy)
            return out
        return matches

    def snapshot_one(self, query: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """A consistent metadata copy of the first document matching ``query``.

        The copy is taken under the read lock (writers are excluded, other
        readers are not), so — unlike reading fields off the live
        :class:`Document` that :meth:`find_one` returns — a concurrent
        multi-field update can never be observed half-applied.  The raw
        payload is omitted (``payload_bytes`` is kept) and no transfer is
        charged: this is the cheap read for callers that only need fields,
        e.g. reading one metric off a model record without downloading the
        model.
        """
        self.network.charge(0)
        with self._reading():
            for doc in self._candidates(query):
                if doc.matches(query):
                    return {k: v for k, v in doc.items() if k != "payload"}
        return None

    def find_one(self, query: Optional[Mapping[str, Any]] = None, decode_payload: bool = False) -> Optional[Document]:
        results = self.find(query, limit=1, decode_payload=decode_payload)
        return results[0] if results else None

    def get(self, doc_id: str, decode_payload: bool = False) -> Document:
        with self._reading():
            doc = self._docs.get(doc_id)
        if doc is None:
            raise StorageError(f"document {doc_id!r} not found in {self.name!r}")
        self.network.charge(doc.get("payload_bytes", 0))
        if decode_payload and "payload" in doc:
            copy = Document(dict(doc))
            copy["payload"] = self.codec.decode(copy["payload"])
            return copy
        return doc

    def get_many(self, doc_ids: Sequence[str]) -> List[Document]:
        """The documents of ``doc_ids``, in order, as one store operation: one
        read-lock pass and one network charge of their summed payload bytes
        (against one of each per document through :meth:`get`)."""
        with self._reading():
            docs = []
            for doc_id in doc_ids:
                doc = self._docs.get(doc_id)
                if doc is None:
                    raise StorageError(f"document {doc_id!r} not found in {self.name!r}")
                docs.append(doc)
        self.network.charge(sum(d.get("payload_bytes", 0) for d in docs))
        return docs

    def fetch_payloads(self, doc_ids: Sequence[str]) -> List[Any]:
        """Decode the payloads of the given document ids (training fetch path)."""
        docs = self.get_many(doc_ids)
        return [self.codec.decode(d["payload"]) if "payload" in d else None for d in docs]

    def ids(self) -> List[str]:
        with self._reading():
            return list(self._docs.keys())

    def count(self, query: Optional[Mapping[str, Any]] = None) -> int:
        """Number of matching documents.  A metadata operation: unlike
        :meth:`find`, no payload transfer is charged to the network model."""
        if not query:
            with self._reading():
                return len(self._docs)
        self.network.charge(0)
        with self._reading():
            return sum(1 for doc in self._candidates(query) if doc.matches(query))

    def storage_bytes(self) -> int:
        with self._reading():
            return sum(doc.get("payload_bytes", 0) for doc in self._docs.values())


class DocumentDB:
    """A database holding named collections, sharing a codec and network model."""

    def __init__(self, codec: Optional[Codec] = None, network: Optional[NetworkModel] = None):
        self.codec = codec or PickleCodec()
        self.network = network or NetworkModel.local()
        self._collections: Dict[str, Collection] = {}
        self._lock = ReadWriteLock()

    def collection(self, name: str) -> Collection:
        """Get (creating if needed) the collection called ``name``."""
        existing = self._collections.get(name)
        return existing if existing is not None else self.install(self.detached_collection(name))

    def detached_collection(self, name: str) -> Collection:
        """A new, empty collection called ``name`` that this database does
        not serve yet: it can be filled aside while :meth:`collection` keeps
        answering with the current one, then handed to :meth:`install`."""
        if not name:
            raise ConfigurationError("collection name must be non-empty")
        return Collection(name, self.codec, self.network, ReadWriteLock())

    def install(self, collection: Collection) -> Collection:
        """Serve ``collection`` under its name, in place of whichever one held
        it: one dict assignment, so no reader finds the name unbound."""
        self._collections[collection.name] = collection
        return collection

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {"documents": coll.count(), "payload_bytes": coll.storage_bytes()}
            for name, coll in self._collections.items()
        }

    def storage_bytes(self) -> int:
        """Total payload bytes across all collections (StorageBackend protocol)."""
        return sum(coll.storage_bytes() for coll in self._collections.values())

    # -- persistence -----------------------------------------------------------------
    def save(self, path: str) -> int:
        """Persist every collection (documents + indexes) to ``path``.

        Returns the number of documents written.  The codec and network model
        are *not* persisted — they are runtime configuration supplied when the
        database is re-opened.
        """
        snapshot: Dict[str, Dict[str, Any]] = {}
        total = 0
        for name, coll in self._collections.items():
            with coll._reading():
                docs = [dict(doc) for doc in coll._docs.values()]
            snapshot[name] = {"documents": docs, "indexes": coll.indexed_fields()}
            total += len(docs)
        payload = pickle.dumps({"version": 1, "collections": snapshot},
                               protocol=pickle.HIGHEST_PROTOCOL)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(payload)
        return total

    @classmethod
    def load(cls, path: str, codec: Optional[Codec] = None,
             network: Optional[NetworkModel] = None) -> "DocumentDB":
        """Re-open a database previously written with :meth:`save`."""
        target = Path(path)
        if not target.exists():
            raise StorageError(f"no database snapshot at {path!r}")
        try:
            payload = pickle.loads(target.read_bytes())
        except Exception as exc:
            raise StorageError(f"failed to read database snapshot: {exc}") from exc
        if not isinstance(payload, dict) or "collections" not in payload:
            raise StorageError("malformed database snapshot")
        db = cls(codec=codec, network=network)
        for name, content in payload["collections"].items():
            coll = db.collection(name)
            with coll._lock.write():
                for doc in content["documents"]:
                    restored = Document(doc)
                    coll._docs[restored.id] = restored
            for field in content.get("indexes", []):
                coll.create_index(field)
        return db
