"""Tests for the storage substrate: codecs, document DB, file store, vector indexes."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.codecs import (
    CompressedCodec,
    PickleCodec,
    RawArrayCodec,
    get_codec,
    register_codec,
    Codec,
)
from repro.storage.concurrency import ReadWriteLock
from repro.storage.document import Document, new_object_id, new_object_ids
from repro.storage.documentdb import DocumentDB, NetworkModel
from repro.storage.file_store import FileStore
from repro.storage.vector_index import ClusteredVectorIndex, VectorIndex, appended
from repro.utils.errors import ConfigurationError, StorageError, ValidationError


# -- codecs ---------------------------------------------------------------------
@pytest.mark.parametrize("codec", [PickleCodec(), CompressedCodec(), RawArrayCodec()])
def test_codec_roundtrip_array(codec, rng):
    arr = rng.normal(size=(7, 5)).astype(np.float32)
    out = codec.decode(codec.encode(arr))
    np.testing.assert_array_equal(out, arr)
    assert out.dtype == arr.dtype


def test_compressed_codec_is_smaller_for_redundant_data():
    arr = np.zeros((256, 256))
    assert len(CompressedCodec().encode(arr)) < len(PickleCodec().encode(arr))


def test_compressed_codec_invalid_level():
    with pytest.raises(ConfigurationError):
        CompressedCodec(level=99)


def test_raw_codec_rejects_garbage():
    with pytest.raises(StorageError):
        RawArrayCodec().decode(b"xx")


def test_pickle_codec_rejects_non_bytes():
    with pytest.raises(StorageError):
        PickleCodec().decode(123)  # type: ignore[arg-type]


def test_get_codec_by_name():
    assert isinstance(get_codec("pickle"), PickleCodec)
    assert isinstance(get_codec("blosc"), CompressedCodec)
    assert isinstance(get_codec("raw"), RawArrayCodec)
    with pytest.raises(ConfigurationError):
        get_codec("nope")


def test_register_custom_codec():
    class UpperCodec(Codec):
        name = "upper"

        def encode(self, obj):
            return str(obj).upper().encode()

        def decode(self, payload):
            return payload.decode()

    register_codec(UpperCodec)
    assert get_codec("upper").encode("hi") == b"HI"


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    seed=st.integers(0, 1000),
)
def test_codec_roundtrip_property(shape, seed):
    arr = np.random.default_rng(seed).normal(size=shape)
    for codec in (PickleCodec(), CompressedCodec(), RawArrayCodec()):
        np.testing.assert_array_equal(codec.decode(codec.encode(arr)), arr)


# -- codecs: a batch encoded at once ----------------------------------------------------
_FUZZ_DTYPES = ["f8", "f4", ">f8", "i2", "u1", "?", "c8", "M8[s]", "i4,f4", "O"]


def _fuzz_array(rng, dtype, shape, layout):
    """An array of ``dtype`` and ``shape`` in one of four memory layouts."""
    if layout == "strided":  # every other column of a wider array
        shape = shape[:-1] + (2 * shape[-1],) if shape else shape
    raw = rng.integers(0, 256, size=int(np.prod(shape)) * np.dtype(dtype).itemsize or 1)
    if dtype == "O":
        arr = np.array([{"n": int(v)} for v in raw[: int(np.prod(shape))]], dtype=object)
    else:
        arr = raw.astype(np.uint8)[: int(np.prod(shape)) * np.dtype(dtype).itemsize].view(dtype)
    arr = arr.reshape(shape)
    if layout == "fortran":
        arr = np.asfortranarray(arr)
    elif layout == "strided" and shape:
        arr = arr[..., ::2]
    elif layout == "readonly":
        arr.flags.writeable = False
    return arr


def _assert_encodes_like_the_loop(codec, payloads):
    """``encode_many`` against the loop it replaces, byte for byte, and back
    through ``decode`` to the payloads; returns the blobs."""
    want = [codec.encode(payload) for payload in payloads]
    blobs = codec.encode_many(payloads)
    assert isinstance(blobs, list) and all(type(blob) is bytes for blob in blobs)
    assert blobs == want
    back = [codec.decode(blob) for blob in blobs]
    for one, payload in zip(back, payloads):
        # (Through ``__reduce__`` — strided, subclass — NumPy itself brings a
        # big-endian array back as a native one.)
        if type(payload) is np.ndarray and not payload.dtype.hasobject \
                and payload.flags.c_contiguous:
            assert one.dtype == payload.dtype and one.shape == payload.shape
            assert one.tobytes() == payload.tobytes()
    return blobs


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from(_FUZZ_DTYPES),
    shape=st.lists(st.integers(0, 4), min_size=0, max_size=4).map(tuple),
    layout=st.sampled_from(["c", "fortran", "strided", "readonly"]),
    n=st.integers(1, 7),
    form=st.sampled_from(["stack", "views", "arrays"]),
    odd=st.none() | st.sampled_from(
        ["shape", "dtype", "layout", "readonly", "object", "scalar", "text", "subclass"]),
    odd_at=st.integers(0, 6),
    seed=st.integers(0, 10**6),
)
def test_encode_many_is_the_encode_loop(dtype, shape, layout, n, form, odd, odd_at, seed):
    rng = np.random.default_rng(seed)
    if form == "arrays":  # separately made arrays, each its own memory
        payloads = [_fuzz_array(rng, dtype, shape, layout) for _ in range(n)]
    else:  # one array of n rows, handed over whole or as a list of its rows
        payloads = _fuzz_array(rng, dtype, (n,) + shape, layout)
        if form == "views":
            payloads = list(payloads)
    if odd is not None and form != "stack":  # one payload is not like the others
        like = payloads[0]
        readonly = np.array(like)
        readonly.flags.writeable = not like.flags.writeable if isinstance(like, np.ndarray) else False
        payloads[odd_at % n] = {
            "shape": _fuzz_array(rng, dtype, shape + (2,), layout),
            "dtype": _fuzz_array(rng, "i8", shape, layout),
            "layout": _fuzz_array(rng, dtype, shape, "fortran" if layout != "fortran" else "c"),
            "readonly": readonly,
            "object": _fuzz_array(rng, "O", shape, "c"),
            "scalar": np.float64(rng.normal()),
            "text": {"not": "an array", "n": int(rng.integers(9))},
            "subclass": np.array(like).view(np.recarray if np.array(like).dtype.names else np.matrix)
            if np.array(like).ndim == 2 else np.array(like).view(_Tagged),
        }[odd]
    _assert_encodes_like_the_loop(PickleCodec(), payloads)


class _Tagged(np.ndarray):
    """An ndarray subclass: pickles through ``__reduce__``, not as a buffer."""


def test_encode_many_splices_what_it_can_and_loops_over_the_rest(rng, tmp_path, monkeypatch):
    codec = PickleCodec()
    patches = rng.normal(size=(9, 5, 5))
    calls = []
    real = PickleCodec.encode
    monkeypatch.setattr(PickleCodec, "encode",
                        lambda self, obj: calls.append(1) or real(self, obj))

    def pickled(payloads):
        """How many objects ``encode_many(payloads)`` pickled one by one."""
        del calls[:]
        got = codec.encode_many(payloads)
        spent = len(calls)
        assert got == [real(codec, payload) for payload in payloads]
        return spent

    # The first two rows are pickled — one to find the buffer, one to prove
    # the splice — whether the batch is a stack, its row views or twins.
    assert pickled(patches) == pickled(list(patches)) == 2
    assert pickled([patch.copy() for patch in patches]) == 2
    frozen = patches.copy()
    frozen.flags.writeable = False
    assert pickled(frozen) == 2 and codec.encode_many(frozen) != codec.encode_many(patches)
    assert pickled(patches.astype(">f4")) == pickled(patches[:, None, :, :]) == 2
    assert pickled(rng.normal(size=(4, 3))) == 2  # 1-d rows
    # Batches of none, one and two gain nothing from a splice: the loop.
    assert codec.encode_many([]) == [] and codec.encode_many(patches[:0]) == []
    assert pickled(patches[:1]) == 1 and pickled(patches[:2]) == 2
    # Rows that pickle differently from one another, or not as one buffer.
    mixed_flags = list(patches)
    mixed_flags[4] = frozen[4]
    views = patches.view(_Tagged)
    memmap = np.memmap(tmp_path / "rows.bin", dtype=np.float64, mode="w+", shape=(4, 6))
    memmap[:] = rng.normal(size=(4, 6))
    for odd in (mixed_flags, patches[:, :, ::2], np.asfortranarray(patches).T.copy().T,
                list(patches[:3]) + [patches[3].astype(np.float32)],
                list(patches[:3]) + [patches[3][:4]], views, list(views), memmap, list(memmap),
                np.zeros((4, 0)), rng.normal(size=4), [np.array(v) for v in rng.normal(size=4)][:2],
                np.array([[{"a": 1}] * 2] * 4, dtype=object), [1, "two", None, 4.0]):
        assert pickled(odd) == len(odd)
    # 0-d arrays carry a buffer like any other and are spliced.
    assert pickled([np.array(v) for v in rng.normal(size=5)]) == 2
    # The first patch's pixels repeat the pickle's own first bytes (every
    # protocol-5 pickle starts 80 05): the buffer is found twice, so the loop.
    header = np.frombuffer(real(codec, patches[0])[:2], dtype=np.uint8)
    echo = np.stack([header, header + 1, header + 2, header + 3])
    assert real(codec, echo[0]).count(echo[0].tobytes()) == 2
    assert pickled(echo) == 1 + 4  # the first row once to look, then every row
    # Any other codec encodes object by object, the default.
    squeezed = CompressedCodec()
    assert squeezed.encode_many(patches) == [squeezed.encode(patch) for patch in patches]
    assert RawArrayCodec().encode_many(patches) == [RawArrayCodec().encode(p) for p in patches]


# -- Document ---------------------------------------------------------------------
def test_document_assigns_unique_ids():
    a, b = Document({"x": 1}), Document({"x": 2})
    assert a.id != b.id
    assert a["x"] == 1
    assert a.without_id() == {"x": 1}


def test_new_object_ids_unique_under_threads():
    ids = []
    lock = threading.Lock()

    def gen():
        for _ in range(200):
            mine = [new_object_id()] + new_object_ids(3)  # singly and by the block
            with lock:
                ids.extend(mine)

    threads = [threading.Thread(target=gen) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ids) == len(set(ids)) == 4 * 200 * 4
    assert new_object_ids(0) == []
    block = new_object_ids(5)
    assert block == sorted(block)  # time-ordered within a block too


def test_document_matches_equality_and_ranges():
    doc = Document({"cluster": 3, "scan": 17})
    assert doc.matches({"cluster": 3})
    assert not doc.matches({"cluster": 4})
    assert doc.matches({"scan": {"$gte": 10, "$lte": 20}})
    assert not doc.matches({"scan": {"$gt": 17}})
    assert doc.matches({"scan": {"$in": [17, 18]}})
    assert doc.matches({"scan": {"$ne": 4}})
    assert not doc.matches({"missing": 1})


def test_document_rejects_non_mapping():
    with pytest.raises(ValidationError):
        Document([1, 2, 3])  # type: ignore[arg-type]


# -- ReadWriteLock ------------------------------------------------------------------
def test_rwlock_allows_concurrent_readers():
    lock = ReadWriteLock()
    active = []

    def reader():
        with lock.read():
            active.append(1)
            time.sleep(0.05)
            active.pop()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    peak = 0

    def watcher():
        nonlocal peak
        for _ in range(50):
            peak = max(peak, len(active))
            time.sleep(0.005)

    w = threading.Thread(target=watcher)
    w.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    w.join()
    assert peak >= 2


def test_rwlock_writer_excludes_readers():
    lock = ReadWriteLock()
    log = []

    def writer():
        with lock.write():
            log.append("w-start")
            time.sleep(0.05)
            log.append("w-end")

    def reader():
        time.sleep(0.01)
        with lock.read():
            log.append("r")

    tw = threading.Thread(target=writer)
    tr = threading.Thread(target=reader)
    tw.start()
    tr.start()
    tw.join()
    tr.join()
    assert log.index("w-end") < log.index("r")


# -- DocumentDB -------------------------------------------------------------------------
def _populated_collection(codec_name="pickle", n=20):
    db = DocumentDB(codec=get_codec(codec_name))
    coll = db.collection("bragg")
    rng = np.random.default_rng(0)
    metas = [{"cluster_id": int(i % 4), "scan": int(i), "label": [float(i), float(i)]} for i in range(n)]
    payloads = [rng.normal(size=(15, 15)) for _ in range(n)]
    coll.insert_many(metas, payloads)
    return db, coll, payloads


def test_insert_and_count():
    _, coll, _ = _populated_collection()
    assert coll.count() == 20
    assert coll.count({"cluster_id": 1}) == 5


def test_find_with_filters_and_limit():
    _, coll, _ = _populated_collection()
    docs = coll.find({"scan": {"$gte": 15}})
    assert len(docs) == 5
    limited = coll.find({}, limit=3)
    assert len(limited) == 3


def test_find_everything_skips_the_per_document_filter(monkeypatch):
    """``find()`` / ``find({})`` test no document and, on a network that
    charges nothing, add up no payload sizes; what they return is unchanged."""
    _, coll, payloads = _populated_collection()
    everything = coll.find({"scan": {"$gte": 0}})
    calls = []
    real_matches = Document.matches
    monkeypatch.setattr(
        Document, "matches", lambda self, query: calls.append(query) or real_matches(self, query)
    )
    charged = []
    monkeypatch.setattr(NetworkModel, "charge", lambda self, n_bytes: charged.append(n_bytes))
    for query in (None, {}):
        found = coll.find(query)
        assert [d.id for d in found] == coll.ids()
        assert all(a is b for a, b in zip(found, everything))
    assert [d.id for d in coll.find({}, limit=3)] == coll.ids()[:3]
    assert coll.find(limit=0) == []
    decoded = coll.find(decode_payload=True)
    for doc, want in zip(decoded, payloads):
        np.testing.assert_array_equal(doc["payload"], want)
    assert coll.find_one().id == coll.ids()[0]
    assert calls == [] and charged == []
    assert len(coll.find({"cluster_id": 1})) == 5 and len(calls) == 20


def test_find_everything_still_charges_a_network_that_bills(monkeypatch):
    db = DocumentDB(network=NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=1e12))
    coll = db.collection("c")
    coll.insert_many([{"i": i} for i in range(6)], [np.zeros(8) for _ in range(6)])
    assert NetworkModel.local().is_free
    assert not db.network.is_free and not NetworkModel(latency_s=1e-4).is_free
    charged = []
    monkeypatch.setattr(NetworkModel, "charge", lambda self, n_bytes: charged.append(n_bytes))
    coll.find()
    coll.find({}, limit=2)
    assert charged == [coll.storage_bytes(), coll.storage_bytes() // 3]


def test_find_decode_payload_roundtrip():
    _, coll, payloads = _populated_collection("blosc")
    doc = coll.find_one({"scan": 7}, decode_payload=True)
    np.testing.assert_allclose(doc["payload"], payloads[7])


def test_get_and_fetch_payloads():
    _, coll, payloads = _populated_collection()
    ids = coll.ids()
    fetched = coll.fetch_payloads(ids[:5])
    for got, want in zip(fetched, payloads[:5]):
        np.testing.assert_allclose(got, want)
    with pytest.raises(StorageError):
        coll.get("missing-id")
    with pytest.raises(StorageError):
        coll.fetch_payloads(["missing-id"])


def test_get_many_is_one_store_operation(monkeypatch):
    _, coll, _ = _populated_collection()
    ids = coll.ids()
    wanted = [ids[7], ids[2], ids[7]]
    charged = []
    monkeypatch.setattr(NetworkModel, "charge", lambda self, n_bytes: charged.append(n_bytes))
    docs = coll.get_many(wanted)
    assert [doc.id for doc in docs] == wanted
    assert all(doc is coll.get(doc_id) for doc, doc_id in zip(docs, wanted))
    # one charge of the summed bytes, where three get() calls charge thrice
    assert charged[0] == sum(charged[1:]) and len(charged) == 4
    assert coll.get_many([]) == []
    with pytest.raises(StorageError, match="missing-id"):
        coll.get_many([ids[0], "missing-id"])


def test_secondary_index_used_for_equality_queries():
    _, coll, _ = _populated_collection()
    coll.create_index("cluster_id")
    assert coll.indexed_fields() == ["cluster_id"]
    docs = coll.find({"cluster_id": 2})
    assert len(docs) == 5
    assert all(d["cluster_id"] == 2 for d in docs)


def test_index_stays_consistent_after_update_and_delete():
    _, coll, _ = _populated_collection()
    coll.create_index("cluster_id")
    assert coll.update_one({"scan": 3}, {"cluster_id": 99})
    assert coll.count({"cluster_id": 99}) == 1
    deleted = coll.delete_many({"cluster_id": 99})
    assert deleted == 1
    assert coll.count({"cluster_id": 99}) == 0
    assert coll.count() == 19


def test_update_one_missing_returns_false():
    _, coll, _ = _populated_collection()
    assert not coll.update_one({"scan": 12345}, {"cluster_id": 1})


def test_insert_many_payload_length_mismatch():
    db = DocumentDB()
    with pytest.raises(StorageError):
        db.collection("x").insert_many([{"a": 1}], [np.zeros(2), np.zeros(2)])


@pytest.mark.parametrize("clash", ["with the store", "within the batch"])
def test_insert_many_rejects_a_duplicate_id_before_it_stores_anything(clash):
    _, coll, _ = _populated_collection()
    coll.create_index("cluster_id")
    before = (coll.count(), coll.ids(), {c: len(coll.find({"cluster_id": c})) for c in range(5)})
    twin = coll.ids()[3] if clash == "with the store" else "fresh-1"
    batch = [{"_id": "fresh-0", "cluster_id": 0}, {"_id": "fresh-1", "cluster_id": 1},
             {"_id": twin, "cluster_id": 2}]
    with pytest.raises(StorageError, match=f"duplicate _id '{twin}'"):
        coll.insert_many(batch, [np.zeros(2)] * 3)
    after = (coll.count(), coll.ids(), {c: len(coll.find({"cluster_id": c})) for c in range(5)})
    assert after == before
    assert coll.find({"_id": "fresh-0"}) == []
    # The same batch without the clash goes in whole.
    batch[2]["_id"] = "fresh-2"
    assert coll.insert_many(batch) == ["fresh-0", "fresh-1", "fresh-2"]
    assert coll.count() == before[0] + 3


def test_insert_many_takes_documents_dicts_and_dicts_without_an_id():
    db = DocumentDB()
    coll = db.collection("x")
    coll.create_index("cluster_id")
    handed = Document({"_id": "d-0", "cluster_id": 1, "label": [0.0]})
    plain = {"_id": "d-1", "cluster_id": 1}
    anonymous = {"cluster_id": 2}
    payloads = np.arange(12.0).reshape(3, 4)
    ids = coll.insert_many([handed, plain, anonymous], payloads)
    assert ids[:2] == ["d-0", "d-1"] and ids[2] not in ("d-0", "d-1") and coll.count() == 3
    # A Document is stored as the object it is; a plain mapping is copied.
    assert coll.get("d-0") is handed and coll.get("d-1") is not plain
    assert "payload" not in plain and "_id" not in anonymous
    assert [doc["payload"] for doc in coll.get_many(ids)] == [
        coll.codec.encode(row) for row in payloads]
    assert [doc["payload_bytes"] for doc in coll.get_many(ids)] == [
        len(coll.codec.encode(row)) for row in payloads]
    assert sorted(doc.id for doc in coll.find({"cluster_id": 1})) == ["d-0", "d-1"]
    assert [doc.id for doc in coll.find({"cluster_id": 2})] == [ids[2]]
    # The same plain rows go in again under fresh ids; the last id of a batch
    # clashing with its first is refused whole, naming the id.
    assert coll.insert_many([anonymous, anonymous])[0] != ids[2] and coll.count() == 5
    stored = coll.ids()
    with pytest.raises(StorageError, match="duplicate _id 'e-0'"):
        coll.insert_many([Document({"_id": "e-0"}), {"cluster_id": 3}, {"_id": "e-0"}])
    assert coll.count() == 5 and coll.ids() == stored and coll.find({"cluster_id": 3}) == []


def test_insert_many_of_nothing_changes_nothing():
    _, coll, _ = _populated_collection()
    coll.create_index("cluster_id")
    before = (coll.count(), coll.ids(), len(coll.find({"cluster_id": 1})))
    assert coll.insert_many([]) == [] and coll.insert_many([], []) == []
    assert coll.insert_many((), np.empty((0, 3))) == []
    assert (coll.count(), coll.ids(), len(coll.find({"cluster_id": 1}))) == before
    with pytest.raises(StorageError, match="payloads must match"):
        coll.insert_many([], [np.zeros(2)])


def test_insert_many_charges_the_network_once_with_every_encoded_byte(monkeypatch):
    db = DocumentDB()
    coll = db.collection("x")
    charged = []
    monkeypatch.setattr(NetworkModel, "charge", lambda self, n_bytes: charged.append(n_bytes))
    patches = np.random.default_rng(5).normal(size=(6, 4, 4))
    coll.insert_many([{"i": i} for i in range(6)], patches)
    coll.insert_many([{"i": i} for i in range(6)], list(patches))
    coll.insert_many([{"i": 0}])
    each = sum(len(coll.codec.encode(patch)) for patch in patches)
    assert charged == [each, each, 0]
    assert coll.storage_bytes() == 2 * each


def test_db_collection_management():
    db = DocumentDB()
    db.collection("a").insert_one({"k": 1}, payload=np.zeros(3))
    db.collection("b")
    assert db.collection_names() == ["a", "b"]
    stats = db.stats()
    assert stats["a"]["documents"] == 1
    assert stats["a"]["payload_bytes"] > 0
    db.drop_collection("a")
    assert db.collection_names() == ["b"]
    with pytest.raises(ConfigurationError):
        db.collection("")


def test_detached_collection_is_served_only_once_installed():
    db = DocumentDB()
    served = db.collection("a")
    served.insert_one({"k": 1})
    aside = db.detached_collection("a")
    aside.insert_many([{"k": 2}, {"k": 3}])
    assert db.collection("a") is served and db.collection_names() == ["a"]
    assert db.install(aside) is aside
    assert db.collection("a") is aside and db.collection_names() == ["a"]
    assert served.count() == 1 and aside.count() == 2  # the old one is merely unserved
    with pytest.raises(ConfigurationError):
        db.detached_collection("")


def test_network_model_latency_slows_fetches():
    fast_db = DocumentDB(network=NetworkModel.local())
    slow_db = DocumentDB(network=NetworkModel(latency_s=0.002))
    for db in (fast_db, slow_db):
        db.collection("c").insert_many(
            [{"i": i} for i in range(10)], [np.zeros(4) for _ in range(10)]
        )
    start = time.perf_counter()
    fast_db.collection("c").fetch_payloads(fast_db.collection("c").ids())
    fast_time = time.perf_counter() - start
    start = time.perf_counter()
    slow_db.collection("c").fetch_payloads(slow_db.collection("c").ids())
    slow_time = time.perf_counter() - start
    assert slow_time > fast_time


def test_network_model_validation():
    with pytest.raises(ConfigurationError):
        NetworkModel(latency_s=-1)
    with pytest.raises(ConfigurationError):
        NetworkModel(bandwidth_bytes_per_s=0)


def test_concurrent_reads_during_writes_are_safe():
    db, coll, _ = _populated_collection(n=50)
    errors = []

    def reader():
        try:
            for _ in range(30):
                coll.find({"cluster_id": 1})
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def writer():
        try:
            for i in range(30):
                coll.insert_one({"cluster_id": 1, "scan": 1000 + i, "label": [0, 0]},
                                payload=np.zeros((4, 4)))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)] + [threading.Thread(target=writer)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert coll.count({"cluster_id": 1}) >= 5 + 30


# -- FileStore -------------------------------------------------------------------------------
def test_file_store_roundtrip(rng):
    with FileStore() as store:
        arrays = [rng.normal(size=(8, 8)) for _ in range(5)]
        idxs = store.write_many(arrays)
        assert idxs == [0, 1, 2, 3, 4]
        assert len(store) == 5
        np.testing.assert_allclose(store.read(3), arrays[3])
        batch = store.read_many([0, 4])
        np.testing.assert_allclose(batch[1], arrays[4])
        assert store.storage_bytes() > 0


def test_file_store_missing_sample_raises():
    with FileStore() as store:
        with pytest.raises(StorageError):
            store.read(0)


def test_file_store_context_manager_removes_owned_tempdir(rng):
    with FileStore() as store:
        store.write(rng.normal(size=(4, 4)))
        root = store.root
        assert root.exists()
    assert not root.exists()  # __exit__ cleaned up the owned temp directory
    assert len(store) == 0


def test_file_store_context_manager_keeps_user_root(tmp_path, rng):
    with FileStore(root=str(tmp_path / "kept")) as store:
        store.write(rng.normal(size=(2,)))
    assert (tmp_path / "kept").exists()  # user-provided roots are never deleted


def test_file_store_explicit_root(tmp_path, rng):
    store = FileStore(root=str(tmp_path / "data"))
    store.write(rng.normal(size=(3,)))
    assert (tmp_path / "data").exists()
    store.cleanup()  # does not delete user-provided roots
    assert (tmp_path / "data").exists()


# -- VectorIndex ----------------------------------------------------------------------------------
def test_vector_index_exact_nearest(rng):
    index = VectorIndex(dim=4)
    vectors = rng.normal(size=(20, 4))
    keys = [f"k{i}" for i in range(20)]
    index.add(keys, vectors)
    assert len(index) == 20
    query = vectors[7] + 1e-6
    results = index.query(query, k=3)
    assert results[0][0] == "k7"
    assert results[0][1] == pytest.approx(0.0, abs=1e-3)
    assert len(results) == 3
    assert results[0][1] <= results[1][1] <= results[2][1]


def test_vector_index_validation(rng):
    index = VectorIndex(dim=3)
    with pytest.raises(ValidationError):
        index.add(["a"], rng.normal(size=(1, 4)))
    with pytest.raises(ValidationError):
        index.add(["a", "b"], rng.normal(size=(1, 3)))
    with pytest.raises(StorageError):
        index.query(np.zeros(3))
    index.add(["a"], np.zeros((1, 3)))
    with pytest.raises(ValidationError):
        index.query(np.zeros(4))
    with pytest.raises(ValidationError):
        index.query(np.zeros(3), k=0)
    with pytest.raises(ValidationError):
        VectorIndex(dim=0)


def test_clustered_index_matches_exact_for_probed_cluster(rng):
    vectors = np.vstack([
        rng.normal(loc=0.0, size=(30, 3)),
        rng.normal(loc=10.0, size=(30, 3)),
    ])
    keys = [f"k{i}" for i in range(60)]
    cluster_ids = np.array([0] * 30 + [1] * 30)
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
    cindex = ClusteredVectorIndex(centers, n_probe=1)
    cindex.add(keys, vectors, cluster_ids)
    assert len(cindex) == 60

    flat = VectorIndex(3)
    flat.add(keys, vectors)

    query = rng.normal(loc=10.0, size=3)
    assert cindex.query(query, k=1)[0][0] == flat.query(query, k=1)[0][0]


def test_vector_index_contiguous_storage_and_growth(rng):
    index = VectorIndex(dim=5)
    for start in range(0, 100, 10):
        keys = [f"k{i}" for i in range(start, start + 10)]
        index.add(keys, rng.normal(size=(10, 5)))
    assert len(index) == 100
    assert index.vectors.shape == (100, 5)
    assert index.vectors.flags["C_CONTIGUOUS"]
    assert index.vectors.dtype == np.float32
    with pytest.raises(ValueError):
        index.vectors[0, 0] = 1.0  # read-only view


def test_query_batch_matches_per_vector_query_flat(rng):
    index = VectorIndex(dim=8)
    index.add([f"k{i}" for i in range(500)], rng.normal(size=(500, 8)))
    queries = rng.normal(size=(64, 8))
    batched = index.query_batch(queries, k=3)
    singles = [index.query(q, k=3) for q in queries]
    assert len(batched) == 64
    for one, many in zip(singles, batched):
        assert [key for key, _ in one] == [key for key, _ in many]
        np.testing.assert_allclose(
            [d for _, d in one], [d for _, d in many], rtol=1e-9, atol=1e-12
        )


def test_query_batch_matches_per_vector_query_clustered(rng):
    centers = rng.normal(scale=8.0, size=(6, 4))
    assignments = rng.integers(0, 6, size=300)
    vectors = centers[assignments] + rng.normal(size=(300, 4))
    cindex = ClusteredVectorIndex(centers, n_probe=2)
    cindex.add([f"k{i}" for i in range(300)], vectors, assignments)
    queries = centers[rng.integers(0, 6, size=48)] + rng.normal(size=(48, 4))
    batched = cindex.query_batch(queries, k=3)
    singles = [cindex.query(q, k=3) for q in queries]
    for one, many in zip(singles, batched):
        assert [key for key, _ in one] == [key for key, _ in many]
        np.testing.assert_allclose(
            [d for _, d in one], [d for _, d in many], rtol=1e-9, atol=1e-12
        )


def test_query_batch_k_larger_than_store(rng):
    index = VectorIndex(dim=3)
    index.add(["a", "b"], rng.normal(size=(2, 3)))
    results = index.query_batch(rng.normal(size=(4, 3)), k=10)
    for row in results:
        assert len(row) == 2
        assert row[0][1] <= row[1][1]


def test_flat_add_duplicate_keys_last_write_wins():
    index = VectorIndex(dim=2)
    index.add(["k", "k"], [[1.0, 1.0], [4.0, 4.0]])
    assert len(index) == 1
    assert index.query([4.0, 4.0], k=1) == [("k", 0.0)]
    index.add(["k"], [[8.0, 8.0]])
    assert len(index) == 1
    assert index.query([8.0, 8.0], k=1) == [("k", 0.0)]
    # keys never repeat in results regardless of k.
    assert [key for key, _ in index.query([0.0, 0.0], k=5)] == ["k"]


def test_keys_tuple_is_cached_not_rebuilt():
    index = VectorIndex(dim=2)
    index.add(["a", "b"], [[0.0, 0.0], [1.0, 1.0]])
    first = index.keys
    assert index.keys is first  # no per-access copy
    index.add(["c"], [[2.0, 2.0]])
    second = index.keys
    assert second is not first and second == ("a", "b", "c")
    assert index.keys is second


def test_clustered_index_validation(rng):
    centers = np.zeros((2, 3))
    cindex = ClusteredVectorIndex(centers)
    with pytest.raises(StorageError):
        cindex.query(np.zeros(3))
    with pytest.raises(ValidationError):
        cindex.add(["a"], np.zeros((1, 3)), [5])
    with pytest.raises(ValidationError):
        ClusteredVectorIndex(centers, n_probe=0)
    cindex.add(["a"], np.zeros((1, 3)), [0])
    with pytest.raises(ValidationError):
        cindex.query(np.zeros(4))


def test_clustered_upsert_that_changes_cluster_leaves_one_row():
    centers = np.array([[0.0, 0.0], [10.0, 10.0]])
    c = ClusteredVectorIndex(centers, n_probe=2)
    c.add(["a"], [[0.1, 0.1]], [0])
    c.add(["a"], [[9.9, 9.9]], [1])
    assert len(c) == 1 and "a" in c and "b" not in c
    (hits,) = c.query_batch([[5.0, 5.0]], k=2)
    assert [key for key, _ in hits] == ["a"]
    np.testing.assert_allclose(hits[0][1], np.hypot(4.9, 4.9), rtol=1e-6)
    # In-batch repeats: the final occurrence wins, wherever it routes; a key
    # that stays in its cluster is overwritten, not doubled.
    c.add(["b", "a", "b", "c", "b"], [[1, 1], [0.2, 0.2], [9, 9], [8, 8], [0.5, 0.5]],
          [0, 0, 1, 1, 0])
    c.add(["c"], [[8.5, 8.5]], [1])
    c.add([], np.empty((0, 2)), [])
    assert len(c) == 3
    (hits,) = c.query_batch([[0.0, 0.0]], k=10)
    assert [key for key, _ in hits] == ["a", "b", "c"]
    np.testing.assert_allclose([d for _, d in hits],
                               [np.hypot(0.2, 0.2), np.hypot(0.5, 0.5), np.hypot(8.5, 8.5)],
                               rtol=1e-6)


def test_mirror_computed_across_an_overwrite_is_never_served(monkeypatch):
    """A reader that built its float64 mirror before an overwriting ``add``
    and stores it after must not have published it: same size, old vector."""
    index = VectorIndex(dim=2)
    index.add(["a", "b"], [[0.0, 0.0], [10.0, 10.0]])
    real_sum, raced = np.sum, []

    def sum_then_overwrite(*args, **kwargs):
        out = real_sum(*args, **kwargs)
        if not raced:  # the writer runs between the reader's compute and its publish
            raced.append(True)
            index.add(["a"], [[10.0, 0.0]])
        return out

    monkeypatch.setattr(np, "sum", sum_then_overwrite)
    index.query_batch([[0.0, 0.0]])  # good for this caller, whichever vector it saw
    monkeypatch.undo()
    assert raced
    ((key, distance),) = index.query([9.0, 0.0])
    assert (key, distance) == ("a", pytest.approx(1.0))


def test_mirror_computed_across_an_append_is_rebuilt_not_extended(monkeypatch):
    """The same race with an appending ``add``: the reader's mirror lacks the
    new row and carries the count the append has made stale, so neither it nor
    an extension of it is ever served."""
    index = VectorIndex(dim=2)
    index.add(["a", "b"], [[0.0, 0.0], [10.0, 10.0]])
    real_sum, raced = np.sum, []

    def sum_then_append(*args, **kwargs):
        out = real_sum(*args, **kwargs)
        if not raced:
            raced.append(True)
            index.add(["c"], [[5.0, 5.0]])
        return out

    monkeypatch.setattr(np, "sum", sum_then_append)
    index.query_batch([[0.0, 0.0]])
    monkeypatch.undo()
    assert raced and index._mirror[1].shape[0] == 2 and index._mirror[0] != index._writes
    index.add(["d"], [[5.0, 6.0]])  # must not extend the stale two-row mirror to three
    assert index.query_batch([[5.0, 5.2], [5.0, 5.9]]) == [
        [("c", pytest.approx(0.2))], [("d", pytest.approx(0.1))]]
    assert index._mirror[1].shape == (4, 2)


def test_mirror_published_between_an_overwrite_and_its_append_is_not_extended(monkeypatch):
    """One ``add`` that overwrites ``a`` and appends ``c``: a reader that read
    the rows before the overwrite publishes its mirror after it, just before
    the append looks.  Extending that mirror would serve the old ``a``."""
    index = VectorIndex(dim=2)
    index.add(["a", "b"], [[0.0, 0.0], [10.0, 10.0]])
    index.query_batch([[0.0, 0.0]])
    stale = index._mirror  # tagged with the write count the reader saw
    real_append = VectorIndex._append

    def late_reader_then_append(self, keys, vectors):
        self._mirror = stale
        real_append(self, keys, vectors)

    monkeypatch.setattr(VectorIndex, "_append", late_reader_then_append)
    index.add(["a", "c"], [[10.0, 0.0], [5.0, 5.0]])
    monkeypatch.undo()
    assert index.query_batch([[9.0, 0.0], [5.0, 4.0]]) == [
        [("a", pytest.approx(1.0))], [("c", pytest.approx(1.0))]]


def test_appended_writes_past_a_leading_view_and_copies_any_other_head(tmp_path):
    """``appended`` grows in place only behind the leading rows of an array of
    the head's own dtype and row shape; whatever else it is handed — the
    middle of an array, its columns, a reinterpreted or mapped one — it copies,
    so nothing the head's owner still reads is written over."""
    first = appended(np.arange(3.0), np.array([3.0]))  # an owned head: copied into a buffer with room
    second = appended(first, np.array([4.0, 5.0]))
    assert np.shares_memory(first, second) and first.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert second.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    matrix = appended(appended(np.zeros((2, 3)), np.ones((1, 3))), 2 * np.ones((2, 3)))
    assert matrix.shape == (5, 3) and matrix.sum(axis=1).tolist() == [0.0, 0.0, 3.0, 6.0, 6.0]

    owner = np.arange(24.0).reshape(8, 3)
    mapped = np.memmap(tmp_path / "rows.bin", dtype=np.float64, mode="w+", shape=(8, 3))
    mapped[:] = owner
    for head in (owner[2:5], owner[:4, 1:], owner[:4].view(np.int64), owner[:4:2], owner[::-1][:4],
                 owner.reshape(4, 6)[:2], mapped[:4]):
        kept, was = owner.copy(), np.array(head)
        out = appended(head, np.full((2,) + head.shape[1:], -1, dtype=head.dtype))
        assert not np.shares_memory(out, owner) and not np.shares_memory(out, mapped)
        np.testing.assert_array_equal(owner, kept)
        np.testing.assert_array_equal(mapped, kept)
        np.testing.assert_array_equal(out[:-2], was)
        assert (out[-2:] == -1).all()


def test_readers_beside_appends_only_ever_see_a_whole_mirror():
    """Readers beside a writer whose appends extend the published mirror
    across many capacity doublings: every tuple a reader takes has as many
    norms as rows, no more rows than there are keys to resolve them, the norms
    of exactly its rows, and the rows of exactly its keys."""
    import sys

    rng = np.random.default_rng(0)
    index = VectorIndex(dim=3)
    held = {}

    def add(keys, vectors):
        held.update(zip(keys, np.float32(vectors).astype(np.float64).tolist()))
        index.add(keys, vectors)

    add([f"s{i}" for i in range(8)], rng.normal(size=(8, 3)))
    queries = rng.normal(size=(2, 3))
    index.query_batch(queries)
    errors, taken, stop = [], [], threading.Event()

    def reader():
        try:
            while not stop.is_set():
                writes, matrix, norms = index._mirror
                keys = index._keys  # read after the tuple: never fewer than its rows
                assert matrix.shape[0] == norms.shape[0] <= len(keys)
                np.testing.assert_array_equal(norms, np.sum(matrix * matrix, axis=1))
                for at in (0, matrix.shape[0] // 2, matrix.shape[0] - 1):  # the newest row too
                    assert matrix[at].tolist() == held[keys[at]]
                for query, hits in zip(queries.tolist(), index.query_batch(queries, k=2)):
                    for key, distance in hits:
                        assert distance == pytest.approx(np.linalg.norm(np.subtract(held[key], query)))
                taken.append(matrix.shape[0])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for i in range(1500):
            n = 1 + i % 3
            add([f"w{i}_{j}" for j in range(n)], rng.normal(size=(n, 3)))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(set(taken)) > 3 and len(index) == len(held) == 8 + 3000
    index.query_batch(queries)
    assert index._mirror[0] == index._writes and index._mirror[1].shape == (3008, 3)


# -- Collection.upsert_one -----------------------------------------------------------
def test_upsert_one_inserts_when_no_match_and_seeds_query_fields():
    coll = DocumentDB().collection("ckpt")
    doc_id = coll.upsert_one({"run": "r1", "step": "a"}, {"status": "done"})
    doc = coll.get(doc_id)
    assert doc["run"] == "r1" and doc["step"] == "a" and doc["status"] == "done"
    assert coll.count() == 1


def test_upsert_one_updates_existing_match_in_place():
    coll = DocumentDB().collection("ckpt")
    first = coll.upsert_one({"run": "r1", "step": "a"}, {"attempt": 1})
    second = coll.upsert_one({"run": "r1", "step": "a"}, {"attempt": 2})
    assert first == second
    assert coll.count() == 1
    assert coll.get(first)["attempt"] == 2


def test_upsert_one_replaces_payload_and_maintains_indexes():
    coll = DocumentDB().collection("ckpt")
    coll.create_index("run")
    coll.upsert_one({"run": "r1", "step": "a"}, {}, payload=np.arange(3))
    coll.upsert_one({"run": "r1", "step": "a"}, {}, payload=np.arange(5))
    docs = coll.find({"run": "r1"}, decode_payload=True)
    assert len(docs) == 1
    np.testing.assert_array_equal(docs[0]["payload"], np.arange(5))
    assert docs[0]["payload_bytes"] > 0


def test_upsert_one_range_query_terms_do_not_seed_insert():
    coll = DocumentDB().collection("c")
    doc_id = coll.upsert_one({"x": {"$gte": 3}, "name": "n"}, {"y": 1})
    doc = coll.get(doc_id)
    assert "x" not in doc and doc["name"] == "n" and doc["y"] == 1


# -- Collection.transform_one ---------------------------------------------------------
def test_transform_one_updates_inserts_and_snapshots():
    coll = DocumentDB().collection("tags")
    # Insert path (transform sees None).
    doc_id = coll.transform_one({"tag": "latest"}, lambda doc: {"n": 1} if doc is None else None)
    assert coll.get(doc_id)["n"] == 1 and coll.get(doc_id)["tag"] == "latest"
    # Update path (read-modify-write).
    assert coll.transform_one({"tag": "latest"}, lambda doc: {"n": doc["n"] + 1}) == doc_id
    assert coll.get(doc_id)["n"] == 2
    # Returning None aborts: a consistent read-only snapshot.
    seen = {}
    assert coll.transform_one({"tag": "latest"}, lambda doc: seen.update(doc)) == doc_id
    assert seen["n"] == 2 and coll.get(doc_id)["n"] == 2
    # No match + abort -> no insert, None returned.
    assert coll.transform_one({"tag": "ghost"}, lambda doc: None) is None
    assert coll.count() == 1


def test_transform_one_read_modify_write_is_atomic_under_contention():
    coll = DocumentDB().collection("counters")
    coll.insert_one({"key": "k", "n": 0})
    n_threads, per_thread = 8, 50

    def bump():
        for _ in range(per_thread):
            coll.transform_one({"key": "k"}, lambda doc: {"n": doc["n"] + 1})

    threads = [threading.Thread(target=bump) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # A find_one/update_one interleaving would lose increments.
    assert coll.find_one({"key": "k"})["n"] == n_threads * per_thread


def test_snapshot_one_returns_consistent_copy():
    coll = DocumentDB().collection("tags")
    coll.insert_one({"tag": "latest", "model_id": "m1", "version": "v0"})
    snap = coll.snapshot_one({"tag": "latest"})
    assert snap["model_id"] == "m1" and snap["version"] == "v0"
    # It's a copy: mutating it does not touch the stored document...
    snap["model_id"] = "tampered"
    assert coll.find_one({"tag": "latest"})["model_id"] == "m1"
    # ...and a miss returns None.
    assert coll.snapshot_one({"tag": "ghost"}) is None


def test_every_exported_storage_name_resolves():
    import repro.storage as storage

    assert [name for name in storage.__all__ if not hasattr(storage, name)] == []
    assert len(set(storage.__all__)) == len(storage.__all__)
