"""Serialisation codecs for storing array samples in the document database.

The paper compares two MongoDB serialisation libraries — Pickle and Blosc —
against raw file reads from NFS.  Blosc is a multi-threaded compressing
serialiser; without the C library available offline we reproduce its cost
structure (compression on write, decompression on read, smaller payloads)
with zlib-compressed pickles.  The codec interface is deliberately tiny so
users can plug in their own.

Beyond the byte codecs, this module also hosts the lossy *vector* codec used
by the ANN fast path: :class:`ProductQuantizer` compresses residual vectors
to a few bytes each and supports asymmetric distance computation (ADC), the
scan kernel of :class:`repro.storage.ivf_index.IVFVectorIndex`'s compressed
inverted lists.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Dict, List, Sequence, Tuple, Type, Union

import numpy as np

from repro.utils.errors import ConfigurationError, NotFittedError, StorageError, ValidationError


#: Most array bytes :meth:`PickleCodec.decode_many` holds twice at a time: it
#: joins ``bytes`` slices — copies, but unlike ``memoryview``s not objects
#: whose allocation sets the garbage collector off — a bounded batch at a time.
_JOIN_BYTES = 1 << 20


class Codec:
    """Serialise/deserialise a Python object (usually an ndarray) to bytes."""

    #: Registry name.
    name: str = "base"

    def encode(self, obj: Any) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes) -> Any:
        raise NotImplementedError

    def encode_many(self, objs: Sequence[Any]) -> List[bytes]:
        """``[encode(obj) for obj in objs]``, byte for byte, however made."""
        return [self.encode(obj) for obj in objs]

    def decode_many(self, payloads: Sequence[bytes]) -> Union[List[Any], np.ndarray]:
        """``[decode(p) for p in payloads]`` — or, from a codec that can lift
        a batch of equal-shaped arrays at once, the same arrays as the rows of
        one stacked ndarray."""
        return [self.decode(payload) for payload in payloads]


class PickleCodec(Codec):
    """Plain pickle: fast encode, moderate payload size."""

    name = "pickle"

    def encode(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, payload: bytes) -> Any:
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("PickleCodec.decode expects bytes")
        return pickle.loads(payload)

    def encode_many(self, objs: Sequence[Any]) -> List[bytes]:
        """Pickle the first two rows only, when the others can be shown to
        pickle to the same bytes around their own buffer.

        The mirror of :meth:`decode_many`: a plain ndarray pickles to opcodes
        fixed by its type, dtype, shape and flags, with its buffer spliced in
        verbatim.  For the rows of one stack, or a sequence of C-contiguous
        non-object non-empty ndarrays sharing dtype object, shape and
        writeability, the first row's pickle is split at its buffer (found
        exactly once), the split is proved on the second row, and every other
        blob is that head and tail around the row's bytes.  Anything else is
        pickled object by object.
        """
        stacked = type(objs) is np.ndarray
        first = objs[0] if len(objs) > 2 else None
        if (
            type(first) is np.ndarray and not first.dtype.hasobject
            and first.nbytes and first.flags.c_contiguous
            and (stacked or all(
                type(row) is np.ndarray and row.dtype is first.dtype
                and row.shape == first.shape and row.flags.c_contiguous
                and row.flags.writeable == first.flags.writeable
                for row in objs
            ))
        ):
            blob, raw = self.encode(first), first.tobytes()
            start, width = blob.find(raw), len(raw)
            head, tail = blob[:start], blob[start + width:]
            if (
                start >= 0 and blob.find(raw, start + 1) < 0
                and self.encode(objs[1]) == head + objs[1].tobytes() + tail
            ):
                if not stacked:
                    return [head + row.tobytes() + tail for row in objs]
                data = objs.tobytes()
                return [head + data[at : at + width] + tail for at in range(0, len(data), width)]
        return super().encode_many(objs)

    def decode_many(self, payloads: Sequence[bytes]) -> Union[List[Any], np.ndarray]:
        """Unpickle the first blob only, when the others can be shown to
        differ from it in nothing but their array's bytes.

        A pickled ndarray carries its buffer verbatim, once: that window is
        located in the first blob, and a blob of the same length that is
        byte-identical outside it runs the same opcodes on the same dtype,
        shape and order — its array is its window.  The windows are copied
        into one new array (rows are writable and share nothing with the
        blobs).  When that cannot be shown — not an array, an object / 0-d /
        empty / Fortran-ordered first array, a window that occurs twice, any
        blob that differs — every blob is decoded on its own.
        """
        if len(payloads) > 1 and isinstance(payloads[0], (bytes, bytearray)):
            blob = payloads[0]
            first = pickle.loads(blob)
            if (
                type(first) is np.ndarray and not first.dtype.hasobject
                and first.ndim and first.size and first.flags.c_contiguous
            ):
                raw = first.tobytes()
                start = blob.find(raw)
                stop = start + len(raw)
                head, tail = bytes(blob[:start]), bytes(blob[stop:])
                if start >= 0 and blob.find(raw, start + 1) < 0 and all(
                    isinstance(p, (bytes, bytearray)) and len(p) == len(blob)
                    and p.startswith(head) and p.endswith(tail)
                    for p in payloads
                ):
                    out = np.empty((len(payloads),) + first.shape, dtype=first.dtype)
                    step = max(1, _JOIN_BYTES // len(raw))
                    for at in range(0, len(payloads), step):
                        joined = b"".join([p[start:stop] for p in payloads[at : at + step]])
                        out[at : at + step] = np.frombuffer(joined, dtype=first.dtype).reshape(
                            (-1,) + first.shape
                        )
                    return out
        return super().decode_many(payloads)


class CompressedCodec(Codec):
    """zlib-compressed pickle, standing in for Blosc.

    Compression shrinks the stored payload (and therefore simulated network
    transfer time) at the cost of extra CPU time on both encode and decode —
    exactly the trade-off the paper observes for Blosc vs Pickle vs NFS.
    """

    name = "blosc"

    def __init__(self, level: int = 3):
        if not 0 <= level <= 9:
            raise ConfigurationError("compression level must be in [0, 9]")
        self.level = int(level)

    def encode(self, obj: Any) -> bytes:
        return zlib.compress(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), self.level)

    def decode(self, payload: bytes) -> Any:
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("CompressedCodec.decode expects bytes")
        try:
            return pickle.loads(zlib.decompress(payload))
        except zlib.error as exc:  # pragma: no cover - defensive
            raise StorageError(f"failed to decompress payload: {exc}") from exc


class RawArrayCodec(Codec):
    """Raw ndarray bytes + dtype/shape header; no pickling overhead.

    Only supports NumPy arrays; used for the "NFS" style path where samples
    are stored as flat binary.
    """

    name = "raw"

    def encode(self, obj: Any) -> bytes:
        arr = np.ascontiguousarray(obj)
        header = pickle.dumps((str(arr.dtype), arr.shape), protocol=pickle.HIGHEST_PROTOCOL)
        return len(header).to_bytes(4, "little") + header + arr.tobytes()

    def decode(self, payload: bytes) -> np.ndarray:
        if not isinstance(payload, (bytes, bytearray)) or len(payload) < 4:
            raise StorageError("RawArrayCodec.decode expects a framed byte payload")
        header_len = int.from_bytes(payload[:4], "little")
        dtype_str, shape = pickle.loads(payload[4 : 4 + header_len])
        data = np.frombuffer(payload[4 + header_len :], dtype=np.dtype(dtype_str))
        return data.reshape(shape).copy()


class ProductQuantizer:
    """Product quantisation of ``dim``-dimensional vectors into ``m`` bytes.

    The vector space is split into ``m`` contiguous subspaces of
    ``dim / m`` dimensions; each subspace gets its own codebook of
    ``2**bits`` centroids fitted with k-means, and a vector is encoded as the
    per-subspace centroid ids — ``m`` uint8 codes replacing ``dim`` floats.

    Queries never decode: :meth:`distance_tables` precomputes, per query, the
    squared distance from the query's sub-vector to every codebook centroid,
    and :meth:`adc` (asymmetric distance computation) scores a whole code
    matrix with ``m`` table gathers per query — no per-vector arithmetic.
    ADC distances are approximate (codebook quantisation error), which is why
    the IVF scan path re-ranks the top ADC candidates exactly.

    Unlike the byte codecs above, this codec maps vectors to code *arrays*
    (not byte strings), so it is not part of the ``get_codec`` registry.
    """

    def __init__(self, dim: int, m: int = 8, bits: int = 8, max_iter: int = 25,
                 seed: int = 0):
        if dim < 1:
            raise ConfigurationError("ProductQuantizer: dim must be >= 1")
        if m < 1 or dim % m != 0:
            raise ConfigurationError(
                f"ProductQuantizer: m must divide dim (got dim={dim}, m={m})"
            )
        if not 1 <= bits <= 8:
            raise ConfigurationError("ProductQuantizer: bits must be in [1, 8]")
        if max_iter < 1:
            raise ConfigurationError("ProductQuantizer: max_iter must be >= 1")
        self.dim = int(dim)
        self.m = int(m)
        self.bits = int(bits)
        self.ksub = 2 ** int(bits)
        self.dsub = self.dim // self.m
        self.max_iter = int(max_iter)
        self.seed = seed
        #: ``(m, k_eff, dsub)`` codebooks after :meth:`fit` (``k_eff <= ksub``
        #: when the training set is smaller than the codebook).
        self.codebooks: "np.ndarray | None" = None

    @property
    def is_fitted(self) -> bool:
        return self.codebooks is not None

    def _require_fitted(self, op: str) -> np.ndarray:
        if self.codebooks is None:
            raise NotFittedError(f"ProductQuantizer.{op}() requires fit() first")
        return self.codebooks

    def _check_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dim:
            raise ValidationError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        return vectors

    def fit(self, vectors: np.ndarray) -> "ProductQuantizer":
        """Fit one k-means codebook per subspace on the training vectors."""
        from repro.clustering.kmeans import KMeans
        from repro.utils.rng import derive_seed

        vectors = self._check_vectors(vectors)
        n = vectors.shape[0]
        if n < 1:
            raise ValidationError("ProductQuantizer.fit() needs at least one vector")
        k_eff = min(self.ksub, n)
        codebooks = np.empty((self.m, k_eff, self.dsub), dtype=np.float64)
        for j in range(self.m):
            sub = vectors[:, j * self.dsub : (j + 1) * self.dsub]
            km = KMeans(n_clusters=k_eff, max_iter=self.max_iter, n_init=1,
                        seed=derive_seed(self.seed, 7001, j))
            codebooks[j] = km.fit(sub).cluster_centers_
        self.codebooks = codebooks
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantise vectors to their ``(n, m)`` uint8 code matrix."""
        from repro.utils.stats import pairwise_squared_distances

        codebooks = self._require_fitted("encode")
        vectors = self._check_vectors(vectors)
        codes = np.empty((vectors.shape[0], self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = vectors[:, j * self.dsub : (j + 1) * self.dsub]
            codes[:, j] = np.argmin(pairwise_squared_distances(sub, codebooks[j]), axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct the (lossy) vectors of a code matrix."""
        codebooks = self._require_fitted("decode")
        codes = np.atleast_2d(np.asarray(codes))
        if codes.shape[1] != self.m:
            raise ValidationError(f"expected {self.m} codes per vector, got {codes.shape[1]}")
        out = np.empty((codes.shape[0], self.dim), dtype=np.float64)
        for j in range(self.m):
            out[:, j * self.dsub : (j + 1) * self.dsub] = codebooks[j][codes[:, j]]
        return out

    def distance_tables(self, queries: np.ndarray) -> np.ndarray:
        """Per-query ADC lookup tables, shape ``(n_queries, m, k_eff)``.

        Entry ``[q, j, c]`` is the squared distance from query ``q``'s ``j``-th
        sub-vector to centroid ``c`` of subspace ``j``.
        """
        from repro.utils.stats import pairwise_squared_distances

        codebooks = self._require_fitted("distance_tables")
        queries = self._check_vectors(queries)
        tables = np.empty((queries.shape[0], self.m, codebooks.shape[1]), dtype=np.float64)
        for j in range(self.m):
            sub = queries[:, j * self.dsub : (j + 1) * self.dsub]
            tables[:, j, :] = pairwise_squared_distances(sub, codebooks[j])
        return tables

    def adc(self, tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared distances, shape ``(n_queries, n_codes)``.

        Sums, per query and stored code row, the per-subspace table entries —
        ``m`` gathers over the code matrix instead of any float arithmetic on
        the original vectors.
        """
        self._require_fitted("adc")
        tables = np.asarray(tables, dtype=np.float64)
        codes = np.atleast_2d(np.asarray(codes))
        if tables.ndim != 3 or tables.shape[1] != self.m:
            raise ValidationError("tables must come from distance_tables()")
        if codes.shape[1] != self.m:
            raise ValidationError(f"expected {self.m} codes per vector, got {codes.shape[1]}")
        out = np.zeros((tables.shape[0], codes.shape[0]), dtype=np.float64)
        for j in range(self.m):
            out += tables[:, j, codes[:, j]]
        return out


_CODECS: Dict[str, Type[Codec]] = {
    PickleCodec.name: PickleCodec,
    CompressedCodec.name: CompressedCodec,
    RawArrayCodec.name: RawArrayCodec,
}


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate a codec by registry name (``pickle``, ``blosc``, ``raw``)."""
    try:
        cls = _CODECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; available: {sorted(_CODECS)}"
        ) from None
    return cls(**kwargs)


def register_codec(cls: Type[Codec]) -> Type[Codec]:
    """Register a user-defined codec class (usable as a decorator)."""
    if not getattr(cls, "name", None):
        raise ConfigurationError("codec classes must define a non-empty 'name'")
    _CODECS[cls.name] = cls
    return cls
