"""Serialisation codecs for storing array samples in the document database.

The paper compares two MongoDB serialisation libraries — Pickle and Blosc —
against raw file reads from NFS.  Blosc is a multi-threaded compressing
serialiser; without the C library available offline we reproduce its cost
structure (compression on write, decompression on read, smaller payloads)
with zlib-compressed pickles.  The codec interface is deliberately tiny so
users can plug in their own.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, Dict, List, Sequence, Type, Union

import numpy as np

from repro.utils.errors import ConfigurationError, StorageError


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
                return [head + row.tobytes() + tail for row in objs]
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
