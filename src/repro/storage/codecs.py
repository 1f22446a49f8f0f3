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
from typing import Any, Dict, List, Sequence, Type

import numpy as np

from repro.utils.errors import ConfigurationError, StorageError


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

        A plain ndarray pickles to opcodes
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
