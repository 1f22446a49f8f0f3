"""Wire protocol of the network serving plane: length-prefixed JSON frames.

Every message — request or response, either direction — is one **frame**::

    +----------------+----------------------------+
    | length (4B BE) | UTF-8 JSON body (length B) |
    +----------------+----------------------------+

The length prefix makes framing trivial and lets a receiver reject an
oversized frame *before* buffering it (see :func:`read_frame` /
:func:`async_read_frame` and their ``max_frame_bytes`` argument): the body of
a too-large frame is drained in bounded chunks and discarded, the connection
stays usable, and the peer gets a typed ``"frame_too_large"`` error frame
instead of a hang or a desynchronised stream.

Requests and responses are plain dicts:

* request — ``{"id": n, "op": str, "payload": ..., "deadline_ms": float|None}``
  (a server ignores keys it does not read)
* success — ``{"id": n, "ok": True, "result": ...}``
* error — ``{"id": n|None, "ok": False, "error": {"type": str,
  "message": str}}`` (``id`` is ``None`` when the offending frame could not
  be parsed at all — e.g. it was oversized).

Payloads and results pass through :func:`encode` / :func:`decode`, a
reversible JSON codec for the value shapes the serving planes exchange:
numpy arrays (dtype + shape + base64 buffer — no precision loss, no
element-wise lists), numpy scalars, tuples (distinguished from lists so
``(images, n_samples)`` lookup payloads survive the wire), ``bytes``, and
:class:`~repro.serving.hot_swap.VersionedResult` (as ``{"version", "value"}``
with a kind marker, so every network response keeps its serving-model stamp).
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import struct
from typing import Any, Dict, Optional

import numpy as np

from repro.serving.hot_swap import VersionedResult
from repro.utils.errors import FrameTooLargeError, NetworkError

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_TYPES",
    "encode",
    "decode",
    "encode_frame",
    "error_body",
    "read_frame",
    "write_frame",
    "async_read_frame",
]

#: Default bound on one frame's JSON body, either direction (16 MiB).
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The typed error codes a server may return (``error.type`` on the wire).
ERROR_TYPES = (
    "overloaded",        # admission control rejected the request
    "closed",            # the serving runtime is not accepting traffic
    "unavailable",       # no healthy replica could accept the request
    "unknown_op",        # the operation is not served here
    "bad_request",       # the request's shape is invalid, or its handler raised ValidationError
    "frame_too_large",   # the frame exceeded max_frame_bytes
    "deadline_exceeded", # the request's deadline expired before a worker took it
    "internal",          # the handler raised anything else
)

_KIND = "__repro__"  # marker key of codec-encoded values

_HEADER = struct.Struct(">I")
_DRAIN_CHUNK = 1 << 16


# -- value codec -------------------------------------------------------------------
def encode(value: Any) -> Any:
    """Recursively encode ``value`` into plain JSON types (see module doc)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:  # its buffer holds heap pointers, not values
            raise NetworkError(f"cannot encode an array of dtype {value.dtype} for the wire")
        # tobytes() is C order whatever the layout, so no contiguous copy
        # (np.ascontiguousarray would turn a 0-d array into shape (1,)).
        return {
            _KIND: "ndarray",
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": base64.b64encode(value.tobytes()).decode("ascii"),
        }
    if isinstance(value, np.generic):  # numpy scalar -> native
        return encode(value.item())
    if isinstance(value, VersionedResult):
        return {_KIND: "versioned", "version": value.version, "value": encode(value.value)}
    if isinstance(value, tuple):
        return {_KIND: "tuple", "items": [encode(v) for v in value]}
    if isinstance(value, (bytes, bytearray)):
        return {_KIND: "bytes", "data": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            if not isinstance(key, str):
                raise NetworkError(f"cannot encode mapping key {key!r}: keys must be strings")
            out[key] = encode(v)
        return out
    raise NetworkError(
        f"cannot encode value of type {type(value).__name__} for the wire"
    )


def decode(value: Any) -> Any:
    """Invert :func:`encode`."""
    if isinstance(value, list):
        return [decode(v) for v in value]
    if isinstance(value, dict):
        kind = value.get(_KIND)
        if kind is None:
            return {key: decode(v) for key, v in value.items()}
        if kind == "ndarray":
            raw = base64.b64decode(value["data"])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape(value["shape"]).copy()
        if kind == "tuple":
            return tuple(decode(v) for v in value["items"])
        if kind == "bytes":
            return base64.b64decode(value["data"])
        if kind == "versioned":
            return VersionedResult(value["version"], decode(value["value"]))
        raise NetworkError(f"unknown encoded kind {kind!r}")
    return value


def error_body(
    error_type: str, message: str, request_id: Optional[int] = None
) -> Dict[str, Any]:
    """A typed error response body (``id`` may be unknown for unparseable frames)."""
    if error_type not in ERROR_TYPES:
        raise NetworkError(f"unknown error type {error_type!r}; have {ERROR_TYPES}")
    return {"id": request_id, "ok": False, "error": {"type": error_type, "message": message}}


# -- framing -----------------------------------------------------------------------
def encode_frame(body: Dict[str, Any], max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Serialise one message into its wire frame (header + JSON body)."""
    data = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(data) > max_frame_bytes:
        raise FrameTooLargeError(
            f"outgoing frame of {len(data)} bytes exceeds max_frame_bytes={max_frame_bytes}"
        )
    return _HEADER.pack(len(data)) + data


def _parse_body(data: bytes) -> Dict[str, Any]:
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NetworkError(f"malformed frame body: {exc}") from exc
    if not isinstance(body, dict):
        raise NetworkError(f"frame body must be a JSON object, got {type(body).__name__}")
    return body


# -- blocking socket I/O (sync client) ---------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, _DRAIN_CHUNK))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(
    sock: socket.socket, body: Dict[str, Any],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    sock.sendall(encode_frame(body, max_frame_bytes))


def read_frame(
    sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Dict[str, Any]:
    """Read one frame from a blocking socket; raises
    :class:`FrameTooLargeError` (after draining the oversized body, so the
    stream stays framed) or :class:`ConnectionError` on EOF mid-frame."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        remaining = length
        while remaining:
            remaining -= len(sock.recv(min(remaining, _DRAIN_CHUNK)) or b"\x00")
        raise FrameTooLargeError(
            f"incoming frame of {length} bytes exceeds max_frame_bytes={max_frame_bytes}"
        )
    return _parse_body(_recv_exact(sock, length))


# -- asyncio I/O (server + async client) -------------------------------------------
async def async_read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Dict[str, Any]:
    """Read one frame from an asyncio stream (same contract as
    :func:`read_frame`); raises :class:`asyncio.IncompleteReadError` on EOF."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        remaining = length
        while remaining:
            chunk = await reader.read(min(remaining, _DRAIN_CHUNK))
            if not chunk:
                break  # peer hung up mid-drain; the error below still stands
            remaining -= len(chunk)
        raise FrameTooLargeError(
            f"incoming frame of {length} bytes exceeds max_frame_bytes={max_frame_bytes}"
        )
    return _parse_body(await reader.readexactly(length))
