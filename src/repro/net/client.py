"""Clients for the network serving plane: sync pooled + asyncio multiplexed.

:class:`NetworkClient` is the blocking client: a small pool of persistent
connections (one request in flight per connection), per-request deadlines,
and retries with exponential backoff and full jitter on *transient* faults —
dropped connections, connect refusals, and typed ``overloaded`` /
``unavailable`` / ``closed`` errors (the server's backpressure and
routing-gap signals).  Non-transient typed errors (``unknown_op``,
``bad_request``, ``internal``, ``frame_too_large``) raise
:class:`~repro.utils.errors.RemoteError` immediately.  Retries assume the
serving operations are idempotent reads (predict / lookup / query) — which
everything the serving plane exposes is; a dropped connection cannot tell
the client whether the server executed the request.

:class:`AsyncNetworkClient` multiplexes many concurrent requests over one
connection, correlating responses to callers by request id (responses may
arrive in any order — the server completes batches as replicas finish).  A
``null``-id error frame (the server could not even parse the offending
frame) fails the oldest pending request, matching the server's
read-loop ordering.  The open-loop network benchmark drives load through
this client so a slow response never blocks issuing the next request.

Every deadline is end-to-end: it bounds connect + send + server time +
receive across *all* retries, and the remaining budget rides each request as
``deadline_ms`` so the server can fail already-expired work fast.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    async_read_frame,
    decode,
    encode,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.observability.metrics import default_registry, internal_errors
from repro.utils.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FrameTooLargeError,
    NetworkError,
    RemoteError,
)
from repro.utils.logging import get_logger

logger = get_logger("repro.net.client")

__all__ = ["NetworkClient", "AsyncNetworkClient", "RETRIABLE_ERROR_TYPES"]

#: Typed server errors worth retrying: transient backpressure/routing gaps.
RETRIABLE_ERROR_TYPES = frozenset({"overloaded", "unavailable", "closed"})


def _backoff_s(attempt: int, base_s: float, cap_s: float, rng: random.Random) -> float:
    """Exponential backoff with full jitter (attempt counts from 0)."""
    return rng.uniform(0.0, min(cap_s, base_s * (2 ** attempt)))


def _raise_remote(error: Dict[str, Any]) -> None:
    raise RemoteError(str(error.get("type", "internal")),
                      str(error.get("message", "")))


class NetworkClient:
    """Blocking client with connection pooling, retries, and deadlines.

    Parameters
    ----------
    host / port:
        Server address (``NetworkServer.address``).
    pool_size:
        Max idle connections kept for reuse.
    retries:
        Extra attempts after the first on transient faults.
    timeout_s:
        Default end-to-end deadline per :meth:`call` (override per call).
    backoff_base_s / backoff_cap_s:
        Jittered exponential backoff between attempts.
    rng:
        Injectable randomness for deterministic backoff in tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        retries: int = 3,
        timeout_s: float = 30.0,
        connect_timeout_s: float = 5.0,
        backoff_base_s: float = 0.02,
        backoff_cap_s: float = 0.5,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ConfigurationError("retries must be an integer >= 0")
        if not isinstance(pool_size, int) or isinstance(pool_size, bool) or pool_size < 1:
            raise ConfigurationError("pool_size must be an integer >= 1")
        if timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        self.host = host
        self.port = port
        self.retries = retries
        self.timeout_s = timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.max_frame_bytes = max_frame_bytes
        self._rng = rng or random.Random()
        self._pool: List[socket.socket] = []
        self._pool_size = pool_size
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False

    # -- pool --------------------------------------------------------------------
    def _acquire(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise NetworkError("client is closed")
            if self._pool:
                return self._pool.pop()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _release(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    # -- calls -------------------------------------------------------------------
    def call(self, op: str, payload: Any = None, timeout: Optional[float] = None) -> Any:
        """One request/response; retries transient faults inside the deadline.

        Raises :class:`DeadlineExceededError` when the end-to-end budget is
        spent, :class:`RemoteError` on non-transient typed errors, and
        :class:`NetworkError` when retries are exhausted on transport faults.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout_s)
        request = {
            "id": None,  # stamped per attempt
            "op": op,
            "payload": encode(payload),
            "deadline_ms": None,
        }
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline spent after {attempt} attempt(s) calling {op!r}"
                ) from last_exc
            try:
                return self._attempt(dict(request), remaining)
            except RemoteError as exc:
                if exc.error_type == "deadline_exceeded":
                    raise DeadlineExceededError(str(exc)) from exc
                if exc.error_type not in RETRIABLE_ERROR_TYPES:
                    raise
                last_exc = exc
            except (ConnectionError, TimeoutError, OSError) as exc:
                if isinstance(exc, socket.timeout):
                    raise DeadlineExceededError(
                        f"no response to {op!r} within the deadline"
                    ) from exc
                last_exc = exc
            if attempt < self.retries:
                pause = _backoff_s(attempt, self.backoff_base_s,
                                   self.backoff_cap_s, self._rng)
                pause = min(pause, max(0.0, deadline - time.monotonic()))
                if pause:
                    time.sleep(pause)
        raise NetworkError(
            f"calling {op!r} failed after {self.retries + 1} attempt(s): {last_exc}"
        ) from last_exc

    def _attempt(self, request: Dict[str, Any], remaining_s: float) -> Any:
        request_id = next(self._ids)
        request["id"] = request_id
        request["deadline_ms"] = remaining_s * 1000.0
        sock = self._acquire()
        try:
            sock.settimeout(remaining_s)
            write_frame(sock, request, self.max_frame_bytes)
            while True:
                response = read_frame(sock, self.max_frame_bytes)
                rid = response.get("id")
                if rid is not None and rid != request_id:
                    # stale response of an abandoned earlier attempt on this
                    # pooled connection; skip to ours
                    continue
                break
        except BaseException:
            # any failure mid-exchange poisons the connection: close, don't pool
            try:
                sock.close()
            except OSError:
                pass
            raise
        self._release(sock)
        if response.get("ok"):
            return decode(response.get("result"))
        _raise_remote(response.get("error") or {})

    def ping(self, timeout: Optional[float] = None) -> bool:
        """True when the server answers at all (any typed error counts as
        alive — ``unknown_op`` proves the full request path works)."""
        try:
            self.call("__ping__", None, timeout=timeout if timeout is not None else 2.0)
            return True
        except RemoteError:
            return True
        except NetworkError:
            return False

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncNetworkClient:
    """Asyncio client multiplexing concurrent calls over one connection.

    Use as ``async with AsyncNetworkClient(host, port) as client`` (or await
    :meth:`connect` explicitly).  :meth:`call` may run from many tasks at
    once; responses are matched to callers by request id.  On connection
    loss every pending call fails with :class:`NetworkError` and the next
    call reconnects; transient faults are retried like the sync client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        retries: int = 3,
        timeout_s: float = 30.0,
        backoff_base_s: float = 0.02,
        backoff_cap_s: float = 0.5,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.retries = retries
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.max_frame_bytes = max_frame_bytes
        self._rng = rng or random.Random()
        self._ids = itertools.count(1)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: "Dict[int, asyncio.Future]" = {}
        self._conn_lock: Optional[asyncio.Lock] = None
        self._closed = False

    async def connect(self) -> "AsyncNetworkClient":
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        await self._ensure_connected()
        return self

    async def _ensure_connected(self) -> None:
        assert self._conn_lock is not None
        async with self._conn_lock:
            if self._closed:
                raise NetworkError("client is closed")
            if self._writer is not None and not self._writer.is_closing():
                return
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            self._reader_task = asyncio.ensure_future(self._read_loop(self._reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                response = await async_read_frame(reader, self.max_frame_bytes)
                rid = response.get("id")
                if rid is None:
                    # unattributable error frame: fail the oldest pending call
                    rid = next(iter(self._pending), None)
                future = self._pending.pop(rid, None) if rid is not None else None
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                FrameTooLargeError, NetworkError) as exc:
            self._fail_pending(NetworkError(f"connection lost: {exc}"))
        except asyncio.CancelledError:
            self._fail_pending(NetworkError("client closed"))
            raise

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def call(self, op: str, payload: Any = None,
                   timeout: Optional[float] = None) -> Any:
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout_s)
        encoded = encode(payload)
        last_exc: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline spent after {attempt} attempt(s) calling {op!r}"
                ) from last_exc
            try:
                response = await asyncio.wait_for(
                    self._attempt(op, encoded, remaining), timeout=remaining
                )
            except asyncio.TimeoutError as exc:
                raise DeadlineExceededError(
                    f"no response to {op!r} within the deadline"
                ) from exc
            except (ConnectionError, NetworkError, OSError) as exc:
                if isinstance(exc, (RemoteError, DeadlineExceededError,
                                    FrameTooLargeError)):
                    raise
                last_exc = exc
                if attempt < self.retries:
                    pause = _backoff_s(attempt, self.backoff_base_s,
                                       self.backoff_cap_s, self._rng)
                    await asyncio.sleep(
                        min(pause, max(0.0, deadline - time.monotonic()))
                    )
                continue
            if response.get("ok"):
                return decode(response.get("result"))
            error = response.get("error") or {}
            error_type = str(error.get("type", "internal"))
            if error_type == "deadline_exceeded":
                raise DeadlineExceededError(str(error.get("message", "")))
            if error_type in RETRIABLE_ERROR_TYPES and attempt < self.retries:
                last_exc = RemoteError(error_type, str(error.get("message", "")))
                pause = _backoff_s(attempt, self.backoff_base_s,
                                   self.backoff_cap_s, self._rng)
                await asyncio.sleep(min(pause, max(0.0, deadline - time.monotonic())))
                continue
            _raise_remote(error)
        raise NetworkError(
            f"calling {op!r} failed after {self.retries + 1} attempt(s): {last_exc}"
        ) from last_exc

    async def _attempt(self, op: str, encoded_payload: Any,
                       remaining_s: float) -> Dict[str, Any]:
        await self._ensure_connected()
        assert self._writer is not None
        request_id = next(self._ids)
        future: "asyncio.Future" = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        frame = encode_frame(
            {"id": request_id, "op": op, "payload": encoded_payload,
             "deadline_ms": remaining_s * 1000.0},
            self.max_frame_bytes,
        )
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(request_id, None)
            raise
        try:
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            except Exception:
                logger.warning("the reader task of %s:%d had failed", self.host, self.port,
                               exc_info=True)
                internal_errors(default_registry(), "client.close").inc()
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(NetworkError("client closed"))

    async def __aenter__(self) -> "AsyncNetworkClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()
