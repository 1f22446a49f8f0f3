"""Asyncio TCP server bridging the wire protocol into serving runtimes.

One :class:`NetworkServer` hosts an asyncio event loop in a dedicated
thread and speaks the length-prefixed JSON protocol of
:mod:`repro.net.protocol`.  The loop never executes model code: each parsed
request is handed to the dispatch target's ``submit`` (a
:class:`~repro.net.replica.ReplicaSet` or a bare
:class:`~repro.serving.runtime.ServingRuntime`) which returns a
:class:`~concurrent.futures.Future` resolved by the runtime's worker
threads.  The future's done-callback — running on a worker thread — encodes
the response frame and posts it back onto the loop with
``call_soon_threadsafe``; a per-connection writer task serialises frames so
concurrent completions never interleave bytes on one socket.

Protection at the edge:

* **max frame size** — oversized frames are drained and answered with a
  typed ``frame_too_large`` error; the connection stays framed and usable;
* **per-connection in-flight cap** — a connection with ``max_in_flight``
  unanswered requests gets typed ``overloaded`` errors until responses
  retire (global admission control still lives in the runtime's queue);
* **deadlines** — a request whose ``deadline_ms`` budget is already spent
  is failed fast with ``deadline_exceeded`` instead of being dispatched, and
  the budget travels with a dispatched request, so one that expires while
  queued gets the same typed error from the worker that picks it up instead
  of a handler slot.

When a tracer is attached, the server opens the ``serving.request`` root
span itself and passes it into ``submit(trace=...)``, so the runtime's
admission/queue/execute spans nest under the same root as the server-side
``net.receive`` and ``net.respond`` phases — one trace covers the request
from first byte to last.

:class:`NetworkService` is the operator-facing bundle (server + replica set
+ optional autoscaler) returned by ``Deployment.serve_network`` — one handle
that can report a snapshot, run a rolling deploy, drain, and close.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, Optional, Set, Tuple

from repro.net.autoscaler import Autoscaler
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    async_read_frame,
    encode,
    encode_frame,
    decode,
    error_body,
)
from repro.net.replica import ReplicaSet
from repro.observability.metrics import MetricsRegistry, default_registry, internal_errors
from repro.observability.tracing import Tracer
from repro.utils.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FrameTooLargeError,
    NetworkError,
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.utils.logging import get_logger

logger = get_logger("repro.net.server")

__all__ = ["NetworkServer", "NetworkService"]

_CLOSE = object()  # sentinel ending a connection's writer task


class _Connection:
    """Loop-thread state of one client connection."""

    __slots__ = ("writer", "queue", "in_flight", "peer")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.queue: "asyncio.Queue" = asyncio.Queue()
        self.in_flight = 0
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)


class NetworkServer:
    """Length-prefixed JSON TCP front-end for a submit target.

    Parameters
    ----------
    target:
        Anything with ``submit(op, payload, trace=..., deadline=...) ->
        Future`` — a :class:`ReplicaSet` or a single started runtime.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    max_frame_bytes:
        Bound on one frame body in either direction.
    max_in_flight:
        Per-connection cap on unanswered requests.
    tracer:
        Optional tracer; when set, every dispatched request gets a
        ``serving.request`` root with net.receive / net.respond children.
    """

    def __init__(
        self,
        target: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_in_flight: int = 64,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not hasattr(target, "submit"):
            raise ConfigurationError("NetworkServer target must expose submit()")
        if not isinstance(max_in_flight, int) or isinstance(max_in_flight, bool) \
                or max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be an integer >= 1")
        if not isinstance(max_frame_bytes, int) or isinstance(max_frame_bytes, bool) \
                or max_frame_bytes < 1024:
            raise ConfigurationError("max_frame_bytes must be an integer >= 1024")
        self._target = target
        self._host = host
        self._port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_in_flight = max_in_flight
        self.tracer = tracer
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: Set[_Connection] = set()
        self._address: Optional[Tuple[str, int]] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        registry = registry or default_registry()
        self._m_connections = registry.gauge(
            "repro_net_connections", "Open client connections"
        )
        self._m_requests = registry.counter(
            "repro_net_requests_total", "Wire requests by response status", ("status",)
        )
        self._m_close_errors = internal_errors(registry, "server.close")

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "NetworkServer":
        """Bind and begin accepting; returns once the listen socket is live."""
        if self._thread is not None:
            raise ConfigurationError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="net-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise NetworkError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        if self._address is None:
            raise NetworkError("server failed to start within 10s")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._serve_connection, self._host, self._port)
            )
        except Exception as exc:  # bind failure, bad host, ...
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._server = server
        sock = server.sockets[0].getsockname()
        self._address = (sock[0], sock[1])
        logger.info("network server listening on %s:%d", *self._address)
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._shutdown_async())
            loop.close()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        if self._address is None:
            raise NetworkError("server is not started")
        return self._address

    @property
    def is_running(self) -> bool:
        return self._address is not None and not self._closed

    def close(self) -> None:
        """Stop accepting, close every connection, and join the loop thread.
        Idempotent.  In-flight runtime work still completes (futures resolve)
        but responses to closed sockets are dropped."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        logger.info("network server on %s closed",
                    f"{self._address[0]}:{self._address[1]}" if self._address else "?")

    async def _shutdown_async(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            try:
                conn.queue.put_nowait(_CLOSE)
                conn.writer.close()
            except Exception:
                self._close_failed(conn.peer)
        # let writer tasks observe their sentinels/cancellation
        pending = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def __enter__(self) -> "NetworkServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-connection handling (loop thread) -----------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self._m_connections.inc()
        writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            while not self._closed:
                try:
                    body = await async_read_frame(reader, self.max_frame_bytes)
                except FrameTooLargeError as exc:
                    self._reply_error(conn, "frame_too_large", str(exc), None)
                    continue
                except NetworkError as exc:  # malformed JSON body
                    self._reply_error(conn, "bad_request", str(exc), None)
                    continue
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                self._handle_request(conn, body)
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(conn)
            self._m_connections.dec()
            conn.queue.put_nowait(_CLOSE)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            try:
                writer.close()
            except Exception:
                self._close_failed(conn.peer)

    def _close_failed(self, peer: str) -> None:
        logger.warning("closing the connection to %s failed", peer, exc_info=True)
        self._m_close_errors.inc()

    def _handle_request(self, conn: _Connection, body: Dict[str, Any]) -> None:
        t_recv = time.monotonic()
        request_id = body.get("id")
        op = body.get("op")
        if not isinstance(op, str) or not op:
            self._reply_error(conn, "bad_request", "request must carry a string 'op'",
                              request_id)
            return
        if conn.in_flight >= self.max_in_flight:
            self._reply_error(
                conn, "overloaded",
                f"connection has {conn.in_flight} requests in flight "
                f"(max_in_flight={self.max_in_flight})", request_id,
            )
            return
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
                self._reply_error(conn, "bad_request", "'deadline_ms' must be a number",
                                  request_id)
                return
            if deadline_ms <= 0:
                self._reply_error(conn, "deadline_exceeded",
                                  "request deadline expired before dispatch", request_id)
                return
        try:
            payload = decode(body.get("payload"))
        except (NetworkError, KeyError, TypeError, ValueError) as exc:
            self._reply_error(conn, "bad_request", f"undecodable payload: {exc}",
                              request_id)
            return
        root = None
        if self.tracer is not None:
            root = self.tracer.start_trace(
                "serving.request", op=op, transport="tcp", peer=conn.peer
            )
        try:
            future = self._target.submit(
                op, payload, trace=root,
                deadline=None if deadline_ms is None else t_recv + deadline_ms / 1e3,
            )
        except ServiceOverloadedError as exc:
            self._end_root(root, "overloaded")
            self._reply_error(conn, "overloaded", str(exc), request_id)
            return
        except ServiceClosedError as exc:
            self._end_root(root, "closed")
            self._reply_error(conn, "closed", str(exc), request_id)
            return
        except ConfigurationError as exc:
            self._end_root(root, "unknown_op")
            self._reply_error(conn, "unknown_op", str(exc), request_id)
            return
        except NetworkError as exc:  # no healthy replica
            self._end_root(root, "unavailable")
            self._reply_error(conn, "unavailable", str(exc), request_id)
            return
        if root is not None and self.tracer is not None:
            self.tracer.record_span("net.receive", root, t_recv, time.monotonic(),
                                    bytes_op=op)
        conn.in_flight += 1
        future.add_done_callback(
            lambda fut: self._on_result(conn, request_id, root, fut)
        )

    def _end_root(self, root, status: str) -> None:
        if root is not None and self.tracer is not None:
            self.tracer.end(root, status=status)

    def _reply_error(self, conn: _Connection, error_type: str, message: str,
                     request_id: Optional[int]) -> None:
        """Queue a typed error frame (loop thread only)."""
        self._m_requests.labels(status=error_type).inc()
        frame = encode_frame(error_body(error_type, message, request_id),
                             self.max_frame_bytes)
        conn.queue.put_nowait((frame, None, False))

    # -- completion path (runtime worker threads) --------------------------------
    def _on_result(self, conn: _Connection, request_id: Optional[int],
                   root, future: Future) -> None:
        t_start = time.monotonic()
        status = "ok"
        try:
            body: Dict[str, Any] = {"id": request_id, "ok": True, "result": future.result()}
        except ServiceOverloadedError as exc:
            status, body = "overloaded", error_body("overloaded", str(exc), request_id)
        except ServiceClosedError as exc:
            status, body = "closed", error_body("closed", str(exc), request_id)
        except DeadlineExceededError as exc:  # expired while queued
            status, body = "deadline_exceeded", error_body(
                "deadline_exceeded", str(exc), request_id)
        except NetworkError as exc:
            status, body = "unavailable", error_body("unavailable", str(exc), request_id)
        except ValidationError as exc:  # the handler refused the caller's data
            status, body = "bad_request", error_body("bad_request", str(exc), request_id)
        except Exception as exc:  # handler raised: typed internal error
            status, body = "internal", error_body("internal", f"{type(exc).__name__}: {exc}",
                                                  request_id)
        try:
            if status == "ok":
                body["result"] = encode(body["result"])
            frame = encode_frame(body, self.max_frame_bytes)
        except FrameTooLargeError as exc:
            status = "frame_too_large"
            frame = encode_frame(error_body("frame_too_large", str(exc), request_id),
                                 self.max_frame_bytes)
        except NetworkError as exc:  # unencodable result value
            status = "internal"
            frame = encode_frame(error_body("internal", str(exc), request_id),
                                 self.max_frame_bytes)
        self._m_requests.labels(status=status).inc()
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._enqueue_response, conn, frame, root, status)
        except RuntimeError:  # loop already closed; response undeliverable
            self._end_root(root, status)

    def _enqueue_response(self, conn: _Connection, frame: bytes, root,
                          status: str) -> None:
        conn.in_flight = max(0, conn.in_flight - 1)
        conn.queue.put_nowait((frame, root, True))

    async def _write_loop(self, conn: _Connection) -> None:
        """Single writer per connection: frames never interleave."""
        while True:
            item = await conn.queue.get()
            if item is _CLOSE:
                return
            frame, root, _counted = item
            t_start = time.monotonic()
            try:
                conn.writer.write(frame)
                await conn.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self._end_root(root, "ok")
                return
            if root is not None and self.tracer is not None:
                self.tracer.record_span("net.respond", root, t_start,
                                        time.monotonic(), bytes=len(frame))
                self.tracer.end(root)


class NetworkService:
    """Operator handle over one served deployment: server + replicas (+
    autoscaler).  Returned by ``Deployment.serve_network``."""

    def __init__(
        self,
        server: NetworkServer,
        replica_set: ReplicaSet,
        autoscaler: Optional[Autoscaler] = None,
    ):
        self.server = server
        self.replica_set = replica_set
        self.autoscaler = autoscaler
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def rolling_deploy(self, model: Any, version: str,
                       drain_timeout_s: float = 30.0) -> Any:
        """Deploy ``model`` as ``version`` replica-by-replica with zero
        downtime (see :meth:`ReplicaSet.rolling_swap`)."""
        return self.replica_set.rolling_swap(model, version,
                                             drain_timeout_s=drain_timeout_s)

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "address": list(self.server.address),
            "replica_set": self.replica_set.snapshot(),
        }
        if self.autoscaler is not None:
            history = self.autoscaler.history
            snap["autoscaler"] = {
                "policy": self.autoscaler.policy.to_dict(),
                "decisions": len(history),
                "last_decision": history[-1] if history else None,
            }
        return snap

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Quiesce: block until every accepted request has resolved."""
        return self.replica_set.drain(timeout=timeout)

    def close(self) -> None:
        """Orderly teardown: autoscaler first (no more resizing), then the
        server (no more intake), then the replicas (drain-on-shutdown)."""
        if self._closed:
            return
        self._closed = True
        if self.autoscaler is not None:
            self.autoscaler.stop()
        self.server.close()
        self.replica_set.close()

    def __enter__(self) -> "NetworkService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
