"""Tests of the network serving plane (repro.net).

Covers the issue's fault-path satellites explicitly — client
retry-then-succeed on a dropped connection, typed rejection of oversized
frames with the connection staying usable, and the kill-one-replica chaos
run asserting zero lost accepted requests — plus the wire codec, deadlines,
per-connection in-flight caps, replica balancing/ejection, zero-downtime
rolling deploys with version-stamped responses, and the autoscaler's
hysteresis/cooldown control law under a fake clock.
"""

import asyncio
import base64
import json
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.net import (
    AsyncNetworkClient,
    AutoscalePolicy,
    Autoscaler,
    NetworkClient,
    NetworkServer,
    ReplicaSet,
    decode,
    encode,
    encode_frame,
    error_body,
    read_frame,
    write_frame,
)
from repro.net.protocol import _MARKER, async_read_frame
from repro.observability.metrics import MetricsRegistry, default_registry
from repro.serving import BatchingPolicy, ModelHandle, ServingRuntime, versioned_handler
from repro.serving.hot_swap import VersionedResult
from repro.utils.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FrameTooLargeError,
    NetworkError,
    RemoteError,
    ServiceClosedError,
)


# ---------------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------------
def _runtime_factory(handler=None, num_workers=1, **policy_kwargs):
    """A ReplicaSet factory over a trivial batch handler."""
    handler = handler or (lambda xs: [2 * x for x in xs])
    policy_kwargs.setdefault("max_wait_ms", 1.0)

    def factory(replica_id):
        runtime = ServingRuntime(
            {"double": handler},
            policy=BatchingPolicy(**policy_kwargs),
            num_workers=num_workers,
        )
        runtime.start()
        return runtime, None

    return factory


def _replica_set(**kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("health_interval_s", None)  # probe explicitly in tests
    policy_kwargs = {
        key: kwargs.pop(key)
        for key in ("max_wait_ms", "max_batch_size", "max_queue_depth")
        if key in kwargs
    }
    return ReplicaSet(_runtime_factory(**policy_kwargs), **kwargs)


# ---------------------------------------------------------------------------------
# Wire codec and framing
# ---------------------------------------------------------------------------------
#: Values the wire carries, each a case the codec must hand back unchanged:
#: its type, and for arrays the dtype (byte order included), shape and elements.
CODEC_VALUES = [
    None,
    True,
    42,
    3.5,
    "text",
    [1, 2, 3],
    {"a": 1, "b": [2.5, "x"]},
    (1, "two", 3.0),
    b"\x00\x01binary",
    np.arange(12, dtype=np.float32).reshape(3, 4),
    np.array([1, 2, 3], dtype=np.int64),
    {"nested": (np.float64(1.5), [b"raw", {"deep": (1,)}])},
    VersionedResult("v7", {"probs": np.ones(3, dtype=np.float32)}),
    np.array(3.5),
    np.empty((0, 4)),
    np.arange(24.0).reshape(4, 6)[1:, ::2],
    np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4)),
    np.arange(5, dtype=">f8"),
    np.array([np.nan, np.inf, -np.inf, 0.0]),
    np.array([True, False, True]),
    np.arange(250, 256, dtype=np.uint8),
    np.array([-128, -1, 127], dtype=np.int8),
    np.array([0.5, 65504.0], dtype=np.float16),
    np.array([1 + 2j, -3.5j]),
    np.array(["a", "βγ"]),
]


def assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, np.generic):  # a numpy scalar crosses as its Python value
        assert type(b) is type(a.item()) and b == a.item()
    elif isinstance(a, VersionedResult):
        assert isinstance(b, VersionedResult) and a.version == b.version
        assert_same(a.value, b.value)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert set(a) == set(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, bytearray):  # crosses as bytes
        assert type(b) is bytes and a == b
    elif isinstance(a, float) and a != a:  # nan
        assert type(b) is float and b != b
    else:
        assert a == b and type(a) is type(b)


class _SentBytes:
    """The reading end of a socket the given bytes were sent down."""

    def __init__(self, data):
        self._data = memoryview(data)

    def recv(self, n):
        chunk, self._data = self._data[:n], self._data[n:]
        return bytes(chunk)


def _across_the_wire(value):
    """``value`` as the far end reads it: framed, read back and decoded."""
    frame = encode_frame({"id": 1, "payload": encode(value)})
    return decode(read_frame(_SentBytes(frame))["payload"])


@pytest.mark.parametrize("value", CODEC_VALUES)
def test_codec_round_trips(value):
    assert_same(value, _across_the_wire(value))


def _reference_encode(value):
    """The codec as it was before sections: each array's and bytes value's
    data an eager base64 str inside the JSON tree."""
    if isinstance(value, np.ndarray):
        return {"__repro__": "ndarray", "dtype": str(value.dtype), "shape": list(value.shape),
                "data": base64.b64encode(value.tobytes()).decode("ascii")}
    if isinstance(value, VersionedResult):
        return {"__repro__": "versioned", "version": value.version,
                "value": _reference_encode(value.value)}
    if isinstance(value, tuple):
        return {"__repro__": "tuple", "items": [_reference_encode(v) for v in value]}
    if isinstance(value, (bytes, bytearray)):
        return {"__repro__": "bytes", "data": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, list):
        return [_reference_encode(v) for v in value]
    if isinstance(value, dict):
        return {key: _reference_encode(v) for key, v in value.items()}
    return value


def _reference_frame(body):
    data = json.dumps(_reference_encode(body), separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _laid_out(array, layout):
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        return array[..., ::2]
    if layout == "big-endian":
        return array.astype(array.dtype.newbyteorder(">"))
    return array


#: Strings built from the characters JSON escapes, non-ASCII text and the
#: marker a section stands in as, alone and inside longer strings.
_strings = st.lists(
    st.sampled_from(["a", "\x00", '"', "\\", "é", "βγ", "\u2028", "section", "\\u0000",
                     _MARKER]) | st.text(max_size=3),
    max_size=4,
).map("".join)
_arrays = st.builds(
    _laid_out,
    st.sampled_from(sorted({v.dtype.str for v in CODEC_VALUES if isinstance(v, np.ndarray)}))
    .flatmap(lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3,
                                                              min_side=0, max_side=4))),
    st.sampled_from(["c", "fortran", "strided", "big-endian"]),
)
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _strings
    | st.binary(max_size=8) | st.binary(max_size=8).map(bytearray) | _arrays,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_strings, children, max_size=3)
    | st.builds(VersionedResult, _strings, children),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(value=_values)
def test_frames_match_the_eager_codec_byte_for_byte_and_round_trip(value):
    body = {"id": 1, "payload": value}
    frame = encode_frame(encode(body))
    assert frame == _reference_frame(body)
    assert_same(value, decode(read_frame(_SentBytes(frame))["payload"]))


@pytest.fixture(scope="module")
def echo_service():
    """One replica echoing each request, behind a server and a client."""

    def factory(replica_id):
        runtime = ServingRuntime({"echo": lambda batch: batch})
        runtime.start()
        return runtime, None

    rs = ReplicaSet(factory, replicas=1, health_interval_s=None)
    try:
        with NetworkServer(rs) as server, NetworkClient(*server.address) as client:
            yield rs, client
    finally:
        rs.close()


@pytest.mark.parametrize("value", CODEC_VALUES)
def test_the_wire_answers_what_the_replica_set_answers_in_process(echo_service, value):
    rs, client = echo_service
    assert_same(rs.call("echo", value, timeout=10.0), client.call("echo", value))


def test_codec_rejects_unencodable_values_and_non_string_keys():
    with pytest.raises(NetworkError, match="cannot encode"):
        encode(object())
    with pytest.raises(NetworkError, match="keys must be strings"):
        encode({1: "x"})
    with pytest.raises(NetworkError, match="cannot encode an array of dtype object"):
        encode({"rows": np.array([{"n": 1}, None], dtype=object)})
    with pytest.raises(NetworkError, match="unknown encoded kind"):
        decode({"__repro__": "martian"})


def test_error_body_validates_the_error_type():
    body = error_body("overloaded", "busy", request_id=7)
    assert body == {"id": 7, "ok": False,
                    "error": {"type": "overloaded", "message": "busy"}}
    with pytest.raises(NetworkError, match="unknown error type"):
        error_body("not-a-thing", "boom")


def test_frames_round_trip_over_a_socketpair_and_oversize_is_typed():
    a, b = socket.socketpair()
    try:
        write_frame(a, {"id": 1, "payload": encode(np.arange(4))})
        frame = read_frame(b)
        assert frame["id"] == 1
        np.testing.assert_array_equal(decode(frame["payload"]), np.arange(4))
        # outgoing oversize fails fast, before any bytes hit the wire
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * 2048}, max_frame_bytes=1024)
        # incoming oversize is drained: the stream stays framed and usable
        write_frame(a, {"blob": "y" * 4096})
        with pytest.raises(FrameTooLargeError):
            read_frame(b, max_frame_bytes=1024)
        write_frame(a, {"id": 2})
        assert read_frame(b)["id"] == 2
    finally:
        a.close()
        b.close()


def test_a_peer_that_hangs_up_mid_drain_fails_the_read_at_once():
    a, b = socket.socketpair()
    a.sendall(struct.pack(">I", 2 ** 31) + b"x" * 10)  # declares 2 GiB, then hangs up
    a.close()
    raised = []

    def read():
        try:
            read_frame(b, max_frame_bytes=1024)
        except Exception as exc:
            raised.append(exc)

    reader = threading.Thread(target=read, daemon=True)
    try:
        reader.start()
        reader.join(timeout=1.0)
        assert not reader.is_alive(), "the reader is still draining a closed socket"
        assert len(raised) == 1 and isinstance(raised[0], ConnectionError)
    finally:
        b.close()

    async def read_async():
        stream = asyncio.StreamReader()
        stream.feed_data(struct.pack(">I", 2 ** 31) + b"x" * 10)
        stream.feed_eof()
        await async_read_frame(stream, max_frame_bytes=1024)

    with pytest.raises(asyncio.IncompleteReadError):
        asyncio.run(read_async())


# ---------------------------------------------------------------------------------
# Server + client basics
# ---------------------------------------------------------------------------------
def test_server_round_trip_unknown_op_and_parity_with_in_process():
    rs = _replica_set()
    with NetworkServer(rs) as server:
        host, port = server.address
        with NetworkClient(host, port) as client:
            assert client.call("double", 21) == 42
            arr = np.linspace(0, 1, 6, dtype=np.float64).reshape(2, 3)
            np.testing.assert_array_equal(client.call("double", arr), 2 * arr)
            # response parity: the wire answer equals the in-process answer
            assert client.call("double", 7) == rs.call("double", 7)
            with pytest.raises(RemoteError, match="unknown_op") as exc_info:
                client.call("nope", 1)
            assert exc_info.value.error_type == "unknown_op"
            assert client.ping()
    rs.close()


def test_server_rejects_oversized_frame_with_typed_error_not_a_hang():
    """Satellite: an oversized frame draws a typed error frame and the SAME
    connection keeps working afterwards — no hang, no desynchronised stream."""
    rs = _replica_set()
    with NetworkServer(rs, max_frame_bytes=4096) as server:
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.settimeout(10.0)
            # a frame well past the server's 4 KiB bound
            write_frame(sock, {"id": 1, "op": "double", "payload": "z" * 65536})
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "frame_too_large"
            assert response["id"] is None  # the body was never parsed
            # the connection is still framed: a normal request succeeds on it
            write_frame(sock, {"id": 2, "op": "double", "payload": 5})
            response = read_frame(sock)
            assert response["ok"] is True and response["id"] == 2
            assert decode(response["result"]) == 10
        finally:
            sock.close()
        # and the pooled client maps the typed error to FrameTooLargeError
        with NetworkClient(host, port, retries=0, max_frame_bytes=65536 * 4) as client:
            with pytest.raises(RemoteError, match="frame_too_large"):
                client.call("double", "z" * 65536)
    rs.close()


def test_malformed_frame_draws_bad_request_and_connection_survives():
    rs = _replica_set()
    with NetworkServer(rs) as server:
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.settimeout(10.0)
            payload = b"this is not json"
            sock.sendall(len(payload).to_bytes(4, "big") + payload)
            response = read_frame(sock)
            assert response["error"]["type"] == "bad_request"
            # a well-formed request without an op is also bad_request, with id
            write_frame(sock, {"id": 9, "payload": 1})
            response = read_frame(sock)
            assert response["error"]["type"] == "bad_request"
            assert response["id"] == 9
            write_frame(sock, {"id": 10, "op": "double", "payload": 3})
            assert decode(read_frame(sock)["result"]) == 6
        finally:
            sock.close()
    rs.close()


def test_a_frame_from_an_older_client_carrying_a_tenant_is_served():
    rs = _replica_set()
    with NetworkServer(rs) as server:
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.settimeout(10.0)
            write_frame(sock, {"id": 1, "op": "double", "payload": 4, "tenant": "a",
                               "deadline_ms": None})
            response = read_frame(sock)
            assert response["ok"] is True and response["id"] == 1
            assert decode(response["result"]) == 8
        finally:
            sock.close()
    rs.close()


@pytest.mark.parametrize("result", [{1, 2}, np.array([{"n": 1}], dtype=object)],
                         ids=["set", "object-array"])
def test_an_unencodable_result_is_internal_and_the_handler_runs_once(result):
    """The codec refusing a handler's result is a server bug, not a transient
    fault: the client gets ``internal`` at once instead of re-running the handler."""
    runs = []

    def handler(batch):
        runs.append(len(batch))
        return [result for _ in batch]

    rs = ReplicaSet(_runtime_factory(handler), replicas=1, health_interval_s=None)
    try:
        with NetworkServer(rs) as server:
            with NetworkClient(*server.address, retries=3, backoff_base_s=0.01) as client:
                with pytest.raises(RemoteError, match="cannot encode") as refused:
                    client.call("double", 1)
        assert refused.value.error_type == "internal"
        assert runs == [1]
    finally:
        rs.close()


def test_client_retries_then_succeeds_after_dropped_connection():
    """Satellite: a dropped connection is a transient fault — the client's
    jittered-backoff retry dials a fresh connection and the call succeeds."""
    rs = _replica_set()
    server = NetworkServer(rs).start()
    host, port = server.address
    client = NetworkClient(host, port, retries=4, backoff_base_s=0.01)
    try:
        assert client.call("double", 1) == 2  # pools a live connection
        server.close()  # drops every connection; the pooled socket is now dead
        server = NetworkServer(rs, host=host, port=port).start()
        assert server.address == (host, port)
        # first attempt fails on the dead pooled socket; a retry reconnects
        assert client.call("double", 2) == 4
    finally:
        client.close()
        server.close()
        rs.close()


def test_client_deadline_exceeded_on_slow_handler():
    gate = threading.Event()

    def slow(xs):
        gate.wait(timeout=30.0)
        return [2 * x for x in xs]

    rs = ReplicaSet(_runtime_factory(handler=slow), replicas=1,
                    health_interval_s=None)
    try:
        with NetworkServer(rs) as server:
            with NetworkClient(*server.address, retries=0) as client:
                start = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    client.call("double", 1, timeout=0.3)
                assert time.monotonic() - start < 5.0
                gate.set()
    finally:
        gate.set()
        rs.close()


def test_expired_deadline_budget_is_failed_fast_by_the_server():
    rs = _replica_set()
    with NetworkServer(rs) as server:
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.settimeout(10.0)
            write_frame(sock, {"id": 1, "op": "double", "payload": 1,
                               "deadline_ms": -5.0})
            response = read_frame(sock)
            assert response["error"]["type"] == "deadline_exceeded"
        finally:
            sock.close()
    rs.close()


def test_deadline_that_expires_while_queued_draws_the_typed_error_from_the_worker():
    """The wire ``deadline_ms`` travels into the runtime: requests that expire
    behind a busy worker are answered ``deadline_exceeded`` when it picks them
    up — typed, counted, never a hang — and never reach the handler."""
    from repro.observability.metrics import MetricsRegistry, default_registry

    entered, gate, handled = threading.Event(), threading.Event(), []

    def gated(xs):
        handled.extend(xs)
        entered.set()
        gate.wait(timeout=30.0)
        return [2 * x for x in xs]

    registry = MetricsRegistry()
    rs = ReplicaSet(_runtime_factory(handler=gated), replicas=1,
                    health_interval_s=None)
    try:
        with NetworkServer(rs, registry=registry) as server:
            sock = socket.create_connection(server.address, timeout=10.0)
            try:
                sock.settimeout(10.0)
                write_frame(sock, {"id": 0, "op": "double", "payload": 100})
                assert entered.wait(timeout=10.0)  # the one worker is busy
                for rid in (1, 2, 3):
                    write_frame(sock, {"id": rid, "op": "double", "payload": rid,
                                       "deadline_ms": 10.0})
                patience = time.monotonic() + 10.0
                while rs.total_load() < 4 and time.monotonic() < patience:
                    time.sleep(0.001)
                assert rs.total_load() == 4  # all three dispatched and queued
                time.sleep(0.03)  # budgets spent behind the gate
                gate.set()
                responses = {r["id"]: r for r in (read_frame(sock) for _ in range(4))}
            finally:
                sock.close()
        assert decode(responses[0]["result"]) == 200
        for rid in (1, 2, 3):
            assert responses[rid]["ok"] is False
            assert responses[rid]["error"]["type"] == "deadline_exceeded"
        assert handled == [100]
        counted = registry.get("repro_net_requests_total")
        assert counted.labels(status="deadline_exceeded").value == 3.0
        assert counted.labels(status="ok").value == 1.0
    finally:
        gate.set()
        rs.close()


def test_non_numeric_deadline_is_a_bad_request_and_the_connection_survives():
    rs = _replica_set()
    with NetworkServer(rs) as server:
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            sock.settimeout(10.0)
            write_frame(sock, {"id": 1, "op": "double", "payload": 1,
                               "deadline_ms": "soon"})
            assert read_frame(sock)["error"]["type"] == "bad_request"
            write_frame(sock, {"id": 2, "op": "double", "payload": 3,
                               "deadline_ms": 5_000})
            assert decode(read_frame(sock)["result"]) == 6
        finally:
            sock.close()
    rs.close()


def test_per_connection_in_flight_cap_rejects_with_overloaded():
    gate = threading.Event()

    def slow(xs):
        gate.wait(timeout=30.0)
        return [2 * x for x in xs]

    rs = ReplicaSet(_runtime_factory(handler=slow), replicas=1,
                    health_interval_s=None)
    try:
        with NetworkServer(rs, max_in_flight=1) as server:
            sock = socket.create_connection(server.address, timeout=10.0)
            try:
                sock.settimeout(10.0)
                write_frame(sock, {"id": 1, "op": "double", "payload": 1})
                write_frame(sock, {"id": 2, "op": "double", "payload": 2})
                first = read_frame(sock)  # the cap rejection arrives first
                assert first["id"] == 2
                assert first["error"]["type"] == "overloaded"
                gate.set()
                second = read_frame(sock)
                assert second["id"] == 1 and decode(second["result"]) == 2
            finally:
                sock.close()
    finally:
        gate.set()
        rs.close()


def test_async_client_multiplexes_concurrent_calls():
    rs = _replica_set()
    server = NetworkServer(rs).start()
    host, port = server.address

    async def burst():
        async with AsyncNetworkClient(host, port) as client:
            results = await asyncio.gather(
                *[client.call("double", i) for i in range(40)]
            )
            return results

    try:
        assert asyncio.run(burst()) == [2 * i for i in range(40)]
    finally:
        server.close()
        rs.close()


def test_a_reader_task_that_failed_is_counted_and_logged_at_close():
    rs = _replica_set()
    server = NetworkServer(rs).start()
    host, port = server.address
    errors = default_registry().counter(
        "repro_internal_errors_total", "", ("site",)).labels(site="client.close")
    before = errors.value
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.net.client")
    logger.addHandler(handler)

    async def fail_the_reader():
        async def boom():
            raise ValueError("a frame the reader could not take")

        client = await AsyncNetworkClient(host, port).connect()
        assert await client.call("double", 3) == 6
        client._reader_task.cancel()
        client._reader_task = asyncio.ensure_future(boom())
        await asyncio.sleep(0)
        await client.close()

    try:
        asyncio.run(fail_the_reader())
    finally:
        logger.removeHandler(handler)
        server.close()
        rs.close()
    assert errors.value == before + 1
    assert [r.exc_info[0] for r in records if r.exc_info] == [ValueError]


# ---------------------------------------------------------------------------------
# Replica sets: balancing, health, scaling
# ---------------------------------------------------------------------------------
def test_replica_set_validation():
    with pytest.raises(ConfigurationError, match="replicas"):
        ReplicaSet(_runtime_factory(), replicas=0)
    with pytest.raises(ConfigurationError, match="eject_after"):
        ReplicaSet(_runtime_factory(), replicas=1, eject_after=0)


def test_balancer_spreads_load_across_replicas():
    rs = _replica_set(replicas=2)
    try:
        futures = [rs.submit("double", i) for i in range(64)]
        assert [f.result(timeout=30.0) for f in futures] == [2 * i for i in range(64)]
        served = [r.runtime.telemetry_snapshot()["completed"] for r in rs.replicas]
        assert sum(served) == 64
        assert all(count > 0 for count in served)  # both replicas took traffic
    finally:
        rs.close()


def test_dead_replica_is_routed_around_and_ejected():
    rs = _replica_set(replicas=2, eject_after=1)
    try:
        victim = rs.replicas[0]
        victim.runtime.shutdown()  # simulated crash
        # every submit still succeeds: the balancer fails over transparently
        assert [rs.submit("double", i).result(timeout=30.0) for i in range(16)] \
            == [2 * i for i in range(16)]
        health = rs.check_health()
        assert health[victim.id] is False
        assert not victim.accepting
        assert rs.snapshot()["healthy"] == 1
    finally:
        rs.close()


def test_every_replica_dead_surfaces_the_runtime_error():
    rs = _replica_set(replicas=1)
    try:
        rs.replicas[0].runtime.shutdown()
        with pytest.raises((NetworkError, ServiceClosedError)):
            rs.submit("double", 1)
    finally:
        rs.close()


def test_scale_to_drains_retired_replicas_without_dropping_requests():
    rs = _replica_set(replicas=3, max_wait_ms=5.0)
    try:
        futures = [rs.submit("double", i) for i in range(48)]
        assert rs.scale_to(1) == 1
        assert len(rs) == 1
        # every request accepted before the scale-down still resolves
        assert [f.result(timeout=30.0) for f in futures] == [2 * i for i in range(48)]
        assert rs.scale_to(3) == 3
        assert rs.submit("double", 5).result(timeout=30.0) == 10
    finally:
        rs.close()


def test_health_loop_ejects_and_recovers_via_probe():
    flags = {0: True, 1: True}
    rs = ReplicaSet(
        _runtime_factory(), replicas=2, eject_after=2,
        health_interval_s=None, probe=lambda replica: flags[replica.id],
    )
    try:
        rs.check_health()
        assert rs.snapshot()["healthy"] == 2
        flags[0] = False
        rs.check_health()  # one failure: below eject_after, still healthy
        assert rs.replicas[0].healthy
        rs.check_health()  # second consecutive failure ejects
        assert not rs.replicas[0].healthy
        flags[0] = True  # a passing probe revives it
        rs.check_health()
        assert rs.replicas[0].healthy and rs.replicas[0].accepting
    finally:
        rs.close()


def test_a_raising_probe_ejects_like_a_failing_one_and_is_counted_and_logged():
    def probe(replica):
        if replica.id == 0:
            raise RuntimeError("probe bug")
        return True

    registry = MetricsRegistry()
    rs = ReplicaSet(_runtime_factory(), replicas=2, eject_after=2, health_interval_s=None,
                    probe=probe, registry=registry)
    # repro loggers do not propagate to root (caplog can't see them).
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.net.replica")
    logger.addHandler(handler)
    errors = registry.get("repro_internal_errors_total").labels(site="replica.probe")
    try:
        assert rs.check_health() == {0: True, 1: True}  # one failure: below eject_after
        assert errors.value == 1.0
        assert rs.check_health() == {0: False, 1: True}  # the second ejects
        assert errors.value == 2.0 and not rs.replicas[0].accepting
    finally:
        logger.removeHandler(handler)
        rs.close()
    raised = [r for r in records if r.levelno >= logging.ERROR]
    assert len(raised) == 2 and all(r.exc_info is not None for r in raised)


def test_a_raising_connection_close_is_counted_and_logged_and_close_still_joins():
    registry = MetricsRegistry()
    rs = _replica_set()
    server = NetworkServer(rs, registry=registry).start()
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.net.server")
    logger.addHandler(handler)
    errors = registry.get("repro_internal_errors_total").labels(site="server.close")
    sock = socket.create_connection(server.address, timeout=10.0)
    try:
        sock.settimeout(10.0)
        write_frame(sock, {"id": 1, "op": "double", "payload": 2})
        assert decode(read_frame(sock)["result"]) == 4  # the connection is registered
        (conn,) = server._connections
        real_close = conn.writer.close

        def raising_close():
            real_close()  # the transport still closes; only the call raises
            raise OSError("close failed")

        conn.writer.close = raising_close
        server.close()
        assert not server._thread.is_alive()
        # Both sites: the shutdown pass and the connection's own teardown.
        assert errors.value == 2.0
    finally:
        logger.removeHandler(handler)
        sock.close()
        rs.close()
    failed = [r for r in records if "closing the connection" in r.getMessage()]
    assert len(failed) == 2 and all(r.exc_info is not None for r in failed)


# ---------------------------------------------------------------------------------
# Chaos: kill a replica under concurrent wire load — zero lost requests
# ---------------------------------------------------------------------------------
def test_kill_one_replica_under_load_loses_no_accepted_request():
    rs = _replica_set(replicas=2, eject_after=1)
    server = NetworkServer(rs).start()
    host, port = server.address
    n_threads, per_thread = 8, 25
    results: dict = {}
    errors: list = []
    started = threading.Barrier(n_threads + 1)

    def worker(worker_id):
        with NetworkClient(host, port, retries=5, backoff_base_s=0.005,
                           timeout_s=60.0) as client:
            started.wait(timeout=30.0)
            for i in range(per_thread):
                key = worker_id * per_thread + i
                try:
                    results[key] = client.call("double", key)
                except Exception as exc:  # any loss/error fails the test
                    errors.append((key, exc))

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(n_threads)]
    for thread in threads:
        thread.start()
    started.wait(timeout=30.0)
    time.sleep(0.05)  # let the burst get going
    rs.replicas[0].runtime.shutdown()  # chaos: hard-kill one replica mid-load
    for thread in threads:
        thread.join(timeout=120.0)
    try:
        assert errors == []
        assert len(results) == n_threads * per_thread
        assert all(results[k] == 2 * k for k in results)
        # the kill actually bit: the dead replica took no traffic afterwards
        assert not rs.replicas[0].runtime.is_running
    finally:
        server.close()
        rs.close()


# ---------------------------------------------------------------------------------
# Rolling deploys: zero downtime, version-stamped responses
# ---------------------------------------------------------------------------------
def _model_factory():
    """Replicas serving a versioned 'model' (a multiplier) via their own
    hot-swappable handle — the shape Deployment uses for predict."""

    def factory(replica_id):
        handle = ModelHandle(model=10, version="v1")
        runtime = ServingRuntime(
            {"predict": versioned_handler(
                handle, lambda model, xs: [model * x for x in xs])},
            policy=BatchingPolicy(max_batch_size=8, max_wait_ms=1.0),
            num_workers=1,
        )
        runtime.start()
        return runtime, handle

    return factory


def test_rolling_swap_requires_model_handles():
    rs = _replica_set(replicas=1)
    try:
        with pytest.raises(ConfigurationError, match="no model handle"):
            rs.rolling_swap(3, "v2")
    finally:
        rs.close()


def test_rolling_deploy_under_concurrent_load_zero_loss_all_stamped():
    """Acceptance criterion: roll a new model version across >= 2 live
    replicas under concurrent client load with zero dropped/errored requests,
    every response stamped with the version that served it."""
    rs = ReplicaSet(_model_factory(), replicas=2, health_interval_s=None)
    server = NetworkServer(rs).start()
    host, port = server.address
    stop = threading.Event()
    responses: list = []
    errors: list = []

    def pound():
        with NetworkClient(host, port, retries=3, timeout_s=60.0) as client:
            while not stop.is_set():
                try:
                    responses.append(client.call("predict", 3))
                except Exception as exc:
                    errors.append(exc)

    threads = [threading.Thread(target=pound) for _ in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.2)  # traffic flowing on v1
    swapped = rs.rolling_swap(100, "v2", drain_timeout_s=30.0)
    time.sleep(0.2)  # traffic flowing on v2
    stop.set()
    for thread in threads:
        thread.join(timeout=60.0)
    server.close()
    rs.close()

    assert swapped == [r.id for r in rs.replicas] or len(swapped) == 2
    assert errors == []
    assert len(responses) > 0
    versions = {r.version for r in responses}
    assert versions <= {"v1", "v2"}  # every response stamped, no third state
    assert "v2" in versions          # the deploy landed while traffic flowed
    for response in responses:
        assert isinstance(response, VersionedResult)
        assert response.value == (30 if response.version == "v1" else 300)
    assert rs.versions == {0: "v2", 1: "v2"}


# ---------------------------------------------------------------------------------
# Autoscaler: hysteresis, cooldowns, staged actuation
# ---------------------------------------------------------------------------------
def test_autoscale_policy_validation():
    with pytest.raises(ConfigurationError, match="max_replicas"):
        AutoscalePolicy(min_replicas=4, max_replicas=2)
    with pytest.raises(ConfigurationError, match="max_workers"):
        AutoscalePolicy(min_workers=4, max_workers=2)
    with pytest.raises(ConfigurationError, match="hysteresis band"):
        AutoscalePolicy(low_queue_per_replica=8.0, high_queue_per_replica=8.0)
    with pytest.raises(ConfigurationError, match="interval_s"):
        AutoscalePolicy(interval_s=0)
    with pytest.raises(ConfigurationError, match="unknown AutoscalePolicy"):
        AutoscalePolicy.from_dict({"wat": 1})
    policy = AutoscalePolicy(max_replicas=8)
    assert AutoscalePolicy.from_dict(policy.to_dict()) == policy


def test_autoscaler_scales_up_under_pressure_and_down_after_cooldown():
    """Acceptance criterion: sustained queue pressure scales capacity up
    (workers first, then replicas); sustained idleness scales it back down,
    but only after down_after consecutive observations AND the cooldown."""
    gate = threading.Event()

    def gated(xs):
        gate.wait(timeout=60.0)
        return [2 * x for x in xs]

    # max_batch_size=1 so each queued request counts toward depth individually
    rs = ReplicaSet(
        _runtime_factory(handler=gated, max_batch_size=1, max_queue_depth=4096),
        replicas=1, health_interval_s=None,
    )
    clock = {"t": 0.0}
    policy = AutoscalePolicy(
        min_replicas=1, max_replicas=2, min_workers=1, max_workers=2,
        high_queue_per_replica=4.0, low_queue_per_replica=1.0,
        up_after=2, down_after=2, up_cooldown_s=5.0, down_cooldown_s=20.0,
    )
    scaler = Autoscaler(rs, policy, clock=lambda: clock["t"])
    futures = []
    try:
        # Build sustained pressure: plenty of requests stuck behind the gate.
        futures = [rs.submit("double", i) for i in range(32)]
        d1 = scaler.step()                    # pressure observed, streak=1: hold
        assert d1["direction"] == "hold" and d1["pressure"] == 1
        clock["t"] += 1.0
        d2 = scaler.step()                    # streak=2 >= up_after: scale up
        assert d2["direction"] == "up" and "workers" in d2["action"]
        assert rs.replicas[0].runtime.num_workers == 2
        clock["t"] += 1.0
        d3 = scaler.step()                    # streak resets; and cooldown holds
        assert d3["direction"] == "hold"
        clock["t"] += 10.0                    # past up_cooldown, streak still met
        d4 = scaler.step()                    # workers maxed: add a replica
        assert d4["direction"] == "up" and "replicas" in d4["action"]
        assert len(rs) == 2

        # Release the gate; drain everything -> sustained idleness.
        gate.set()
        assert all(f.result(timeout=60.0) == 2 * i for i, f in enumerate(futures))
        rs.drain(timeout=60.0)
        clock["t"] += 100.0
        d5 = scaler.step()                    # idle streak=1: hold (hysteresis)
        assert d5["direction"] == "hold" and d5["pressure"] == -1
        d6 = scaler.step()                    # streak=2: scale down (replica first)
        assert d6["direction"] == "down" and "replicas" in d6["action"]
        assert len(rs) == 1
        scaler.step()
        d7 = scaler.step()                    # streak met again, but cooldown holds
        assert d7["direction"] == "hold"
        clock["t"] += 100.0                   # past down_cooldown
        d8 = scaler.step()                    # now trim the extra worker
        assert d8["direction"] == "down" and "workers" in d8["action"]
        assert rs.replicas[0].runtime.num_workers == 1

        # the decision history records the whole trajectory, oldest first
        directions = [d["direction"] for d in scaler.history]
        assert directions.count("up") == 2 and directions.count("down") == 2
    finally:
        gate.set()
        scaler.stop()
        rs.close()


def test_autoscaler_background_loop_starts_and_stops():
    rs = _replica_set(replicas=1)
    scaler = Autoscaler(
        rs, AutoscalePolicy(interval_s=0.02, down_cooldown_s=3600.0)
    ).start()
    try:
        with pytest.raises(ConfigurationError, match="already started"):
            scaler.start()
        deadline = time.monotonic() + 10.0
        while not scaler.history and time.monotonic() < deadline:
            time.sleep(0.01)
        assert scaler.history  # the loop is stepping
    finally:
        scaler.stop()
        rs.close()
    assert len(rs) == 1  # long cooldown: the idle fleet was not shrunk


def test_raising_health_passes_and_autoscaler_steps_are_counted_and_survived():
    """Both background loops log *and* count a failed iteration, keep running,
    and still stop: their threads are joined."""
    registry = MetricsRegistry()
    rs = ReplicaSet(_runtime_factory(), replicas=1, health_interval_s=0.01, registry=registry)
    scaler = Autoscaler(rs, AutoscalePolicy(interval_s=0.01), registry=registry)

    def raising(*args, **kwargs):
        raise RuntimeError("loop bug")

    rs.check_health = raising
    scaler.step = raising
    threads = [rs._health_thread, scaler.start()._thread]
    errors = registry.get("repro_internal_errors_total")
    health = errors.labels(site="replica.health_pass")
    step = errors.labels(site="autoscaler.step")
    try:
        deadline = time.monotonic() + 10.0
        while min(health.value, step.value) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert health.value >= 3 and step.value >= 3  # counted, and the loops went on
    finally:
        scaler.stop()
        rs.close()
    assert not any(thread.is_alive() for thread in threads)


# ---------------------------------------------------------------------------------
# Tracing integration
# ---------------------------------------------------------------------------------
def test_server_grafts_runtime_spans_under_one_request_root():
    from repro.observability.tracing import Tracer

    tracer = Tracer(sample_rate=1.0)

    def factory(replica_id):
        runtime = ServingRuntime(
            {"double": lambda xs: [2 * x for x in xs]},
            policy=BatchingPolicy(max_wait_ms=1.0),
            num_workers=1,
            tracer=tracer,
        )
        runtime.start()
        return runtime, None

    rs = ReplicaSet(factory, replicas=1, health_interval_s=None)
    try:
        with NetworkServer(rs, tracer=tracer) as server:
            with NetworkClient(*server.address) as client:
                assert client.call("double", 4) == 8
        rs.drain(timeout=30.0)
        spans = tracer.finished_spans()
        roots = [s for s in spans if s.name == "serving.request"]
        assert len(roots) == 1  # ONE root for the whole request, opened by the server
        children = {s.name for s in spans if s.parent_id == roots[0].span_id}
        assert "net.receive" in children and "net.respond" in children
        # the runtime's lifecycle spans landed under the same trace
        assert {s.name for s in spans if s.trace_id == roots[0].trace_id} >= {
            "serving.request", "net.receive", "net.respond",
        }
    finally:
        rs.close()


def test_a_handlers_validation_error_is_a_bad_request_and_any_other_raise_stays_internal():
    """Data the handler refuses (a 7x7 patch sent to a 15x15 deployment, an
    empty batch, a non-positive ``n_samples``) is the caller's fault: typed
    and counted ``bad_request``, so ``repro_net_requests_total{status="internal"}``
    counts server bugs only — which a handler's ``RuntimeError`` still is."""
    from unittest import mock

    from repro import Deployment, FairDS, preset

    rng = np.random.default_rng(0)
    with Deployment(preset("minimal")) as dep:
        dep.fit(rng.normal(size=(60, 15, 15)), rng.normal(size=(60, 2)))
        address = dep.serve_network().address
        counted = dep.registry.get("repro_net_requests_total")

        def count():
            return [counted.labels(status=s).value for s in ("bad_request", "internal", "ok")]

        before = count()
        with NetworkClient(*address) as client:
            for op, payload, message in [
                ("nearest_labeled", rng.normal(size=(7, 7)), "expected 225 features, got 49"),
                ("certainty", np.empty((0, 15, 15)), "images must be non-empty"),
                ("lookup_labeled_data", (rng.normal(size=(4, 15, 15)), 0), "n_samples must be >= 1"),
            ]:
                with pytest.raises(RemoteError, match=message) as refused:
                    client.call(op, payload)
                assert refused.value.error_type == "bad_request", op
            assert client.call("nearest_labeled", rng.normal(size=(15, 15)))["within"] is True
            with mock.patch.object(FairDS, "nearest_labeled", side_effect=RuntimeError("boom")):
                with pytest.raises(RemoteError, match="RuntimeError: boom") as broke:
                    client.call("nearest_labeled", rng.normal(size=(15, 15)))
            assert broke.value.error_type == "internal"
        assert [after - was for after, was in zip(count(), before)] == [3.0, 1.0, 1.0]
