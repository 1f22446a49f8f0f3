"""Concurrent serving runtime: equivalence, concurrency, drain, and overload.

The acceptance contract of the serving plane: micro-batched responses are
bit-identical to direct single calls, futures resolve under concurrent
producers, drain-on-shutdown loses no accepted request, and overload rejects
fast instead of deadlocking.
"""

import logging
import math
import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro import FairDMS, FairDS, UpdatePolicy
from repro.core import FairDMSService
from repro.embedding import PCAEmbedder
from repro.models import build_braggnn
from repro.monitoring import ArrivalOrderFeed, CertaintyTrigger
from repro.observability.metrics import MetricsRegistry, set_default_registry
from repro.nn.trainer import TrainingConfig
from repro.serving import BatchingPolicy, MicroBatcher, Request, ServingRuntime
from repro.utils.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
)


def _runtime(handler=None, **kwargs):
    handler = handler or (lambda xs: [2 * x for x in xs])
    kwargs.setdefault("policy", BatchingPolicy(max_batch_size=8, max_wait_ms=5))
    return ServingRuntime({"double": handler}, **kwargs)


# -- policy / construction validation -----------------------------------------
def test_batching_policy_validation():
    with pytest.raises(ConfigurationError):
        BatchingPolicy(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        BatchingPolicy(max_wait_ms=-1)
    with pytest.raises(ConfigurationError):
        BatchingPolicy(max_queue_depth=0)


def test_runtime_construction_validation():
    with pytest.raises(ConfigurationError):
        ServingRuntime({})
    with pytest.raises(ConfigurationError):
        ServingRuntime({"op": lambda xs: xs}, num_workers=0)
    with pytest.raises(ConfigurationError):
        ServingRuntime({"op": lambda xs: xs}, observers={"other": print})


def test_runtime_lifecycle_guards():
    rt = _runtime()
    with pytest.raises(ServiceClosedError):
        rt.submit("double", 1)  # not started
    rt.start()
    with pytest.raises(ServingError):
        rt.start()
    with pytest.raises(ConfigurationError):
        rt.submit("unknown-op", 1)
    rt.shutdown()
    rt.shutdown()  # idempotent
    with pytest.raises(ServiceClosedError):
        rt.submit("double", 1)
    with pytest.raises(ServingError):
        rt.start()  # a shut-down runtime cannot be restarted (threads would leak)


# -- MicroBatcher --------------------------------------------------------------
def test_batcher_flushes_when_full_without_waiting():
    batcher = MicroBatcher(BatchingPolicy(max_batch_size=4, max_wait_ms=60_000))
    for i in range(5):
        batcher.submit(Request(op="op", payload=i))
    batch = batcher.take()  # cut at max_batch_size, FIFO
    assert [r.payload for r in batch] == [0, 1, 2, 3]
    assert [r.seq for r in batch] == [0, 1, 2, 3]
    # The leftover request stays takeable after the batcher closes.
    batcher.close()
    assert [r.payload for r in batcher.take()] == [4]


def test_take_returns_what_is_queued_without_blocking():
    """A partial batch is never held back: take() hands over whatever is
    queued, however far from full and whatever ``max_wait_ms`` says."""
    batcher = MicroBatcher(BatchingPolicy(max_batch_size=64, max_wait_ms=5_000.0))
    for i in range(3):
        batcher.submit(Request(op="op", payload=i))
    start = time.monotonic()
    batch = batcher.take()
    assert time.monotonic() - start < 1.0
    assert [r.payload for r in batch] == [0, 1, 2]
    assert batcher.depth() == 0


def test_take_is_fifo_and_depth_counts_the_rest():
    batcher = MicroBatcher(BatchingPolicy(max_batch_size=3, max_wait_ms=0.0))
    for i in range(5):
        batcher.submit(Request(op="op", payload=i))
    assert [r.payload for r in batcher.take()] == [0, 1, 2]
    assert batcher.depth() == 2


def test_take_on_an_empty_queue_returns_an_empty_batch():
    batcher = MicroBatcher(BatchingPolicy(max_batch_size=4))
    assert batcher.take() == []
    batcher.submit(Request(op="op", payload="x"))
    assert [r.payload for r in batcher.take()] == ["x"]
    batcher.close()
    assert batcher.take() == []  # closed and drained: still just empty


def test_batcher_overload_and_close():
    batcher = MicroBatcher(BatchingPolicy(max_queue_depth=2, max_batch_size=2))
    batcher.submit(Request(op="op", payload=1))
    batcher.submit(Request(op="op", payload=2))
    with pytest.raises(ServiceOverloadedError):
        batcher.submit(Request(op="op", payload=3))
    batcher.close()
    with pytest.raises(ServiceClosedError):
        batcher.submit(Request(op="op", payload=4))
    assert [r.payload for r in batcher.take()] == [1, 2]
    assert batcher.take() == []  # closed and drained
    # Rejected submissions consumed no sequence numbers.
    assert batcher.admitted == 2


# -- runtime behaviour ---------------------------------------------------------
def test_futures_resolve_under_concurrent_producers():
    def slow_double(xs):
        time.sleep(0.002)  # lets queues build so batches actually coalesce
        return [2 * x for x in xs]

    n_threads, per_thread = 12, 25
    results = {}
    with _runtime(slow_double, num_workers=3) as rt:
        def client(tid):
            futures = [(tid * 1000 + i, rt.submit("double", tid * 1000 + i)) for i in range(per_thread)]
            results[tid] = [(x, f.result(timeout=30)) for x, f in futures]

        threads = [threading.Thread(target=client, args=(tid,)) for tid in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    for tid in range(n_threads):
        assert results[tid] == [(x, 2 * x) for x, _ in results[tid]]
        assert len(results[tid]) == per_thread
    snap = rt.telemetry.snapshot()
    assert snap["accepted"] == snap["completed"] == n_threads * per_thread
    assert snap["rejected"] == 0
    assert snap["batch_size"]["max"] > 1  # the scheduler really coalesced
    assert snap["latency_ms"]["count"] > 0
    assert snap["throughput_rps"] > 0


def test_drain_on_shutdown_loses_no_accepted_request():
    def slow(xs):
        time.sleep(0.01)
        return [x + 1 for x in xs]

    rt = _runtime(slow, policy=BatchingPolicy(max_batch_size=4, max_wait_ms=1), num_workers=1)
    rt.start()
    futures = [rt.submit("double", i) for i in range(40)]
    rt.shutdown()  # most requests still queued at this point
    assert all(f.done() for f in futures)
    assert [f.result() for f in futures] == [i + 1 for i in range(40)]


def test_drain_waits_for_quiescence_without_closing():
    release = threading.Event()

    def gated(xs):
        release.wait(timeout=10)
        return xs

    with _runtime(gated, policy=BatchingPolicy(max_batch_size=4, max_wait_ms=1)) as rt:
        futures = [rt.submit("double", i) for i in range(8)]
        assert not rt.drain(timeout=0.05)  # handler still gated
        release.set()
        assert rt.drain(timeout=10)
        assert all(f.done() for f in futures)
        rt.submit("double", 99).result(timeout=10)  # still accepting after drain


def test_overload_rejects_rather_than_deadlocks():
    gate = threading.Event()

    def gated(xs):
        gate.wait(timeout=30)
        return [x * 10 for x in xs]

    policy = BatchingPolicy(max_batch_size=2, max_wait_ms=1, max_queue_depth=4)
    rt = ServingRuntime({"double": gated}, policy=policy, num_workers=1)
    rt.start()
    accepted, rejected = [], 0
    start = time.monotonic()
    for i in range(200):
        try:
            accepted.append((i, rt.submit("double", i)))
        except ServiceOverloadedError:
            rejected += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0  # fail-fast admission, no blocking submit
    assert rejected > 0  # finite capacity: overload surfaced as rejections
    assert rt.telemetry.snapshot()["rejected"] == rejected
    gate.set()
    rt.shutdown()
    # Every *accepted* request still resolved correctly after the storm.
    assert [f.result(timeout=10) for _, f in accepted] == [i * 10 for i, _ in accepted]


def test_handler_exception_fails_only_that_batch():
    def flaky(xs):
        if any(x == 13 for x in xs):
            raise ValueError("unlucky batch")
        return [x * 2 for x in xs]

    with _runtime(flaky, policy=BatchingPolicy(max_batch_size=1, max_wait_ms=0)) as rt:
        futures = {x: rt.submit("double", x) for x in (7, 13, 21)}
        wait(list(futures.values()), timeout=10)
        assert futures[7].result() == 14
        assert futures[21].result() == 42
        with pytest.raises(ValueError):
            futures[13].result()
    snap = rt.telemetry.snapshot()
    assert snap["failed"] == 1  # the broken batch is visible, not masked
    assert snap["completed"] == 3


def test_handler_wrong_result_count_raises_serving_error():
    with _runtime(lambda xs: xs[:-1], policy=BatchingPolicy(max_batch_size=2, max_wait_ms=1)) as rt:
        f1, f2 = rt.submit("double", 1), rt.submit("double", 2)
        with pytest.raises(ServingError):
            f1.result(timeout=10)
        with pytest.raises(ServingError):
            f2.result(timeout=10)


# -- ArrivalOrderFeed ----------------------------------------------------------
def test_arrival_order_feed_reorders_and_discards():
    chunks = []
    feed = ArrivalOrderFeed(lambda run: chunks.append(list(run)))
    feed.push_many([(3, "d"), (1, "b")])
    assert chunks == []  # seq 0 still missing
    feed.push(0, "a")
    assert chunks == [["a", "b"]]
    feed.discard([2])  # a failed request must not stall the stream
    assert chunks == [["a", "b"], ["d"]]
    assert feed.delivered == 3
    assert feed.pending_count == 0
    with pytest.raises(ConfigurationError):
        feed.push(1, "dup")


def test_observer_receives_results_in_arrival_order_despite_out_of_order_batches():
    order = []
    gate_first = threading.Event()

    def handler(xs):
        # Stall the batch containing the earliest payloads so a later batch
        # finishes first.
        if 0 in xs:
            gate_first.wait(timeout=10)
        return xs

    rt = ServingRuntime(
        {"op": handler},
        policy=BatchingPolicy(max_batch_size=2, max_wait_ms=1),
        num_workers=2,
        observers={"op": order.extend},
    )
    with rt:
        futures = [rt.submit("op", i) for i in range(6)]
        # Let the trailing batches complete, then release the first.
        wait(futures[2:], timeout=10)
        assert order == []  # held back: batch 0 not done yet
        gate_first.set()
        wait(futures, timeout=10)
        rt.drain(timeout=10)
    assert order == [0, 1, 2, 3, 4, 5]


# -- what the runtime survives, it counts ---------------------------------------
class _Injected(RuntimeError):
    pass


def _raise(*_):
    raise _Injected("injected")


@pytest.mark.parametrize("site", ["knob_getter", "stats_provider", "observer",
                                  "observer_discard", "worker"])
def test_every_exception_the_runtime_logs_and_survives_is_counted(monkeypatch, site):
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    handler = _raise if site == "observer_discard" else (lambda xs: xs)
    observers = {"double": _raise} if site == "observer" else None
    try:
        with _runtime(handler, observers=observers) as rt:
            if site == "knob_getter":
                rt.register_knob("k", setter=lambda value: value, getter=_raise)
            elif site == "stats_provider":
                rt.register_stats_provider("p", _raise)
                assert rt.telemetry_snapshot()["p"] is None
            else:
                if site == "observer_discard":
                    monkeypatch.setattr(ArrivalOrderFeed, "discard", _raise)
                    rt._feeds["double"] = ArrivalOrderFeed(print)
                elif site == "worker":  # a fault in the runtime's own bookkeeping
                    monkeypatch.setattr(rt.telemetry, "record_batch", _raise)
                future = rt.submit("double", 3)
                if site == "observer":
                    assert future.result(timeout=10) == 3  # the answer is not lost
                else:
                    with pytest.raises(_Injected):
                        future.result(timeout=10)
                assert rt.drain(timeout=10)
    finally:
        set_default_registry(previous)
    errors = registry.get("repro_internal_errors_total")
    assert errors.labels(site=f"runtime.{site}").value == 1.0
    assert [labels["site"] for labels, _ in errors.collect()] == [f"runtime.{site}"]


# -- serving a live FairDMSService --------------------------------------------
def _data(seed=0, n=96, side=6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, side, side)), rng.normal(size=(n, 2))


def _scan_batches(seed=7, n_batches=6, n=14, side=6):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, side, side)) for _ in range(n_batches)]


def _service_stack(seed=0):
    images, labels = _data()
    fairds = FairDS(PCAEmbedder(embedding_dim=6), n_clusters=5, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=2, seed=seed),
        training_config=TrainingConfig(epochs=2, batch_size=16, lr=3e-3, seed=seed),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=1.0),
        seed=seed,
    )
    dms.bootstrap(images, labels, train_initial_model=False)
    return FairDMSService(dms)


def test_served_responses_identical_to_direct_single_calls():
    scans = _scan_batches()
    served = _service_stack()
    direct = _service_stack()
    # num_workers=1 keeps batch execution FIFO, so the lookup sampler
    # consumes seeds in exactly the order the direct calls would.
    runtime = served.serving_runtime(
        policy=BatchingPolicy(max_batch_size=4, max_wait_ms=20), num_workers=1
    )
    with runtime:
        dist_futures = [runtime.submit("query_distribution", s) for s in scans]
        served_dists = [f.result(timeout=60) for f in dist_futures]
        lookup_futures = [
            runtime.submit("lookup_labeled_data", (s, 10)) for s in scans
        ]
        served_lookups = [f.result(timeout=60) for f in lookup_futures]
        cert_futures = [runtime.submit("certainty", s) for s in scans]
        served_certs = [f.result(timeout=60) for f in cert_futures]
        snap = runtime.telemetry.snapshot()

    for scan, dist in zip(scans, served_dists):
        assert dist["pdf"] == direct.query_distribution(scan)["pdf"]
    for scan, payload in zip(scans, served_lookups):
        single = direct.lookup_labeled_data(scan, n_samples=10)
        np.testing.assert_array_equal(payload["images"], single["images"])
        np.testing.assert_array_equal(payload["labels"], single["labels"])
        assert payload["distribution"]["pdf"] == single["distribution"]["pdf"]
    np.testing.assert_allclose(
        served_certs, [direct.dms.fairds.certainty(s) for s in scans], rtol=1e-12
    )

    # The activity log recorded coalesced *_batch invocations.
    summary = served.activity_summary()
    assert summary["user:query_distribution_batch"] >= 1
    assert summary["user:lookup_labeled_data_batch"] >= 1
    assert summary["system:certainty_batch"] >= 1
    assert snap["completed"] == 3 * len(scans)


def test_certainty_stream_feeds_trigger_in_arrival_order():
    scans = _scan_batches(n_batches=8)
    served = _service_stack()
    direct = _service_stack()
    serial_values = [direct.dms.fairds.certainty(s) for s in scans]
    serial_trigger = CertaintyTrigger(float(np.median(serial_values)), cooldown=1)
    serial_fired = [serial_trigger.observe(v) for v in serial_values]

    served_trigger = CertaintyTrigger(float(np.median(serial_values)), cooldown=1)
    runtime = served.serving_runtime(
        policy=BatchingPolicy(max_batch_size=2, max_wait_ms=2),
        num_workers=3,  # batches may complete out of order
        certainty_trigger=served_trigger,
    )
    with runtime:
        futures = [runtime.submit("certainty", s) for s in scans]
        values = [f.result(timeout=60) for f in futures]
        runtime.drain(timeout=60)

    np.testing.assert_allclose(values, serial_values, rtol=1e-12)
    assert served_trigger.history == serial_trigger.history
    assert served_trigger.fired_at == serial_trigger.fired_at
    assert [i in served_trigger.fired_at for i in range(len(scans))] == serial_fired


def test_serving_runtime_overload_on_live_service():
    service = _service_stack()
    runtime = service.serving_runtime(
        policy=BatchingPolicy(max_batch_size=2, max_wait_ms=1, max_queue_depth=2),
        num_workers=1,
    )
    scans = _scan_batches(n_batches=1)
    with runtime:
        outcomes = {"ok": 0, "rejected": 0}
        futures = []
        for _ in range(60):
            try:
                futures.append(runtime.submit("certainty", scans[0]))
                outcomes["ok"] += 1
            except ServiceOverloadedError:
                outcomes["rejected"] += 1
        done, not_done = wait(futures, timeout=60)
        assert not not_done
    assert outcomes["ok"] == len(futures)
    assert outcomes["ok"] + outcomes["rejected"] == 60


# -- pull scheduling, live handler swap, worker lifecycle ----------------------------
class _Gate:
    """A batch handler that records every batch it is handed and holds its
    first one until released, so a test can pile requests up behind a busy
    worker."""

    def __init__(self, tag=None):
        self.tag = tag
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, xs):
        self.batches.append(list(xs))
        self.entered.set()
        assert self.release.wait(timeout=30.0)
        return list(xs)


def test_lone_request_is_served_at_once_whatever_max_wait_ms_says():
    """Work-conserving: an idle worker takes a lone request immediately.  At
    the parent commit this request sat out ``max_wait_ms``."""
    runtime = ServingRuntime(
        {"echo": lambda xs: list(xs)},
        policy=BatchingPolicy(max_batch_size=1024, max_wait_ms=10_000.0),
        num_workers=1,
    )
    with runtime:
        runtime.call("echo", 0, timeout=5.0)  # worker thread is up and idle
        start = time.monotonic()
        assert runtime.call("echo", 1, timeout=5.0) == 1
        assert time.monotonic() - start < 0.1
    assert runtime.telemetry.snapshot()["batch_size"]["histogram"] == {1: 2}


def test_queued_requests_leave_as_full_fifo_batches_when_the_worker_frees_up():
    """Batching under load, deterministically: what queues up behind a busy
    worker leaves in exactly ceil(N / max_batch_size) batches, in order."""
    gate = _Gate()
    n, size = 10, 4
    runtime = ServingRuntime(
        {"op": gate}, policy=BatchingPolicy(max_batch_size=size), num_workers=1
    )
    with runtime:
        first = runtime.submit("op", "head")
        assert gate.entered.wait(timeout=10.0)  # the only worker is now busy
        futures = [runtime.submit("op", i) for i in range(n)]
        gate.release.set()
        assert [f.result(timeout=10.0) for f in futures] == list(range(n))
        assert first.result(timeout=10.0) == "head"
    assert gate.batches[0] == ["head"]
    assert len(gate.batches) - 1 == math.ceil(n / size)
    assert gate.batches[1:] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


def test_saturated_operation_cannot_starve_another():
    hog = _Gate()
    order = []

    def other(xs):
        order.append(("other", list(xs)))
        return list(xs)

    def hog_handler(xs):
        order.append(("hog", len(xs)))
        return hog(xs)

    runtime = ServingRuntime(
        {"hog": hog_handler, "other": other},
        policy=BatchingPolicy(max_batch_size=8), num_workers=1,
    )
    with runtime:
        runtime.submit("hog", -1)
        assert hog.entered.wait(timeout=10.0)
        hog_futures = [runtime.submit("hog", i) for i in range(100)]
        lone = runtime.submit("other", "x")
        hog.release.set()
        assert lone.result(timeout=10.0) == "x"
        wait(hog_futures, timeout=10.0)
    # Not behind the 13 batches the hog had queued first: within the next two.
    assert ("other", ["x"]) in order[1:3]


def test_submitters_racing_shutdown_either_raise_closed_or_resolve():
    """An accepted request is never dropped: every submit that raced
    shutdown() either raised ServiceClosedError or got a future that resolved."""
    runtime = _runtime(num_workers=2).start()
    accepted = [[] for _ in range(8)]
    refused = []
    go = threading.Event()

    def submitter(slot):
        go.wait()
        for i in range(100_000):
            try:
                accepted[slot].append((i, runtime.submit("double", i)))
            except ServiceOverloadedError:
                continue
            except ServiceClosedError:
                refused.append(slot)
                return

    threads = [threading.Thread(target=submitter, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        go.set()
        time.sleep(0.05)
        runtime.shutdown()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(refused) == list(range(8))  # every submitter saw the close
    n_accepted = sum(len(slot) for slot in accepted)
    assert n_accepted > 0
    for slot in accepted:
        for i, future in slot:
            assert future.done() and future.result() == 2 * i
    assert runtime.telemetry.snapshot()["completed"] == n_accepted


def _settles(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_started_runtime_owns_exactly_num_workers_threads():
    before = threading.active_count()
    runtime = ServingRuntime(
        {"a": lambda xs: xs, "b": lambda xs: xs, "c": lambda xs: xs}, num_workers=3
    )
    assert threading.active_count() == before  # constructing starts nothing
    runtime.start()
    try:
        # Three workers — and no per-operation flusher threads beside them.
        assert threading.active_count() == before + 3
        assert runtime.num_workers == 3
    finally:
        runtime.shutdown()
    assert threading.active_count() == before


def test_scale_workers_cycles_leak_no_threads():
    """Regression: every scale-up used to append a Thread object that was
    never pruned, so an oscillating autoscaler grew the list without bound."""
    before = threading.active_count()
    runtime = _runtime(num_workers=2).start()
    futures = []
    try:
        for i in range(200):
            assert runtime.scale_workers(4) == 4
            futures.append((i, runtime.submit("double", i)))
            assert runtime.scale_workers(2) == 2
            futures.append((i, runtime.submit("double", i)))
            assert len(runtime._workers) <= 4
        assert runtime.num_workers == 2
        assert _settles(lambda: len(runtime._workers) == 2)
        assert _settles(lambda: threading.active_count() == before + 2)
        assert all(f.result(timeout=10.0) == 2 * i for i, f in futures)
    finally:
        runtime.shutdown()
    assert runtime.telemetry.snapshot()["completed"] == len(futures)
    assert _settles(lambda: threading.active_count() == before)
    with pytest.raises(ServingError):
        runtime.scale_workers(3)  # not on a stopped runtime


def test_scale_down_never_abandons_a_taken_batch_and_keeps_one_worker():
    gate = _Gate()
    runtime = ServingRuntime(
        {"op": gate}, policy=BatchingPolicy(max_batch_size=2), num_workers=2
    )
    with runtime:
        held = runtime.submit("op", "held")
        assert gate.entered.wait(timeout=10.0)
        queued = [runtime.submit("op", i) for i in range(6)]
        runtime.scale_workers(1)  # one of the two must go; one is mid-batch
        gate.release.set()
        assert held.result(timeout=10.0) == "held"
        assert [f.result(timeout=10.0) for f in queued] == list(range(6))
        assert _settles(lambda: len(runtime._workers) == 1)
        assert runtime.call("op", "after", timeout=10.0) == "after"
        with pytest.raises(ConfigurationError):
            runtime.scale_workers(0)


def test_worker_fails_requests_already_expired_at_pickup():
    """A request whose deadline passed while it queued gets the typed error
    from the worker that picks it up — not a handler slot."""
    gate = _Gate()
    seen = []
    runtime = ServingRuntime(
        {"op": gate}, policy=BatchingPolicy(max_batch_size=8), num_workers=1,
        observers={"op": seen.extend},
    )
    with runtime:
        head = runtime.submit("op", "head")
        assert gate.entered.wait(timeout=10.0)
        budget = time.monotonic() + 0.010
        doomed = [runtime.submit("op", i, deadline=budget) for i in range(3)]
        patient = runtime.submit("op", "patient", deadline=time.monotonic() + 60.0)
        time.sleep(0.03)
        gate.release.set()
        for future in doomed:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10.0)
        assert patient.result(timeout=10.0) == "patient"
        assert head.result(timeout=10.0) == "head"
        assert runtime.drain(timeout=10.0)  # expired requests count as resolved
    assert gate.batches == [["head"], ["patient"]]  # handler never saw the doomed
    assert seen == ["head", "patient"]  # the arrival-order feed skipped them
    snap = runtime.telemetry.snapshot()
    assert snap["failed"] == 3 and snap["completed"] == 5


def test_worker_loop_bug_is_logged_and_strands_no_request():
    """A bug in the worker's own bookkeeping has no caller to raise to.  It
    must be loud, must fail what the batch left unresolved, and must not take
    the worker — and everything queued behind it — down."""
    runtime = _runtime(num_workers=1)
    recorded = runtime.telemetry.record_batch
    calls = []

    def broken_once(op, size, wait_s):
        calls.append(size)
        if len(calls) == 1:
            raise RuntimeError("bookkeeping bug")
        recorded(op, size, wait_s)

    runtime.telemetry.record_batch = broken_once
    # repro loggers do not propagate to root (caplog can't see them).
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.serving.runtime")
    logger.addHandler(handler)
    try:
        with runtime:
            unlucky = runtime.submit("double", 1)
            with pytest.raises(RuntimeError, match="bookkeeping bug"):
                unlucky.result(timeout=10.0)
            assert runtime.call("double", 2, timeout=10.0) == 4  # the worker lives
            assert runtime.drain(timeout=10.0)  # and quiescence still adds up
    finally:
        logger.removeHandler(handler)
    errors = [r for r in records if r.levelno >= logging.ERROR]
    assert errors and errors[0].exc_info is not None  # with the traceback


def test_handler_interrupt_reaches_the_futures_and_the_worker_survives():
    def handler(xs):
        if "stop" in xs:
            raise KeyboardInterrupt
        return list(xs)

    with ServingRuntime({"op": handler}, num_workers=1) as runtime:
        with pytest.raises(KeyboardInterrupt):
            runtime.call("op", "stop", timeout=10.0)
        assert runtime.call("op", "go", timeout=10.0) == "go"


def test_swap_handler_switches_live_traffic_without_dropping_requests():
    entered, release = threading.Event(), threading.Event()

    def old_handler(xs):
        entered.set()
        release.wait(5.0)  # hold the in-flight batch until after the swap
        return [("old", x) for x in xs]

    runtime = ServingRuntime(
        {"op": old_handler}, policy=BatchingPolicy(max_batch_size=4), num_workers=1
    )
    with runtime:
        inflight = runtime.submit("op", 0)
        assert entered.wait(timeout=5.0)  # executing on the old handler
        queued = [runtime.submit("op", i) for i in range(1, 4)]
        runtime.swap_handler("op", lambda xs: [("new", x) for x in xs])
        release.set()
        after = [runtime.submit("op", i) for i in range(10, 14)]
        queued_results = [f.result(timeout=5.0) for f in queued]
        after_results = [f.result(timeout=5.0) for f in after]
        # The batch that was already executing finished on the old handler...
        assert inflight.result(timeout=5.0) == ("old", 0)
    # ...and everything that started executing after the swap — still queued
    # at the time, or admitted later — was served by the new one.
    assert queued_results == [("new", i) for i in range(1, 4)]
    assert after_results == [("new", i) for i in range(10, 14)]
    with pytest.raises(ConfigurationError):
        runtime.swap_handler("nope", lambda xs: xs)


def test_telemetry_snapshot_convenience_and_activity_serving_stats():
    """The one-telemetry-source satellite: ``telemetry_snapshot()`` mirrors
    ``telemetry.snapshot()``, and runtimes created by a service fold their
    per-op completion counts into ``activity_summary()``."""
    scans = _scan_batches(n_batches=4)
    service = _service_stack()
    runtime = service.serving_runtime(
        policy=BatchingPolicy(max_batch_size=4, max_wait_ms=20), num_workers=1
    )
    with runtime:
        for s in scans:
            runtime.call("certainty", s, timeout=60)
        runtime.call("query_distribution", scans[0], timeout=60)
        snap = runtime.telemetry_snapshot()
    assert snap["completed"] == runtime.telemetry.snapshot()["completed"] == len(scans) + 1
    summary = service.activity_summary()
    assert summary["serving:certainty"] == len(scans)
    assert summary["serving:query_distribution"] == 1
    # The plane-function counts are still there, untouched...
    assert summary["system:certainty_batch"] >= 1
    # ...and the serving fold-in can be switched off.
    assert "serving:certainty" not in service.activity_summary(include_serving=False)


# -- telemetry: per-op attribution, percentiles, restart window ----------------
def _telemetry():
    from repro.observability.metrics import MetricsRegistry
    from repro.serving.telemetry import ServingTelemetry

    return ServingTelemetry(registry=MetricsRegistry())


def test_record_batch_attributes_to_its_operation():
    """Regression: record_batch used to ignore its ``op`` argument and blend
    every operation's batch-size distribution into one histogram."""
    tel = _telemetry()
    tel.record_batch("a", 4, 0.010)
    tel.record_batch("a", 2, 0.002)
    tel.record_batch("b", 8, 0.004)
    snap = tel.snapshot()
    assert snap["per_op"]["a"]["batch_size"]["batches"] == 2
    assert snap["per_op"]["a"]["batch_size"]["mean"] == 3.0
    assert snap["per_op"]["a"]["batch_size"]["max"] == 4
    assert snap["per_op"]["a"]["batch_size"]["histogram"] == {2: 1, 4: 1}
    assert snap["per_op"]["b"]["batch_size"]["max"] == 8
    assert snap["per_op"]["b"]["batch_size"]["max_wait_ms"] == pytest.approx(4.0)
    # The top-level section still aggregates across operations.
    assert snap["batch_size"]["batches"] == 3 and snap["batch_size"]["max"] == 8
    # And the shared registry got one histogram series per op.
    hist = tel.registry.get("repro_batch_size")
    assert hist.labels(op="a").value["count"] == 2
    assert hist.labels(op="b").value["count"] == 1


def test_per_op_latency_percentiles_in_snapshot():
    tel = _telemetry()
    tel.record_completions("fast", [0.001] * 40)
    tel.record_completions("slow", [0.100] * 40)
    snap = tel.snapshot()
    fast, slow = snap["per_op"]["fast"]["latency_ms"], snap["per_op"]["slow"]["latency_ms"]
    assert fast["count"] == slow["count"] == 40
    for q in ("p50_ms", "p95_ms", "p99_ms"):
        assert fast[q] == pytest.approx(1.0, rel=0.2)
        assert slow[q] == pytest.approx(100.0, rel=0.2)
    # The blended global summary sits between the two ops.
    assert fast["p95_ms"] < snap["latency_ms"]["p95_ms"] <= slow["p95_ms"]


def test_mark_started_after_restart_resets_the_window():
    """Regression: re-using one telemetry object across a runtime restart kept
    the stale counters, so throughput_rps divided old completions by the new
    uptime.  mark_started() now restarts a zeroed window."""
    tel = _telemetry()
    tel.mark_started()
    tel.record_admission("op", depth=1)
    tel.record_completion("op", 0.01)
    tel.record_batch("op", 1, 0.0)
    tel.mark_stopped()
    assert tel.snapshot()["completed"] == 1

    tel.mark_started()  # the restart
    snap = tel.snapshot()
    assert snap["accepted"] == snap["completed"] == 0
    assert snap["per_op"] == {} and snap["batch_size"]["batches"] == 0
    assert snap["latency_ms"]["count"] == 0
    assert snap["throughput_rps"] == 0.0
    # The shared registry is cumulative by contract: restart does not zero it.
    req = tel.registry.get("repro_requests_total")
    assert req.labels(op="op", status="completed").value == 1.0


def test_reset_zeroes_the_window_explicitly():
    tel = _telemetry()
    tel.mark_started()
    tel.record_rejection("op")
    tel.record_knob("n_probe", 4)
    tel.reset()
    snap = tel.snapshot()
    assert snap["rejected"] == 0 and snap["knobs"] == {} and snap["uptime_s"] == 0.0


def test_rejected_total_is_cumulative_across_reset_and_restart():
    """The windowed 'rejected' count zeroes with the window; 'rejected_total'
    is Prometheus-counter-style lifetime accounting and survives both reset()
    and a mark_started() restart."""
    tel = _telemetry()
    tel.mark_started()
    tel.record_rejection("op")
    tel.record_rejection("op")
    snap = tel.snapshot()
    assert snap["rejected"] == 2 and snap["rejected_total"] == 2
    tel.reset()
    snap = tel.snapshot()
    assert snap["rejected"] == 0 and snap["rejected_total"] == 2
    tel.mark_started()  # restart: window zeroes, lifetime does not
    tel.record_rejection("other")
    snap = tel.snapshot()
    assert snap["rejected"] == 1 and snap["rejected_total"] == 3
    # and the formatted snapshot surfaces the lifetime figure
    assert "lifetime 3" in tel.format_snapshot()
