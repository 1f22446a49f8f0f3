"""Network serving plane — wire overhead, bursty open-loop load, autoscaling.

Three sections over the same replicated lookup service:

* **wire vs in-process** — a closed-loop thread pool drives the identical
  workload once through ``ReplicaSet.call`` (embedded, the pre-network
  deployment) and once through TCP (``NetworkClient`` -> ``NetworkServer``).
  Reports both throughputs and the wire overhead ratio; every wire response
  must equal its in-process twin.
* **open-loop bursty wire load** — an asyncio arrival process
  (``AsyncNetworkClient``) offers a calm phase and then a burst well above
  service capacity.  Every offered request must resolve as either a success
  or a *typed* rejection (``overloaded``/``deadline_exceeded``) — silent
  loss or untyped failure fails the bench.
* **autoscaler timeline** — one replica/one worker under a sustained burst
  with a live :class:`~repro.net.autoscaler.Autoscaler`; the replica/worker
  counts are sampled into a timeline.  Full mode asserts capacity scaled
  **up** during the burst and back **down** to the floor after the idle
  cooldown — the PR's acceptance criterion, measured end to end.

Results land in ``BENCH_network_serving.json`` (see ``common.write_bench_json``).

Run standalone:  python benchmarks/bench_network_serving.py [--smoke]
"""

from __future__ import annotations

import argparse
import asyncio
import threading
import time
from typing import Dict, List

import numpy as np

from repro.api.registry import create_component
from repro.net import (
    AsyncNetworkClient,
    AutoscalePolicy,
    Autoscaler,
    NetworkClient,
    NetworkServer,
    RemoteError,
    ReplicaSet,
)
from repro.serving import BatchingPolicy, ServingRuntime
from repro.utils.errors import DeadlineExceededError
from repro.utils.rng import default_rng

from common import print_table, write_bench_json

DIM = 32

FULL = dict(store_size=8_000, clients=12, per_client=40, calm_rps=150, burst_rps=2_500,
            phase_s=0.8, service_ms=2.0, burst_threads=8, assert_bars=True)
SMOKE = dict(store_size=1_500, clients=4, per_client=10, calm_rps=80, burst_rps=800,
             phase_s=0.4, service_ms=2.0, burst_threads=4, assert_bars=False)


def _build_index(store_size: int, seed: int = 0):
    rng = default_rng(seed)
    vectors = rng.normal(size=(store_size, DIM))
    index = create_component("index", "flat", dim=DIM)
    index.add([f"k{i}" for i in range(store_size)], vectors)
    queries = vectors[rng.integers(0, store_size, size=512)] + 0.01 * rng.normal(
        size=(512, DIM)
    )
    return index, queries


def _lookup_factory(index, num_workers: int = 1):
    def handler(batch):
        stacked = np.asarray(batch, dtype=np.float64)
        return [
            [key for key, _ in hits]
            for hits in index.query_batch(stacked, k=5)
        ]

    def factory(replica_id):
        runtime = ServingRuntime(
            {"lookup": handler},
            policy=BatchingPolicy(max_batch_size=32, max_queue_depth=4096),
            num_workers=num_workers,
        )
        runtime.start()
        return runtime, None

    return factory


# ---------------------------------------------------------------------------
# Section 1: wire vs in-process
# ---------------------------------------------------------------------------
def _closed_loop(dispatch, clients: int, per_client: int, queries) -> Dict:
    responses = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(cid):
        barrier.wait()
        for j in range(per_client):
            responses[cid].append(dispatch(queries[(cid * per_client + j) % len(queries)]))

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return {"elapsed_s": elapsed, "rps": clients * per_client / elapsed,
            "responses": responses}


def _wire_vs_in_process(cfg, sink) -> Dict:
    index, queries = _build_index(cfg["store_size"])
    rs = ReplicaSet(_lookup_factory(index), replicas=2, health_interval_s=None)
    server = NetworkServer(rs).start()
    host, port = server.address
    try:
        in_proc = _closed_loop(lambda q: rs.call("lookup", q, timeout=60.0),
                               cfg["clients"], cfg["per_client"], queries)
        wire_clients = [NetworkClient(host, port, timeout_s=60.0)
                        for _ in range(cfg["clients"])]
        pool_lock = threading.Lock()

        def wire_dispatch(q, _pool=list(wire_clients)):
            with pool_lock:
                client = _pool.pop()
            try:
                return client.call("lookup", q)
            finally:
                with pool_lock:
                    _pool.append(client)

        wire = _closed_loop(wire_dispatch, cfg["clients"], cfg["per_client"], queries)
        for client in wire_clients:
            client.close()
    finally:
        server.close()
        rs.close()
    # parity: every wire response equals its in-process twin, key for key
    assert wire["responses"] == in_proc["responses"], "wire responses diverged"
    overhead = in_proc["rps"] / wire["rps"] if wire["rps"] else float("inf")
    print_table(
        "network serving: wire vs in-process (closed loop)",
        ["path", "requests", "elapsed_s", "req_per_s"],
        [["in-process", cfg["clients"] * cfg["per_client"],
          in_proc["elapsed_s"], in_proc["rps"]],
         ["tcp wire", cfg["clients"] * cfg["per_client"],
          wire["elapsed_s"], wire["rps"]]],
        sink,
    )
    return {"in_process_rps": in_proc["rps"], "wire_rps": wire["rps"],
            "wire_overhead_x": overhead}


# ---------------------------------------------------------------------------
# Section 2: open-loop bursty wire load
# ---------------------------------------------------------------------------
def _open_loop_burst(cfg, sink) -> Dict:
    index, queries = _build_index(cfg["store_size"], seed=1)
    rs = ReplicaSet(_lookup_factory(index), replicas=2, health_interval_s=None)
    server = NetworkServer(rs, max_in_flight=64).start()
    host, port = server.address

    async def drive():
        outcomes = {"ok": 0, "rejected": 0}
        latencies: List[float] = []
        unexpected: List[BaseException] = []

        async def one(client, q):
            start = time.perf_counter()
            try:
                await client.call("lookup", q, timeout=30.0)
                outcomes["ok"] += 1
                latencies.append(1e3 * (time.perf_counter() - start))
            except (RemoteError, DeadlineExceededError) as exc:
                if isinstance(exc, RemoteError) and exc.error_type not in (
                        "overloaded", "deadline_exceeded"):
                    unexpected.append(exc)  # only *typed backpressure* is OK
                else:
                    outcomes["rejected"] += 1
            except Exception as exc:  # silent loss / protocol break
                unexpected.append(exc)

        async with AsyncNetworkClient(host, port) as client:
            tasks = []
            offered = 0
            for rps in (cfg["calm_rps"], cfg["burst_rps"], cfg["calm_rps"]):
                n = max(1, int(rps * cfg["phase_s"]))
                interval = cfg["phase_s"] / n
                for i in range(n):
                    tasks.append(asyncio.ensure_future(
                        one(client, queries[offered % len(queries)])))
                    offered += 1
                    await asyncio.sleep(interval)
            await asyncio.gather(*tasks)
        return offered, outcomes, latencies, unexpected

    try:
        offered, outcomes, latencies, unexpected = asyncio.run(drive())
    finally:
        server.close()
        rs.close()
    assert not unexpected, f"untyped failures under burst: {unexpected[:3]}"
    assert outcomes["ok"] + outcomes["rejected"] == offered, "requests went missing"
    p95 = float(np.percentile(latencies, 95)) if latencies else 0.0
    print_table(
        "network serving: open-loop bursty wire load",
        ["offered", "succeeded", "typed_rejections", "p95_ms"],
        [[offered, outcomes["ok"], outcomes["rejected"], p95]],
        sink,
    )
    return {"offered": offered, "succeeded": outcomes["ok"],
            "rejected_typed": outcomes["rejected"], "wire_p95_ms": p95}


# ---------------------------------------------------------------------------
# Section 3: autoscaler replica-count timeline
# ---------------------------------------------------------------------------
def _autoscaler_timeline(cfg, sink) -> Dict:
    service_s = cfg["service_ms"] / 1e3

    def slow_factory(replica_id):
        def handler(batch):
            time.sleep(service_s)  # fixed service time => burst builds a queue
            return [2 * x for x in batch]

        runtime = ServingRuntime(
            {"double": handler},
            policy=BatchingPolicy(max_batch_size=4, max_queue_depth=4096),
            num_workers=1,
        )
        runtime.start()
        return runtime, None

    rs = ReplicaSet(slow_factory, replicas=1, health_interval_s=None)
    policy = AutoscalePolicy(
        min_replicas=1, max_replicas=3, min_workers=1, max_workers=2,
        high_queue_per_replica=6.0, low_queue_per_replica=1.0,
        up_after=2, down_after=3, up_cooldown_s=0.15, down_cooldown_s=0.6,
        interval_s=0.05,
    )
    scaler = Autoscaler(rs, policy).start()
    timeline: List[Dict] = []
    stop_burst = threading.Event()

    def burster():
        futures = []
        while not stop_burst.is_set():
            futures.append(rs.submit("double", 1))
            time.sleep(0.001)
        for future in futures:
            future.result(timeout=120.0)

    threads = [threading.Thread(target=burster) for _ in range(cfg["burst_threads"])]
    start = time.perf_counter()

    def sample():
        snap = rs.snapshot()
        timeline.append({
            "t_s": round(time.perf_counter() - start, 3),
            "replicas": snap["replicas"],
            "workers": sum(r.runtime.num_workers for r in rs.replicas),
            "queue": rs.total_load(),
        })

    try:
        for thread in threads:
            thread.start()
        burst_deadline = time.perf_counter() + 6 * cfg["phase_s"]
        while time.perf_counter() < burst_deadline:
            sample()
            time.sleep(0.05)
        stop_burst.set()
        for thread in threads:
            thread.join(timeout=120.0)
        # idle long enough for down_after * interval + down_cooldown per step
        idle_deadline = time.perf_counter() + 8 * policy.down_cooldown_s
        while time.perf_counter() < idle_deadline:
            sample()
            time.sleep(0.05)
            if timeline[-1]["replicas"] == policy.min_replicas and \
                    timeline[-1]["workers"] == policy.min_workers and \
                    time.perf_counter() - start > 6 * cfg["phase_s"] + 2.0:
                break
        sample()
    finally:
        stop_burst.set()
        scaler.stop()
        rs.close()

    peak_replicas = max(p["replicas"] for p in timeline)
    peak_workers = max(p["workers"] for p in timeline)
    final = timeline[-1]
    directions = [d["direction"] for d in scaler.history]
    print_table(
        "network serving: autoscaler timeline (burst then idle)",
        ["samples", "peak_replicas", "peak_workers", "final_replicas",
         "final_workers", "ups", "downs"],
        [[len(timeline), peak_replicas, peak_workers, final["replicas"],
          final["workers"], directions.count("up"), directions.count("down")]],
        sink,
    )
    return {
        "timeline": timeline,
        "peak_replicas": peak_replicas,
        "peak_workers": peak_workers,
        "final_replicas": final["replicas"],
        "final_workers": final["workers"],
        "scale_ups": directions.count("up"),
        "scale_downs": directions.count("down"),
    }


def run(smoke: bool, report_sink=None) -> Dict:
    cfg = SMOKE if smoke else FULL
    sink = report_sink if report_sink is not None else []
    closed = _wire_vs_in_process(cfg, sink)
    open_loop = _open_loop_burst(cfg, sink)
    scaling = _autoscaler_timeline(cfg, sink)
    metrics = {**closed, **open_loop,
               **{k: v for k, v in scaling.items() if k != "timeline"},
               "autoscaler_timeline": scaling["timeline"]}
    write_bench_json(
        "network_serving", metrics,
        params={k: v for k, v in cfg.items() if k != "assert_bars"}
        | {"smoke": smoke, "replicas_closed_loop": 2},
    )
    # Sanity on every run: the wire path works and bursts only fail *typed*.
    assert closed["wire_rps"] > 0, "wire path served nothing"
    assert open_loop["succeeded"] > 0, "open-loop run served nothing"
    if cfg["assert_bars"]:
        # The PR's acceptance bar, end to end: capacity grew under the burst
        # and shrank back to the configured floor once it passed.
        assert scaling["peak_replicas"] > 1 or scaling["peak_workers"] > 1, (
            f"autoscaler never scaled up under the burst: {scaling}"
        )
        assert scaling["final_replicas"] == 1 and scaling["final_workers"] == 1, (
            f"autoscaler did not settle back down: {scaling}"
        )
    return metrics


def test_network_serving(report_sink):
    run(smoke=False, report_sink=report_sink)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI smoke runs (no scaling assertion)")
    args = parser.parse_args()
    run(smoke=args.smoke)


if __name__ == "__main__":
    main()
