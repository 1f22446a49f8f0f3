"""Concurrent serving runtime with dynamic micro-batching and live telemetry.

The paper's fairDMS deployment serves interactive data/model requests from
many simultaneous experiment clients.  The batched engines
(:meth:`~repro.core.fairds.FairDS.lookup_batch`,
:meth:`~repro.storage.vector_index.VectorIndex.query_batch`, the
``FairDMSService`` ``*_batch`` plane functions) only pay off when someone
hands them a batch — this package *manufactures* batches from concurrent
single-request traffic:

* :class:`~repro.serving.runtime.ServingRuntime` — accepts single-sample
  requests from any number of client threads, returns per-request futures,
  and executes coalesced micro-batches through batch handlers on a worker
  pool, with start/drain/shutdown lifecycle and in-arrival-order observers
  for monitoring.
* :class:`~repro.serving.batcher.MicroBatcher` /
  :class:`~repro.serving.batcher.BatchingPolicy` — the bounded per-operation
  admission queue that free workers pull batches from, and its limits.
* :class:`~repro.serving.telemetry.ServingTelemetry` — queue depth,
  batch-size distribution, p50/p95/p99 latency and throughput.

Batching policy knobs (``BatchingPolicy``)
------------------------------------------

Scheduling is pull-based: a free worker takes whatever is queued, at once.
Batches form while every worker is busy — the only time coalescing can pay —
and a lone request under light traffic is served immediately.

``max_batch_size``
    The most requests a worker takes in one pickup, hence the upper bound on
    how much work one handler invocation holds.  Raise it until the batch
    handler stops getting faster per item (vectorised kernels usually
    saturate somewhere between 32 and 256).
``max_wait_ms``
    Has no effect (there is no flush timer to set); accepted and validated
    for existing specs, slated for removal.
``max_queue_depth``
    Admission bound per operation.  Submissions beyond it fail fast with
    :class:`~repro.utils.errors.ServiceOverloadedError` (backpressure by
    rejection) instead of queueing unboundedly, so overload shows up as a
    rejection rate, not as latency collapse or deadlock.

Quick example::

    from repro.serving import BatchingPolicy, ServingRuntime

    runtime = ServingRuntime(
        {"double": lambda xs: [2 * x for x in xs]},
        policy=BatchingPolicy(max_batch_size=64),
    )
    with runtime:                      # start() ... shutdown()
        futures = [runtime.submit("double", i) for i in range(100)]
        results = [f.result() for f in futures]
    print(runtime.telemetry.snapshot()["batch_size"]["mean"])

``FairDMSService.serving_runtime()`` wires a runtime to the interactive
batch plane functions of a live fairDMS service — distribution queries and
pseudo-labeling lookups on the user plane, certainty monitoring on the
system plane (see ``examples/serving_runtime.py``).
"""

from repro.serving.batcher import BatchingPolicy, MicroBatcher, Request
from repro.serving.hot_swap import ModelHandle, ModelVersion, VersionedResult, versioned_handler
from repro.serving.runtime import ServingRuntime
from repro.serving.telemetry import ServingTelemetry
from repro.utils.errors import ServiceClosedError, ServiceOverloadedError, ServingError

__all__ = [
    "BatchingPolicy",
    "MicroBatcher",
    "ModelHandle",
    "ModelVersion",
    "Request",
    "ServingRuntime",
    "ServingTelemetry",
    "ServingError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "VersionedResult",
    "versioned_handler",
]
