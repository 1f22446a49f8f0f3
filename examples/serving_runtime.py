#!/usr/bin/env python
"""Serving fairDMS to concurrent clients through the micro-batching runtime.

`service_planes.py` drives the user plane one call at a time; real
deployments face many simultaneous experiment clients each asking one small
question.  This example stands up ``FairDMSService.serving_runtime()`` — a
bounded-queue micro-batching front end over the ``*_batch`` plane functions
— and hammers it from a handful of client threads issuing single requests
(distribution queries, pseudo-labeling lookups, certainty probes).  The
certainty stream additionally feeds a :class:`CertaintyTrigger` in arrival
order, exactly as serial monitoring would.  At the end it prints the live
telemetry (batch coalescing, tail latency, throughput), the trigger state,
and the per-plane activity log, where whole micro-batches appear as single
``*_batch`` invocations.

Run with:  python examples/serving_runtime.py
"""

from __future__ import annotations

import threading

from repro import FairDMS, FairDS, UpdatePolicy
from repro.core import FairDMSService
from repro.datasets import BraggPeakDataset, make_two_phase_schedule
from repro.embedding import PCAEmbedder
from repro.models import build_braggnn
from repro.monitoring import CertaintyTrigger
from repro.nn.trainer import TrainingConfig
from repro.serving import BatchingPolicy

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 12


def main() -> None:
    seed = 0
    experiment = BraggPeakDataset(make_two_phase_schedule(n_scans=16, change_at=10, seed=seed),
                                  peaks_per_scan=80, seed=seed)

    fairds = FairDS(PCAEmbedder(embedding_dim=8), n_clusters=8, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=2, seed=seed),
        training_config=TrainingConfig(epochs=2, batch_size=32, lr=3e-3, seed=seed),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=60.0),
        seed=seed,
    )
    hist_x, hist_y = experiment.stacked(range(3))
    dms.bootstrap(hist_x, hist_y, train_initial_model=False)

    trigger = CertaintyTrigger(threshold_percent=80.0, cooldown=2)
    service = FairDMSService(dms)
    runtime = service.serving_runtime(
        policy=BatchingPolicy(max_batch_size=16, max_queue_depth=256),
        num_workers=2,
        certainty_trigger=trigger,
    )

    def client(cid: int) -> None:
        # Each client interrogates "its" scans one request at a time —
        # the runtime coalesces across clients behind the scenes.
        for i in range(REQUESTS_PER_CLIENT):
            scan = experiment.scan((cid + i) % 16)
            images = scan.images[: 8 + (cid % 3)]
            if i % 3 == 0:
                runtime.call("query_distribution", images)
            elif i % 3 == 1:
                runtime.call("lookup_labeled_data", (images, 8))
            else:
                runtime.call("certainty", images)

    with runtime:
        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        runtime.drain(timeout=60)
        print(runtime.telemetry.format_snapshot())

    fired = trigger.times_fired
    print(f"\ncertainty trigger: {len(trigger.history)} observations in arrival order, "
          f"fired {fired}x (cooldown 2)")

    print("\nPlane activity summary (micro-batches appear as *_batch invocations):")
    for key, count in sorted(service.activity_summary().items()):
        print(f"  {key:35s} x{count}")


if __name__ == "__main__":
    main()
