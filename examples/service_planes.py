#!/usr/bin/env python
"""Serving fairDMS through user-plane / system-plane functions (paper Fig. 5).

The paper deploys fairDMS as a set of funcX functions orchestrated by Globus
Flows, split into a *user plane* (what the scientist calls: query data
distributions, look up labeled data, request a model update) and a *system
plane* (background maintenance: ingest new labeled data, retrain the embedding
and clustering models, update the store).  This example drives the local
:class:`repro.core.FairDMSService` facade that mirrors that structure and
prints the per-plane activity log at the end.

Run with:  python examples/service_planes.py
"""

from __future__ import annotations

from repro import FairDMS, FairDS, UpdatePolicy
from repro.core import FairDMSService
from repro.datasets import BraggPeakDataset, make_two_phase_schedule
from repro.embedding import PCAEmbedder
from repro.models import build_braggnn
from repro.nn.trainer import TrainingConfig


def main() -> None:
    seed = 0
    experiment = BraggPeakDataset(make_two_phase_schedule(n_scans=16, change_at=10, seed=seed),
                                  peaks_per_scan=100, seed=seed)

    fairds = FairDS(PCAEmbedder(embedding_dim=8), n_clusters=8, seed=seed)
    dms = FairDMS(
        fairds,
        model_builder=lambda: build_braggnn(width=4, seed=seed),
        training_config=TrainingConfig(epochs=10, batch_size=32, lr=3e-3, seed=seed),
        policy=UpdatePolicy(distance_threshold=0.7, certainty_threshold=60.0),
        seed=seed,
    )
    hist_x, hist_y = experiment.stacked(range(3))
    dms.bootstrap(hist_x, hist_y)

    service = FairDMSService(dms)
    print("Registered plane functions:", ", ".join(service.registered_functions()))

    # --- user plane --------------------------------------------------------
    scan5 = experiment.scan(5)
    dist = service.query_distribution(scan5.images, label="scan-5")
    print(f"\n[user]  scan 5 cluster PDF: {[round(p, 3) for p in dist['pdf']]}")

    lookup = service.lookup_labeled_data(scan5.images, n_samples=32)
    print(f"[user]  retrieved {lookup['images'].shape[0]} labeled historical samples")

    report = service.request_model_update(scan5.images, label="scan-5")
    print(f"[user]  model update: strategy={report.strategy}, "
          f"end-to-end={report.end_to_end_time:.2f}s")

    # --- batched user plane ------------------------------------------------
    batches = [experiment.scan(s).images for s in (4, 5, 6)]
    dists = service.query_distribution_batch(batches, label="scans-4-6")
    print(f"[user]  batched distribution query over {len(dists)} scans "
          f"(one cluster-assignment pass)")
    lookups = service.lookup_labeled_data_batch(batches, n_samples=16)
    print(f"[user]  batched pseudo-labeling: "
          f"{[l['images'].shape[0] for l in lookups]} samples per scan")
    certs = service.certainty_batch(batches)
    print(f"[system] batched certainty monitor: "
          f"{[round(c, 1) for c in certs]} % per scan")
    cache = dms.fairds.embedding_cache_info()
    # PCA declares memoize = False (a projection is cheaper than hashing its
    # input), so this prints zeros; a network embedder would report hits here.
    print(f"[system] embedding cache: {cache['hits']:.0f} hits / "
          f"{cache['misses']:.0f} misses of {cache['maxsize']:.0f} slots "
          f"(memoised only where the embedder says a transform costs more than a digest)")

    # --- system plane ------------------------------------------------------
    scan11 = experiment.scan(11)  # post-phase-change data, now labeled offline
    added = service.ingest_labeled_data(scan11.images, scan11.normalized_centers)
    print(f"\n[system] ingested {added} newly labeled samples "
          f"(store size = {dms.fairds.store_size()})")
    size = service.refresh_representations()
    print(f"[system] refreshed embedding/clustering over {size} stored samples")

    print("\nPlane activity summary:")
    for key, count in sorted(service.activity_summary().items()):
        print(f"  {key:35s} x{count}")


if __name__ == "__main__":
    main()
