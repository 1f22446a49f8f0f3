#!/usr/bin/env python
"""Storage-backend study: document DB (Blosc/Pickle codecs) vs direct file reads.

Miniature version of the paper's Figs. 6-8: train a small denoiser on
tomography slices whose samples are served from three different storage
configurations, and report per-epoch times and per-batch I/O latency as the
number of DataLoader workers varies.

Run with:  python examples/storage_backends.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.registry import create_component
from repro.dataio import ArrayDataset, DataLoader, DocumentDBDataset, FileStoreDataset
from repro.datasets import DriftSchedule, TomographyDataset


def _build_backends(noisy, clean):
    """Return {name: Dataset} for the three storage configurations.

    Backends are selected by name through the component registry — the same
    mechanism a deployment would use to pick its stack from configuration.
    """
    flat_labels = clean.reshape(clean.shape[0], -1)

    backends = {}
    for codec_name in ("blosc", "pickle"):
        db = create_component(
            "storage",
            "documentdb",
            codec=codec_name,
            network={"latency_s": 0.0005, "bandwidth_bytes_per_s": 1.25e9},
        )
        coll = db.collection("tomo")
        coll.insert_many(
            [{"label": flat_labels[i].tolist()} for i in range(noisy.shape[0])],
            [noisy[i] for i in range(noisy.shape[0])],
        )
        backends[codec_name] = DocumentDBDataset(coll)

    store = create_component("storage", "file")
    store.write_many([noisy[i] for i in range(noisy.shape[0])])
    backends["nfs"] = FileStoreDataset(store, flat_labels)
    return backends, store


def main() -> None:
    schedule = DriftSchedule(n_scans=2)
    data = TomographyDataset(schedule, slices_per_scan=48, image_size=64, seed=0)
    noisy, clean = data.stacked([0, 1])
    print(f"dataset: {noisy.shape[0]} slices of {noisy.shape[-1]}x{noisy.shape[-1]}")

    backends, store = _build_backends(noisy, clean)
    try:
        print("\nPer-batch fetch latency vs number of DataLoader workers (batch=16):")
        print("backend   " + "".join(f"  w={w:<3d}" for w in (0, 2, 4, 8)))
        for name, dataset in backends.items():
            row = []
            for workers in (0, 2, 4, 8):
                loader = DataLoader(dataset, batch_size=16, num_workers=workers)
                start = time.perf_counter()
                n_batches = sum(1 for _ in loader)
                elapsed = time.perf_counter() - start
                row.append(1e3 * elapsed / n_batches)
            print(f"{name:9s} " + "".join(f" {ms:6.1f}" for ms in row) + "   [ms/batch]")

        print("\nEpoch time vs batch size (4 workers), including a dummy compute step:")
        print("backend   " + "".join(f"  b={b:<4d}" for b in (8, 16, 32)))
        for name, dataset in backends.items():
            row = []
            for batch in (8, 16, 32):
                loader = DataLoader(dataset, batch_size=batch, num_workers=4)
                start = time.perf_counter()
                for bx, _ in loader:
                    # Stand-in for the forward/backward pass: one big reduction.
                    np.square(bx).mean()
                row.append(time.perf_counter() - start)
            print(f"{name:9s} " + "".join(f" {s:6.2f}" for s in row) + "   [s/epoch]")
    finally:
        store.cleanup()


if __name__ == "__main__":
    main()
