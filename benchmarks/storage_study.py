"""Shared implementation of the storage studies (Figs. 6, 7, 8).

Each figure compares, for one dataset, (a) training-epoch time as a function
of batch size and (b) per-iteration I/O time as a function of the number of
DataLoader workers, across three storage configurations:

* ``blosc``  — document DB with a compressing codec (Blosc stand-in),
* ``pickle`` — document DB with plain pickle serialisation,
* ``nfs``    — direct ``.npy`` file reads from the file store.

The document DB is given a small simulated network latency per fetch (it is
"hosted remotely" in the paper), which is what extra reader parallelism hides.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api.registry import create_component
from repro.dataio import DataLoader, DocumentDBDataset, FileStoreDataset


def build_backends(samples: np.ndarray, labels: np.ndarray, fetch_latency_s: float = 0.0005):
    """Return ``({name: dataset}, file_store)`` for the three storage configurations.

    Storage backends are constructed by name through the registry, so the
    study runs against whatever stack the configuration names.
    """
    flat_labels = labels.reshape(labels.shape[0], -1)
    backends = {}
    for codec_name in ("blosc", "pickle"):
        db = create_component(
            "storage",
            "documentdb",
            codec=codec_name,
            network={"latency_s": fetch_latency_s, "bandwidth_bytes_per_s": 1.25e9},
        )
        coll = db.collection("samples")
        coll.insert_many(
            [{"label": flat_labels[i].tolist()} for i in range(samples.shape[0])],
            [samples[i] for i in range(samples.shape[0])],
        )
        backends[codec_name] = DocumentDBDataset(coll)
    store = create_component("storage", "file")
    store.write_many([samples[i] for i in range(samples.shape[0])])
    backends["nfs"] = FileStoreDataset(store, flat_labels)
    return backends, store


def epoch_time_vs_batch_size(
    backends: Dict[str, object],
    batch_sizes: Sequence[int],
    workers: int = 4,
    compute_per_batch: float = 0.0,
) -> List[Tuple]:
    """Rows of (backend, batch_size, epoch_seconds).

    ``compute_per_batch`` adds a fixed sleep per batch standing in for the
    forward/backward computation, so prefetching has something to overlap with.
    """
    rows = []
    for name, dataset in backends.items():
        for batch in batch_sizes:
            loader = DataLoader(dataset, batch_size=batch, num_workers=workers)
            start = time.perf_counter()
            for bx, _ in loader:
                np.square(bx).mean()
                if compute_per_batch:
                    time.sleep(compute_per_batch)
            rows.append((name, batch, time.perf_counter() - start))
    return rows


def io_time_vs_workers(
    backends: Dict[str, object],
    worker_counts: Sequence[int],
    batch_size: int,
) -> List[Tuple]:
    """Rows of (backend, workers, ms_per_batch) — pure fetch cost, no compute."""
    rows = []
    for name, dataset in backends.items():
        for workers in worker_counts:
            loader = DataLoader(dataset, batch_size=batch_size, num_workers=workers)
            start = time.perf_counter()
            n_batches = sum(1 for _ in loader)
            elapsed = time.perf_counter() - start
            rows.append((name, workers, 1e3 * elapsed / max(n_batches, 1)))
    return rows


def check_storage_trends(io_rows: List[Tuple], parallel_gain_backends=("blosc", "pickle")) -> None:
    """Assert the qualitative trends of Figs. 6-8.

    For DB-backed storage (per-fetch latency + deserialisation), more workers
    must reduce per-batch I/O time; we compare the single-worker serial path
    against the largest worker count.
    """
    by_backend: Dict[str, Dict[int, float]] = {}
    for name, workers, ms in io_rows:
        by_backend.setdefault(name, {})[workers] = ms
    for name in parallel_gain_backends:
        series = by_backend[name]
        assert series[max(series)] < series[min(series)], (
            f"{name}: expected parallel prefetch to reduce I/O time, got {series}"
        )
