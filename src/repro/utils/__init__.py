"""Shared utilities for the fairDMS reproduction.

The :mod:`repro.utils` package collects the small, dependency-free building
blocks used throughout the library: deterministic random-number handling,
wall-clock timing, distribution statistics (histograms, Jensen-Shannon
divergence, percentiles), content-digest LRU caching and the common
exception hierarchy.
"""

from repro.utils.errors import (
    ReproError,
    ConfigurationError,
    StorageError,
    NotFittedError,
    ValidationError,
    ServingError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.utils.cache import LRUCache, row_digests
from repro.utils.rng import default_rng, spawn_rngs, set_global_seed, get_global_seed
from repro.utils.timing import Timer, StopWatch
from repro.utils.stats import (
    jensen_shannon_divergence,
    kl_divergence,
    latency_summary,
    normalize_distribution,
    histogram_pdf,
    percentile_summary,
    running_mean,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "StorageError",
    "NotFittedError",
    "ValidationError",
    "ServingError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "default_rng",
    "spawn_rngs",
    "set_global_seed",
    "get_global_seed",
    "Timer",
    "StopWatch",
    "jensen_shannon_divergence",
    "kl_divergence",
    "normalize_distribution",
    "histogram_pdf",
    "percentile_summary",
    "latency_summary",
    "running_mean",
    "LRUCache",
    "row_digests",
]
