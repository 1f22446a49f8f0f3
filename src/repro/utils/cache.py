"""Light-weight caching primitives.

Where an embedding model costs more than a digest of its input (the embedder
says so: ``Embedder.memoize``), an LRU cache keyed on *content digests* of the
raw sample bytes lets fairDS skip the embedder for samples it has already
seen, without trusting object identity or array ids.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterable, List, Optional

import numpy as np

from repro.utils.errors import ConfigurationError


def row_digests(batch: np.ndarray) -> List[bytes]:
    """Per-sample content digests of a batch, one per leading-axis slice
    (``[]`` for zero rows): equal iff dtype, shape and C-order bytes are, so
    a float32 copy or a reshaped view never aliases the original's cache
    entry.  The dtype/shape preamble is hashed once for the whole batch and
    each row's bytes where they lie, by a copy of that hasher."""
    batch = np.asarray(batch)
    if batch.ndim == 0:
        raise ConfigurationError("cannot digest a 0-d array as a batch")
    batch = np.ascontiguousarray(batch)
    # One update stream per row: dtype bytes, then the per-row shape, then
    # the row's C-order bytes (blake2b streams concatenate).
    prefix = str(batch.dtype).encode() + np.asarray(batch.shape[1:], dtype=np.int64).tobytes()
    primed = hashlib.blake2b(prefix, digest_size=16)
    if batch.dtype.hasobject or not batch.size:
        rows = [row.tobytes() for row in batch]  # no byte view of these exists
    else:
        rows = batch.reshape(batch.shape[0], -1).view(np.uint8)
    digests = []
    for row in rows:
        hasher = primed.copy()
        hasher.update(row)
        digests.append(hasher.digest())
    return digests


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss counters.

    ``maxsize == 0`` is a valid always-empty cache (every ``get`` misses and
    ``put`` is a no-op), which callers use as the "caching disabled" setting.
    Thread-safe: fairDS readers take no lock, so lookups on serving and
    network threads share one cache.
    """

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ConfigurationError("maxsize must be non-negative")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Optional[Any] = None) -> Optional[Any]:
        """Return the cached value (marking it most-recently-used) or ``default``."""
        return self.get_many((key,), default)[0]

    def get_many(self, keys: Iterable[Hashable], default: Optional[Any] = None) -> List[Any]:
        """``[get(key, default) for key in keys]`` under one acquisition of
        the lock: the same hits, misses and recency, key by key."""
        values = []
        missed = 0
        with self._lock:
            data = self._data
            for key in keys:
                if key in data:
                    data.move_to_end(key)
                    values.append(data[key])
                else:
                    values.append(default)
                    missed += 1
            self.hits += len(values) - missed
            self.misses += missed
        return values

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the least-recently-used overflow."""
        self.put_many((key,), (value,))

    def put_many(self, keys: Iterable[Hashable], values: Iterable[Any]) -> None:
        """``put(key, value)`` pair by pair, in order, under one acquisition
        of the lock: the same final contents, recency and evictions."""
        if self.maxsize == 0:
            return
        with self._lock:
            data = self._data
            for key, value in zip(keys, values):
                data[key] = value
                data.move_to_end(key)
                while len(data) > self.maxsize:
                    data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def info(self) -> Dict[str, float]:
        """Counters snapshot: size, maxsize, hits, misses, hit_rate."""
        with self._lock:
            size = len(self._data)
        return {
            "size": size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }
