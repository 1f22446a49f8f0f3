"""Wall-clock timing helpers used by the benchmark harness and services."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed


@dataclass
class StopWatch:
    """Accumulates named timing segments (e.g. ``label``, ``train``, ``transfer``).

    Used by the end-to-end fairDMS workflow to break total model-update time
    into the components reported in Fig. 15 of the paper.
    """

    segments: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            delta = time.perf_counter() - start
            self.segments[name] = self.segments.get(name, 0.0) + delta
            self.counts[name] = self.counts.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Record a pre-computed duration (e.g. from a simulated cost model)."""
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        self.segments[name] = self.segments.get(name, 0.0) + float(seconds)
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self) -> float:
        return float(sum(self.segments.values()))

    def get(self, name: str) -> float:
        return float(self.segments.get(name, 0.0))

    def as_dict(self) -> Dict[str, float]:
        return dict(self.segments)

    def reset(self) -> None:
        self.segments.clear()
        self.counts.clear()
