"""Span recording around calls into each layer, from the benchmark's side.

Spans are kept in memory and written out once, when the traced pass ends.
One JSON object per line: ``name``, ``trace_id``, ``span_id``, ``parent_id``
(``null`` for a root), ``start`` and ``end`` in seconds on the
``time.perf_counter`` clock, and ``workload``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, parent: Optional[dict] = None) -> Iterator[dict]:
        """Time the enclosed block.  A span without ``parent`` starts a trace."""
        span_id = self._next_id
        self._next_id += 1
        record = {
            "name": name,
            "trace_id": parent["trace_id"] if parent is not None else span_id,
            "span_id": span_id,
            "parent_id": parent["span_id"] if parent is not None else None,
            "start": time.perf_counter(),
            "end": None,
            "workload": self.workload,
        }
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write_jsonl(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        return len(self.spans)


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children are not counted
    twice, and a child is clipped to its parent's interval)."""
    children: Dict[int, List[dict]] = {}
    for record in spans:
        if record["parent_id"] is not None:
            children.setdefault(record["parent_id"], []).append(record)
    out: Dict[int, float] = {}
    for record in spans:
        start, end = record["start"], record["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(record["span_id"], []), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["span_id"]] = (end - start) - covered
    return out
