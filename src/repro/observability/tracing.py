"""Lightweight request tracing: spans, contextvar propagation, sampling.

A **trace** is the tree of timed spans one request (or one workflow run)
produced as it crossed the system's layers: admission → micro-batch pickup →
index scan → model predict for a served request, or pipeline-run → step for
a workflow.  The pieces:

* :class:`Span` — one named, timed node with attributes and a parent link;
* :class:`Tracer` — owns the sampling decision, hands out spans, and keeps
  finished ones in a bounded in-memory ring buffer with JSON-lines export;
* :func:`trace_span` — the module-level instrumentation point: a context
  manager that opens a child of the *currently active* span (contextvar
  propagated) and is a **no-op when no trace is active**, so instrumented
  hot paths (index scans, model predicts) cost one contextvar read when
  tracing is off or the request was not sampled.

Sampling is **deterministic per trace**: a rate of ``r`` samples every
``1/r``-th root (error-diffusion accumulator, not a random draw), so tests
and benchmarks see exactly the configured fraction and a trace is either
fully recorded or not at all.

Batch execution fans many requests into one handler call; spans recorded
inside the handler belong to *every* sampled request of the batch.
:meth:`Tracer.capture` runs the handler under a synthetic root collecting
its spans, and :meth:`Tracer.graft` clones the captured tree under each
sampled request's span (fresh span ids, parent links preserved), so every
sampled trace is complete and self-consistent — no cross-wired parents, no
spans shared between traces.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

from repro.utils.errors import ConfigurationError

__all__ = ["Span", "Tracer", "trace_span", "current_span"]


def _new_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One timed node of a trace tree.

    Start/end instants are captured on the monotonic clock (duration is
    exact); the wall-clock ``start_s`` is derived once so exported traces
    can be lined up against logs.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes", "status",
        "start_s", "_start_mono", "_end_mono", "_sink", "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_mono: float,
        *,
        tracer: Optional["Tracer"] = None,
        sink: Optional[Deque["Span"]] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.status = "ok"
        self._start_mono = start_mono
        self.start_s = time.time() - (time.monotonic() - start_mono)
        self._end_mono: Optional[float] = None
        self._sink = sink
        self._tracer = tracer

    # -- state -------------------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self._end_mono is not None

    @property
    def duration_s(self) -> Optional[float]:
        if self._end_mono is None:
            return None
        return self._end_mono - self._start_mono

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    # -- export ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = f"{self.duration_s * 1e3:.2f}ms" if self.ended else "open"
        return f"Span({self.name!r}, trace={self.trace_id[:8]}, {dur})"


class _Capture:
    """Spans recorded during one :meth:`Tracer.capture` block."""

    __slots__ = ("root", "spans")

    def __init__(self, root: Span, spans: Deque[Span]):
        self.root = root
        self.spans = spans


#: The active span of the current thread/context (contextvar: each thread —
#: and each :meth:`Tracer.activate` block — sees its own value).
_current_span: ContextVar[Optional[Span]] = ContextVar("repro_current_span", default=None)


def current_span() -> Optional[Span]:
    """The span instrumentation points would parent on right now, if any."""
    return _current_span.get()


class Tracer:
    """Hands out spans, applies sampling, buffers finished spans.

    Parameters
    ----------
    sample_rate:
        Fraction of roots (:meth:`start_trace` calls without ``force``) that
        are sampled, in ``[0, 1]``.  Deterministic error diffusion: 0.5
        samples every second root, 1.0 every root, 0 none.
    max_spans:
        Ring-buffer bound on finished spans kept in memory; the oldest fall
        out first, so memory stays bounded under sustained traffic.
    enabled:
        ``False`` turns the tracer into a permanent no-op (every
        :meth:`start_trace` returns ``None``).
    """

    def __init__(self, sample_rate: float = 0.1, max_spans: int = 4096, enabled: bool = True):
        if not isinstance(sample_rate, (int, float)) or isinstance(sample_rate, bool) \
                or not 0.0 <= float(sample_rate) <= 1.0:
            raise ConfigurationError("sample_rate must be a number in [0, 1]")
        if not isinstance(max_spans, int) or isinstance(max_spans, bool) or max_spans < 1:
            raise ConfigurationError("max_spans must be an integer >= 1")
        self.sample_rate = float(sample_rate)
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._started = 0
        self._sampled = 0
        self._spans: Deque[Span] = deque(maxlen=max_spans)

    # -- sampling ----------------------------------------------------------------
    def should_sample(self) -> bool:
        """One deterministic per-root sampling decision (consumes a slot)."""
        if not self.enabled or self.sample_rate <= 0.0:
            with self._lock:
                self._started += 1
            return False
        with self._lock:
            self._started += 1
            self._accumulator += self.sample_rate
            if self._accumulator >= 1.0 - 1e-12:
                self._accumulator -= 1.0
                self._sampled += 1
                return True
            return False

    @property
    def stats(self) -> Dict[str, int]:
        """Roots offered vs sampled, and spans currently buffered."""
        with self._lock:
            return {
                "roots_started": self._started,
                "roots_sampled": self._sampled,
                "spans_buffered": len(self._spans),
            }

    # -- span lifecycle ----------------------------------------------------------
    def start_trace(
        self, name: str, force: Optional[bool] = None, **attributes: Any
    ) -> Optional[Span]:
        """Open a new root span, or ``None`` when this root is not sampled.

        ``force=True`` bypasses sampling (still counts in :attr:`stats`);
        ``force=False`` forces the root unsampled.
        """
        sampled = self.should_sample() if force is None else bool(force)
        if force is not None:
            # keep the accounting honest even when the decision was imposed
            with self._lock:
                self._started += 1
                if sampled:
                    self._sampled += 1
        if not sampled or not self.enabled:
            return None
        trace_id = _new_id()
        return Span(
            name, trace_id, _new_id(), None, time.monotonic(),
            tracer=self, sink=self._spans, attributes=attributes,
        )

    def start_span(self, name: str, parent: Span, **attributes: Any) -> Span:
        """Open a child span under ``parent`` (which must be a live span)."""
        return Span(
            name, parent.trace_id, _new_id(), parent.span_id, time.monotonic(),
            tracer=self, sink=parent._sink, attributes=attributes,
        )

    def _commit(self, span: Span) -> None:
        """Append a finished span to its sink; the shared ring buffer is
        lock-guarded so concurrent commits never race a buffer read."""
        sink = span._sink
        if sink is None or sink is self._spans:
            with self._lock:
                self._spans.append(span)
        else:  # a private capture sink: single consumer, no lock needed
            sink.append(span)

    def end(self, span: Span, status: str = "ok") -> Span:
        """Finish a span and commit it to its buffer; idempotent."""
        if span._end_mono is None:
            span._end_mono = time.monotonic()
            span.status = status
            self._commit(span)
        return span

    def record_span(
        self,
        name: str,
        parent: Span,
        start_mono: float,
        end_mono: float,
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Record a child span retroactively from two monotonic instants —
        how phases whose boundaries were only timestamps (queue waits)
        become spans after the fact."""
        span = Span(
            name, parent.trace_id, _new_id(), parent.span_id, start_mono,
            tracer=self, sink=parent._sink, attributes=attributes,
        )
        span._end_mono = end_mono
        span.status = status
        self._commit(span)
        return span

    # -- context activation ------------------------------------------------------
    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Make ``span`` the current span for :func:`trace_span` within the
        block (this thread/context only)."""
        token = _current_span.set(span)
        try:
            yield span
        finally:
            _current_span.reset(token)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attributes: Any) -> Iterator[Span]:
        """Open, activate, and (on exit) end a child span.

        Parents on ``parent`` when given, else on the contextvar's current
        span; raises if neither exists — use :meth:`start_trace` for roots.
        """
        parent = parent or _current_span.get()
        if parent is None:
            raise ConfigurationError(
                f"span {name!r} has no parent; start a trace first (start_trace)"
            )
        child = self.start_span(name, parent, **attributes)
        with self.activate(child):
            try:
                yield child
            except BaseException:
                self.end(child, status="error")
                raise
        self.end(child)

    # -- batch fan-in ------------------------------------------------------------
    @contextmanager
    def capture(self, name: str = "capture") -> Iterator[_Capture]:
        """Collect the spans a block produces, detached from any real trace.

        The block runs under a synthetic root whose sink is a private list;
        :func:`trace_span` instrumentation inside it records there instead of
        the tracer's buffer.  Graft the result under one or more real spans
        with :meth:`graft` — the batch-execution fan-in.
        """
        sink: Deque[Span] = deque()
        root = Span(name, _new_id(), _new_id(), None, time.monotonic(),
                    tracer=self, sink=sink)
        capture = _Capture(root, sink)
        with self.activate(root):
            yield capture

    def graft(self, capture: _Capture, parent: Span) -> List[Span]:
        """Clone a captured span tree under ``parent`` (fresh span ids, the
        parent's trace id, internal parent links preserved); returns the
        clones, already committed to the buffer."""
        spans = list(capture.spans)
        mapping = {span.span_id: _new_id() for span in spans}
        mapping[capture.root.span_id] = parent.span_id
        clones: List[Span] = []
        for span in spans:
            clone = Span(
                span.name, parent.trace_id, mapping[span.span_id],
                mapping.get(span.parent_id or "", parent.span_id),
                span._start_mono, tracer=self, sink=parent._sink,
                attributes=span.attributes,
            )
            clone.start_s = span.start_s
            clone._end_mono = span._end_mono if span._end_mono is not None \
                else span._start_mono
            clone.status = span.status
            clone._sink = parent._sink
            self._commit(clone)
            clones.append(clone)
        return clones

    # -- buffer access -----------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Finished spans, oldest first (bounded by ``max_spans``)."""
        with self._lock:
            return list(self._spans)

    def traces(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by trace id (insertion order within)."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.finished_spans():
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def export_jsonl(self, path_or_file: Union[str, "os.PathLike", Any]) -> int:
        """Write every buffered span as one JSON object per line; returns the
        span count written.  Accepts a path or an open text file."""
        spans = self.finished_spans()
        lines = "".join(json.dumps(s.to_dict(), default=str) + "\n" for s in spans)
        if hasattr(path_or_file, "write"):
            path_or_file.write(lines)
        else:
            with open(path_or_file, "a") as fh:
                fh.write(lines)
        return len(spans)


@contextmanager
def trace_span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """Instrumentation point: a child span under the currently active span.

    **No-op when no span is active** — one contextvar read — so library hot
    paths (index scans, model predicts, pipeline steps) stay instrumented
    unconditionally and only pay when the enclosing request was sampled.
    Yields the span, or ``None`` on the no-op path.
    """
    parent = _current_span.get()
    if parent is None or parent._tracer is None:
        yield None
        return
    tracer = parent._tracer
    child = tracer.start_span(name, parent, **attributes)
    token = _current_span.set(child)
    try:
        yield child
    except BaseException:
        _current_span.reset(token)
        tracer.end(child, status="error")
        raise
    _current_span.reset(token)
    tracer.end(child)
