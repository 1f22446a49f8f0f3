"""Dynamic micro-batching: a bounded per-operation queue that workers pull from.

A :class:`MicroBatcher` is the front door of one serving operation.  Client
threads :meth:`~MicroBatcher.submit` single requests into a bounded FIFO
(admission control: a full queue raises
:class:`~repro.utils.errors.ServiceOverloadedError` immediately rather than
queueing unboundedly).  A worker thread that is free calls
:meth:`~MicroBatcher.take`, which never blocks: it returns whatever is queued
*now*, up to ``max_batch_size`` requests.

Batches therefore form exactly when they can pay off: while every worker is
busy, requests accumulate, and the batch is cut at the last possible moment —
when a worker asks for it.  A lone request under light traffic is taken by an
idle worker at once; nothing ever waits for a batch that is not forming.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional

from repro.utils.errors import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
)


@dataclass
class BatchingPolicy:
    """Knobs of the dynamic micro-batching scheduler.

    Parameters
    ----------
    max_batch_size:
        The largest batch ever handed to a handler: a free worker takes what
        is queued, up to this many requests.
    max_wait_ms:
        **Has no effect.**  Workers pull batches the moment they are free, so
        no request is ever held back waiting for company.  The field is still
        accepted and validated only because existing specs pass it; it is
        slated for removal.
    max_queue_depth:
        Admission bound (per operation).  Submissions beyond this depth fail
        fast with :class:`ServiceOverloadedError` instead of growing the
        queue, so overload surfaces as rejections rather than latency
        collapse or deadlock.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ConfigurationError("max_wait_ms must be non-negative")
        if self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")


@dataclass
class Request:
    """One admitted single-sample request travelling through the runtime."""

    op: str
    payload: Any
    #: ``time.monotonic()`` instant after which the result is useless to the
    #: caller; a worker that picks the request up later fails it with
    #: :class:`~repro.utils.errors.DeadlineExceededError` instead of running it.
    deadline: Optional[float] = None
    future: Future = field(default_factory=Future)
    seq: int = -1  # per-op admission sequence, assigned by the batcher
    admitted_at: float = 0.0  # time.monotonic() at admission
    #: Root span of this request's trace when it was sampled (a
    #: :class:`~repro.observability.tracing.Span`), else ``None``.
    trace: Optional[Any] = None


class MicroBatcher:
    """Bounded request queue of one operation; workers :meth:`take` from it.

    Thread-safety: any number of producers may call :meth:`submit` and any
    number of consumers :meth:`take`.  ``cond`` is the condition variable
    idle consumers wait on — a runtime passes the one all its batchers
    share, so a worker can wait for work on *any* operation; a private one
    is created when omitted.
    """

    def __init__(
        self,
        policy: Optional[BatchingPolicy] = None,
        cond: Optional[threading.Condition] = None,
    ):
        self.policy = policy or BatchingPolicy()
        self._items: Deque[Request] = deque()
        # Re-entrant (Condition's default lock is an RLock): a worker holding
        # the shared condition calls take()/closed without deadlocking.
        self._cond = cond if cond is not None else threading.Condition()
        self._closed = False
        self._admitted = 0

    # -- producer side ---------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Admit ``request``; returns the queue depth after admission.

        Assigns the request's admission sequence number and timestamp
        atomically with the capacity check, so sequence numbers are dense
        over *accepted* requests (rejections consume none).
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError(f"operation {request.op!r} is no longer accepting requests")
            if len(self._items) >= self.policy.max_queue_depth:
                raise ServiceOverloadedError(
                    f"operation {request.op!r} queue is full "
                    f"(max_queue_depth={self.policy.max_queue_depth})"
                )
            request.seq = self._admitted
            self._admitted += 1
            request.admitted_at = time.monotonic()
            self._items.append(request)
            # Wakes one idle consumer; costs nothing while all are busy (no
            # waiters), which is when the queue is left to build a batch.
            self._cond.notify()
            return len(self._items)

    # -- consumer side ---------------------------------------------------------
    def take(self) -> List[Request]:
        """Everything queued right now, up to ``max_batch_size``; never blocks.

        Empty when nothing is queued; FIFO.
        """
        with self._cond:
            items = self._items
            n = min(len(items), self.policy.max_batch_size)
            return [items.popleft() for _ in range(n)]

    def close(self) -> None:
        """Stop accepting requests; those already queued stay takeable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def admitted(self) -> int:
        with self._cond:
            return self._admitted
