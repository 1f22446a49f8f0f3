"""Thread-pool helpers, now routed through the compute-plane Executor seam.

The storage and labeling substrates need bounded parallelism: concurrent
readers fetching training mini-batches from the document store, and the
pseudo-Voigt labeler fanning peak fits across workers.  :func:`thread_map`
keeps its historical signature and semantics but delegates to a
:class:`repro.compute.ThreadExecutor` fan-out, so pooled work shows up in
the ``repro_executor_*`` metrics and ``executor.task`` trace spans like
every other compute-plane consumer.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    max_workers: int = 4,
    chunk: bool = False,
) -> List[R]:
    """Apply ``fn`` to every item using a thread pool, preserving order.

    Parameters
    ----------
    fn:
        Callable applied to each item.
    items:
        Input sequence.
    max_workers:
        Number of worker threads.  ``max_workers <= 1`` runs serially, which
        keeps small workloads free of pool overhead.
    chunk:
        When ``True`` the items are split into at most ``max_workers``
        contiguous chunks and ``fn`` is applied to each chunk instead of each
        item (useful when per-item work is tiny).

    An exception (``KeyboardInterrupt`` included) raised by ``fn`` in any
    worker propagates to the caller; pending items are cancelled.

    Implemented as a one-shot fan-out on a
    :class:`repro.compute.ThreadExecutor` (same ordering, chunking, and
    cancel-and-reraise semantics as the historical thread-pool code).
    """
    items = list(items)
    if not items:
        return []
    if max_workers <= 1:
        if chunk:
            return [fn(items)]  # type: ignore[list-item]
        return [fn(it) for it in items]
    from repro.compute.executor import ThreadExecutor  # lazy: avoids an import cycle

    with ThreadExecutor(max_workers=max_workers) as executor:
        return executor.map(fn, items, chunk=chunk)
