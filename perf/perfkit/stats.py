"""Order statistics the benchmark reports, kept apart so tests can pin them."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def supported_percentile(n_samples: int, cap: float = 99.9) -> float:
    """The highest ladder percentile (at most ``cap``) that still has
    ``MIN_BEYOND`` samples beyond it; the median when none has."""
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        # (the slack absorbs 100 - 99.9 not being exactly 0.1 in binary)
        if pct <= cap and n_samples * (100.0 - pct) >= MIN_BEYOND * 100.0 - 1e-6:
            best = pct
    return best


def tail(samples: Sequence[float], cap: float = 95.0) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest supported percentile of ``samples``."""
    pct = supported_percentile(len(samples), cap)
    return pct, float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def block_values(samples: Sequence[float], n_blocks: int, stat) -> List[float]:
    """``stat`` of each of ``n_blocks`` contiguous (time-ordered) blocks."""
    blocks = np.array_split(np.asarray(samples, dtype=np.float64), max(1, n_blocks))
    return [float(stat(block)) for block in blocks if block.size]


def quietest(block_stats: Sequence[float], better: str = "lower") -> float:
    """The best of the per-block statistics.

    On a shared two-core VM a neighbour only ever slows a stretch of the run
    down, for seconds at a time; it never speeds one up.  The best block
    therefore estimates what the program does when left alone, and stays put
    when most of the run was disturbed — where the figure over the whole run
    moves with every disturbance.  It hides a slowdown of the program's own
    only if that slowdown spares a whole block, and it assumes every block
    does the same work: a workload whose cost grows as it runs
    (``store_mixed``) reports whole-run figures.
    """
    values = np.asarray(block_stats, dtype=np.float64)
    return float(values.min() if better == "lower" else values.max())


def steady_median(samples: Sequence[float], min_block: int = 5, max_blocks: int = 10) -> float:
    """Median latency of the quietest of up to ``max_blocks`` blocks."""
    n_blocks = min(max_blocks, len(samples) // min_block)
    return quietest(block_values(samples, n_blocks, np.median))


def steady_tail(samples: Sequence[float], cap: float = 95.0,
                max_blocks: int = 10) -> Tuple[float, float, int]:
    """``(percentile, value, blocks)``: the highest percentile the whole
    sample supports, taken per block over as many blocks as still leave
    ``MIN_BEYOND`` samples beyond it in each; the quietest block's value."""
    pct = supported_percentile(len(samples), cap)
    beyond = len(samples) * (100.0 - pct) / 100.0
    n_blocks = int(min(max_blocks, max(1, (beyond + 1e-6) // MIN_BEYOND)))
    per_block = block_values(samples, n_blocks, lambda block: np.percentile(block, pct))
    return pct, quietest(per_block), n_blocks


def windowed_percentile(
    times: Sequence[float],
    values: Sequence[float],
    window_s: float,
    n_windows: int,
    pct: float,
    valid: Optional[Sequence[bool]] = None,
) -> Tuple[float, List[float]]:
    """The quietest window's ``pct`` percentile, and every window's.

    ``times`` are offsets from the start of the phase; window ``i`` covers
    ``[i * window_s, (i + 1) * window_s)``.  Windows flagged invalid (a
    starved load generator) or holding no sample are left out.  A slow burst
    moves the windows it falls in, not the estimate, which is what makes
    this steadier than a pooled percentile over the whole phase.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    slots = np.floor(times / window_s).astype(int)
    per_window: List[float] = []
    for i in range(n_windows):
        if valid is not None and not valid[i]:
            continue
        in_window = values[slots == i]
        if in_window.size:
            per_window.append(float(np.percentile(in_window, pct)))
    if not per_window:
        return float("nan"), per_window
    return quietest(per_window), per_window


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the run-to-run
    steadiness figure the benchmark's bounds are judged against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
