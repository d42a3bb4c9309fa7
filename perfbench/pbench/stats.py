"""Distribution statistics for latency samples.

Percentiles use linear interpolation between closest ranks (numpy's
default "linear" method), implemented here so the helpers need nothing
beyond the standard library.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10

#: Below this many samples a run reports no tail latency at all.
MIN_TAIL_OPS = 20


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (0..100) of *values*, linearly interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {pct}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile of *values*."""
    return percentile(values, 50.0)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` samples that is ``100 * (1 - 10 / n)``: exactly ten samples
    rank above it.  Runs with fewer than :data:`MIN_TAIL_OPS` samples get
    ``None`` instead of a degenerate tail.

    Returns
    -------
    (float, float) or None
        ``(percentile, value)``.
    """
    n = len(values)
    if n < MIN_TAIL_OPS:
        return None
    pct = 100.0 * (1.0 - TAIL_SAMPLES / n)
    return pct, percentile(values, pct)
