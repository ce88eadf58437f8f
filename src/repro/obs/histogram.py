"""Log-bucketed latency histograms with percentile estimation.

A :class:`Histogram` keeps geometric buckets: bucket ``i`` covers
``[min_value * factor**i, min_value * factor**(i+1))``.  With the
default ``factor = 2**0.25`` every bucket is at most ~19% wide, so a
percentile read off a bucket midpoint is within ~9% of the true value —
plenty for "where did this request spend its time" questions, at O(1)
memory per decade of dynamic range.

Exact extremes are tracked separately: percentile estimates are clamped
to ``[min, max]``, which makes a single-sample histogram report that
sample *exactly* at every percentile, and keeps p99 from overshooting
the slowest thing that actually happened.
"""

from __future__ import annotations

import math
from typing import Dict


class Histogram:
    """A log-bucketed histogram of non-negative samples (seconds).

    Values below ``min_value`` (including 0) land in a dedicated
    underflow bucket whose representative is 0 — sub-resolution
    latencies are "effectively free", not errors.
    """

    __slots__ = (
        "min_value", "_log_factor", "_buckets", "count", "total",
        "min", "max", "_underflow",
    )

    def __init__(self, min_value: float = 1e-9, factor: float = 2 ** 0.25):
        """Create an empty histogram.

        ``min_value`` is the smallest distinguishable sample;
        ``factor`` the geometric bucket growth (> 1).
        """
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if factor <= 1:
            raise ValueError("factor must be > 1")
        self.min_value = min_value
        self._log_factor = math.log(factor)
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def _index(self, value: float) -> int:
        return int(math.log(value / self.min_value) / self._log_factor)

    def add(self, value: float) -> None:
        """Record one sample (negative values are clamped to 0)."""
        if value < 0:
            value = 0.0
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.min_value:
            self._underflow += 1
        else:
            i = self._index(value)
            self._buckets[i] = self._buckets.get(i, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0 <= q <= 100).

        Walks the cumulative bucket counts and returns the geometric
        midpoint of the bucket holding the target rank, clamped to the
        exact observed ``[min, max]``.  Empty histograms return 0.0.
        """
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self._underflow
        if rank <= seen:
            return max(0.0, self.min)
        for i in sorted(self._buckets):
            seen += self._buckets[i]
            if rank <= seen:
                lo = self.min_value * math.exp(i * self._log_factor)
                hi = self.min_value * math.exp((i + 1) * self._log_factor)
                mid = math.sqrt(lo * hi)
                return min(self.max, max(self.min, mid))
        return self.max  # pragma: no cover - unreachable (counts add up)

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.percentile(50)

    @property
    def p90(self) -> float:
        """90th-percentile estimate."""
        return self.percentile(90)

    @property
    def p99(self) -> float:
        """99th-percentile estimate."""
        return self.percentile(99)

    def to_dict(self) -> Dict[str, float]:
        """Summary as plain numbers (the bench-reporting seam)."""
        return {
            "n": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:
        """Debug form with count and key percentiles."""
        return (
            f"Histogram(n={self.count}, p50={self.p50:.3g}, "
            f"p99={self.p99:.3g})"
        )
