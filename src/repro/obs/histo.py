"""Log-bucketed latency histograms for the ``distributions`` export.

A :class:`Histogram` counts samples into geometric buckets with fixed,
instance-independent boundaries: bucket ``i`` spans
``[RATIO**i, RATIO**(i+1))`` with ``RATIO = 2**(1/8)`` (eight buckets
per octave, ~9% relative width). Fixed boundaries make histograms from
different processes and different runs mergeable bucket-by-bucket, and
bound the error of interpolated percentiles by one bucket's width —
the property the numpy-reference tests assert.

Recording is O(1) (one ``log`` and one dict increment), so hot-ish
paths like per-walk latency can record unconditionally once a run is
observed. Values ``<= 0`` land in a dedicated underflow bucket and
participate in percentiles as zero.
"""

from __future__ import annotations

import math
from typing import Iterable

#: Geometric bucket growth factor: eight buckets per power of two.
RATIO = 2.0 ** 0.125

_LOG_RATIO = math.log(RATIO)

#: Sentinel index for samples <= 0 (cycle counts are never negative,
#: but a zero-duration span must not crash the log).
_UNDERFLOW = -(10**9)


def bucket_index(value: float) -> int:
    """Index of the geometric bucket containing ``value``."""
    if value <= 0:
        return _UNDERFLOW
    return math.floor(math.log(value) / _LOG_RATIO + 1e-12)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``[lo, hi)`` boundaries of bucket ``index``."""
    if index == _UNDERFLOW:
        return (0.0, 0.0)
    return (RATIO**index, RATIO ** (index + 1))


class Histogram:
    """One named distribution: sparse geometric buckets plus extrema."""

    __slots__ = ("name", "unit", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    # ------------------------------------------------------------------
    # recording

    def record(self, value: float) -> None:
        """Count one sample."""
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Iterable[float]) -> None:
        """Count every sample in ``values``."""
        for value in values:
            self.record(value)

    def record_counts(self, values: Iterable[float],
                      counts: Iterable[int]) -> None:
        """Count ``count`` samples of each ``value``: one bucket lookup
        per distinct value instead of one :meth:`record` per sample.

        Equal to the :meth:`record` loop in every field for integer
        samples (their sum is exact in a float below 2**53), which is
        what per-walk cycle counts are.
        """
        buckets = self.counts
        for value, count in zip(values, counts):
            if count <= 0:
                continue
            index = bucket_index(value)
            buckets[index] = buckets.get(index, 0) + count
            self.count += count
            self.total += value * count
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    # ------------------------------------------------------------------
    # reading

    @property
    def mean(self) -> float:
        """Arithmetic mean of every recorded sample."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated ``q``-th percentile (0..100).

        Uses numpy's ``linear`` convention — target rank
        ``q/100 * (count - 1)`` — resolved to a bucket by cumulative
        count, then linearly interpolated inside the bucket. Exact to
        within one bucket's ~9% relative width, which is what the
        reference tests assert.
        """
        if not self.count:
            return 0.0
        if self.count == 1:
            return float(self.min or 0.0)
        target = (q / 100.0) * (self.count - 1)
        cumulative = 0
        for index in sorted(self.counts):
            bucket_count = self.counts[index]
            if cumulative + bucket_count > target:
                lo, hi = bucket_bounds(index)
                # clamp the edge buckets to the observed extrema so the
                # interpolation never reports a value outside the data
                lo = max(lo, self.min or lo) if index != _UNDERFLOW else 0.0
                hi = min(hi, (self.max or hi) if self.max is not None else hi)
                if bucket_count <= 1 or hi <= lo:
                    return lo
                fraction = (target - cumulative) / bucket_count
                return lo + fraction * (hi - lo)
            cumulative += bucket_count
        return float(self.max or 0.0)

    def percentiles(self, qs: tuple[float, ...] = (50.0, 95.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for the given ``qs``."""
        return {f"p{q:g}": round(self.percentile(q), 6) for q in qs}

    # ------------------------------------------------------------------
    # merge / serialization

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (same bounds)."""
        for index, bucket_count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def as_dict(self) -> dict:
        """JSON-safe form for the ``distributions`` export section."""
        return {
            "unit": self.unit,
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
            "percentiles": self.percentiles(),
            # [lo, hi, count] per non-empty bucket, ascending
            "buckets": [
                [round(bucket_bounds(i)[0], 6), round(bucket_bounds(i)[1], 6), c]
                for i, c in sorted(self.counts.items())
            ],
        }

    @classmethod
    def from_dict(cls, name: str, doc: dict) -> "Histogram":
        """Rebuild a histogram from its :meth:`as_dict` form.

        Bucket boundaries are fixed, so the stored ``lo`` edge maps
        straight back to a bucket index; merged inspect views rely on
        this round trip.
        """
        histogram = cls(name, unit=doc.get("unit", ""))
        histogram.count = int(doc.get("count", 0))
        histogram.total = float(doc.get("sum", 0.0))
        histogram.min = doc.get("min")
        histogram.max = doc.get("max")
        for lo, _hi, bucket_count in doc.get("buckets", []):
            index = _UNDERFLOW if lo <= 0 else bucket_index(lo * RATIO**0.5)
            histogram.counts[index] = histogram.counts.get(index, 0) + int(bucket_count)
        return histogram
