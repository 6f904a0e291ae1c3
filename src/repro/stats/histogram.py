"""Histograms for selectivity estimation.

The paper builds selectivity vectors "from histograms we build by scanning
the database" (Section 4.1.1).  Equi-width histograms estimate range and
equality selectivities with the standard uniform-within-bucket assumption;
equi-depth histograms bound per-bucket error and also provide the bucket
boundaries the CM designer uses when bucketing unclustered attributes.
"""

from __future__ import annotations

import numpy as np

from repro.relational.query import (
    EqPredicate,
    InPredicate,
    Predicate,
    RangePredicate,
)
from repro.stats.distinct import exact_distinct


class EquiWidthHistogram:
    """Fixed-width buckets over a numeric column."""

    def __init__(self, values: np.ndarray, nbuckets: int = 64) -> None:
        if nbuckets <= 0:
            raise ValueError("nbuckets must be positive")
        values = np.asarray(values, dtype=np.float64)
        self.n = len(values)
        if self.n == 0:
            self.lo, self.hi = 0.0, 0.0
            self.counts = np.zeros(1, dtype=np.int64)
            self.width = 1.0
            self.ndistinct = 0
            return
        self.lo = float(values.min())
        self.hi = float(values.max())
        span = self.hi - self.lo
        self.width = span / nbuckets if span > 0 else 1.0
        idx = np.clip(((values - self.lo) / self.width).astype(np.int64), 0, nbuckets - 1)
        self.counts = np.bincount(idx, minlength=nbuckets).astype(np.int64)
        self.ndistinct = exact_distinct(values)

    def _bucket_of(self, v: float) -> int:
        return int(np.clip((v - self.lo) / self.width, 0, len(self.counts) - 1))

    def range_fraction(self, lo: float, hi: float) -> float:
        """Estimated fraction of rows with lo <= value <= hi."""
        if self.n == 0 or hi < self.lo or lo > self.hi:
            return 0.0
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        b_lo, b_hi = self._bucket_of(lo), self._bucket_of(hi)
        if b_lo == b_hi:
            frac = (hi - lo) / self.width if self.width > 0 else 1.0
            return min(1.0, self.counts[b_lo] * min(1.0, max(frac, 1.0 / max(self.ndistinct, 1))) / self.n)
        total = 0.0
        # Partial first and last buckets, full middles.
        first_frac = ((self.lo + (b_lo + 1) * self.width) - lo) / self.width
        last_frac = (hi - (self.lo + b_hi * self.width)) / self.width
        total += self.counts[b_lo] * min(1.0, max(0.0, first_frac))
        total += self.counts[b_hi] * min(1.0, max(0.0, last_frac))
        total += self.counts[b_lo + 1 : b_hi].sum()
        return min(1.0, total / self.n)

    def eq_fraction(self, value: float) -> float:
        """Estimated fraction equal to ``value``: bucket mass spread evenly
        over the distinct values assumed in the bucket."""
        if self.n == 0 or value < self.lo or value > self.hi:
            return 0.0
        bucket = self._bucket_of(value)
        distinct_per_bucket = max(1.0, self.ndistinct / len(self.counts))
        return min(1.0, self.counts[bucket] / distinct_per_bucket / self.n)

    def estimate(self, pred: Predicate) -> float:
        """Estimated selectivity of ``pred`` over the histogrammed column."""
        if isinstance(pred, EqPredicate):
            return self.eq_fraction(pred.value)
        if isinstance(pred, RangePredicate):
            return self.range_fraction(pred.lo, pred.hi)
        if isinstance(pred, InPredicate):
            return min(1.0, sum(self.eq_fraction(v) for v in pred.values))
        raise TypeError(f"unsupported predicate type {type(pred).__name__}")


class EquiDepthHistogram:
    """Buckets with (approximately) equal row counts; boundaries are
    quantiles.  ``boundaries[i] .. boundaries[i+1]`` holds ~n/nbuckets rows."""

    def __init__(self, values: np.ndarray, nbuckets: int = 64) -> None:
        if nbuckets <= 0:
            raise ValueError("nbuckets must be positive")
        values = np.sort(np.asarray(values, dtype=np.float64))
        self.n = len(values)
        if self.n == 0:
            self.boundaries = np.array([0.0, 0.0])
            return
        qs = np.linspace(0.0, 1.0, nbuckets + 1)
        self.boundaries = np.quantile(values, qs)

    @property
    def nbuckets(self) -> int:
        return len(self.boundaries) - 1

    def range_fraction(self, lo: float, hi: float) -> float:
        if self.n == 0:
            return 0.0
        b = self.boundaries
        if hi < b[0] or lo > b[-1]:
            return 0.0
        # Interpolate positions of lo and hi within the quantile ladder.
        pos_lo = np.interp(lo, b, np.linspace(0.0, 1.0, len(b)))
        pos_hi = np.interp(hi, b, np.linspace(0.0, 1.0, len(b)))
        return float(min(1.0, max(0.0, pos_hi - pos_lo)))
