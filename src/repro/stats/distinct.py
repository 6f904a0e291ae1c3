"""Distinct-value counting: exact, sample-scaled estimators, and Gibbons'
distinct sampling.

The paper estimates "the number of distinct values of each attribute" with
Gibbons' Distinct Sampling [VLDB 2001] and uses "Adaptive Estimation (AE)"
[Charikar et al., PODS 2000] for composite attributes and for on-the-fly
``fragments`` estimation over synopses (Appendix A-2.2).

Implementation notes recorded in DESIGN.md: we implement GEE exactly as
published (``sqrt(n/r) * f1 + sum_{j>=2} f_j``); Chao's 1984 estimator
(``d + f1^2 / (2 f2)``); and an ``adaptive_estimator`` that follows AE's
adaptive idea — use the data's own skew to choose how aggressively to scale
the singletons — via a smooth blend between Chao (low skew evidence) and GEE
(high skew evidence).  All three are cross-validated against exact counts in
the test suite; the designer is insensitive to which is used because only
relative fragment counts matter.
"""

from __future__ import annotations

import math

import numpy as np


def _frequency_of_frequencies(sample: np.ndarray) -> tuple[int, np.ndarray]:
    """(d, f) where d = distinct in sample and f[j] = number of values seen
    exactly j+1 times."""
    if len(sample) == 0:
        return 0, np.zeros(0, dtype=np.int64)
    _, counts = np.unique(sample, return_counts=True)
    d = len(counts)
    f = np.bincount(counts)[1:]  # f[0] -> values seen once
    return d, f.astype(np.int64)


def exact_distinct(values: np.ndarray) -> int:
    """Exact distinct count of a (code) array."""
    return _frequency_of_frequencies(values)[0]


def _gee(d: int, f: np.ndarray, r: int, n_total: int) -> float:
    f1 = int(f[0]) if len(f) else 0
    rest = d - f1
    return math.sqrt(n_total / r) * f1 + rest


def _chao(d: int, f: np.ndarray) -> float:
    if d == 0:
        return 0.0
    f1 = int(f[0]) if len(f) >= 1 else 0
    f2 = int(f[1]) if len(f) >= 2 else 0
    if f2 > 0:
        return d + f1 * f1 / (2.0 * f2)
    return d + f1 * max(f1 - 1, 0) / 2.0


def gee_estimator(sample: np.ndarray, n_total: int) -> float:
    """Guaranteed-Error Estimator of Charikar et al.:
    ``sqrt(n/r) * f1 + sum_{j>=2} f_j``."""
    return scale_distinct(sample, n_total, "gee")


def chao_estimator(sample: np.ndarray) -> float:
    """Chao's 1984 lower-bound estimator: ``d + f1^2 / (2 f2)``.

    When no value is seen twice (f2 = 0) the bias-corrected form
    ``d + f1 (f1 - 1) / 2`` is used.
    """
    return _chao(*_frequency_of_frequencies(sample))


def adaptive_estimator(sample: np.ndarray, n_total: int) -> float:
    """AE-style adaptive distinct estimator over a uniform sample.

    Charikar et al.'s AE adapts to the skew of the data: for low-skew data
    the singleton count f1 mostly reflects genuinely rare values and a
    Chao-style correction suffices; for high-skew data singletons must be
    scaled up toward the GEE bound.  We measure skew evidence as the
    singleton fraction ``f1 / d`` and interpolate between the two published
    estimators, clamped to the feasible range [d, n_total].  The sample is
    counted once; both estimators read the same ``(d, f)``.
    """
    return scale_distinct(sample, n_total, "ae")


def _adaptive(d: int, f: np.ndarray, r: int, n_total: int) -> float:
    f1 = int(f[0]) if len(f) >= 1 else 0
    if f1 == 0:
        # Every value repeated: the sample has very likely seen everything.
        return float(d)
    skew_evidence = f1 / d
    low = _chao(d, f)
    high = _gee(d, f, r, n_total)
    est = (1.0 - skew_evidence) * low + skew_evidence * high
    return float(min(max(est, d), n_total))


def scale_counts(
    d: int, f: np.ndarray, r: int, n_total: int, estimator: str = "ae"
) -> float:
    """:func:`scale_distinct` for a sample already counted: ``r`` rows
    holding ``d`` distinct values, ``f[j]`` of them seen ``j + 1`` times
    (what :meth:`repro.stats.keyindex.KeyIndex.counts` returns).  Integers
    in, so an estimate does not depend on how the sample was counted."""
    if estimator == "exact":
        return float(d)
    if estimator == "chao":
        return _chao(d, f)
    if estimator == "gee":
        scale = _gee
    elif estimator == "ae":
        scale = _adaptive
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    if r == 0:
        return 0.0
    if n_total < r:
        raise ValueError("n_total must be >= sample size")
    return scale(d, f, r, n_total)


def scale_distinct(
    sample: np.ndarray, n_total: int, estimator: str = "ae"
) -> float:
    """Estimate the distinct count of a population of ``n_total`` rows from
    a uniform sample, by estimator name ('exact' treats the sample as the
    population)."""
    return scale_counts(
        *_frequency_of_frequencies(sample), len(sample), n_total, estimator
    )


def _mix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer) for hashing codes."""
    z = x.astype(np.uint64)
    z = (z + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class GibbonsDistinctSampler:
    """Gibbons' distinct sampling (VLDB 2001), the level-based hash sketch.

    A value is retained at level ``l`` when its hash has at least ``l``
    trailing zero bits; the level rises whenever the retained set outgrows
    the space bound.  The distinct-count estimate is ``|S| * 2^level``.
    Maintained incrementally, so it supports the paper's claim that these
    statistics "can be efficiently maintained under updates".
    """

    def __init__(self, max_size: int = 4096) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self.level = 0
        self._kept: set[int] = set()

    def add_batch(self, values: np.ndarray) -> None:
        hashes = _mix64(np.asarray(values, dtype=np.int64))
        # Trailing-zero count via bitwise isolation of the lowest set bit.
        for h in hashes:
            h_int = int(h)
            if h_int == 0:
                tz = 64
            else:
                tz = (h_int & -h_int).bit_length() - 1
            if tz >= self.level:
                self._kept.add(h_int)
        while len(self._kept) > self.max_size:
            self.level += 1
            threshold = self.level
            self._kept = {
                h for h in self._kept
                if h == 0 or ((h & -h).bit_length() - 1) >= threshold
            }

    def estimate(self) -> float:
        return len(self._kept) * float(2**self.level)


def gibbons_distinct(values: np.ndarray, max_size: int = 4096) -> float:
    """One-shot Gibbons distinct-sampling estimate over an array."""
    sampler = GibbonsDistinctSampler(max_size)
    sampler.add_batch(values)
    return sampler.estimate()
