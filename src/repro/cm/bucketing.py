"""Bucketing for Correlation Maps (Appendix A-1.1/A-1.2).

CMs shrink by compressing consecutive values into buckets:

* *unclustered (key) side*: values are truncated into fixed-width buckets
  (``$66,550 -> $60,000-$70,000`` in the paper's example).  Wider key buckets
  merge entries but make each lookup return the union of their clustered
  values — potentially more random I/O, so the CM designer searches widths.
* *clustered side*: consecutive clustered-key rank codes share a "bucket ID".
  This only widens sequential ranges (false positives are sequential reads,
  not seeks), so the designer uses a fixed reasonable width.

Bucket matching for predicates is conservative: a bucket qualifies when it
*may* contain a matching value.  False positives cost I/O only — results
stay exact because residual filtering happens in memory.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.relational.query import (
    EqPredicate,
    InPredicate,
    Predicate,
    RangePredicate,
)
from repro.storage.fragments import sorted_unique


def bucket_codes(values: ArrayLike, width: int) -> np.ndarray:
    """Floor values into buckets of ``width`` consecutive integers: bucket
    ``c`` covers ``[c*width, (c+1)*width)``, on either side of zero and for
    float values too.  ``width == 1`` on integers is the identity (no
    bucketing).  The one bucketing rule of both the build side and the
    predicate side."""
    if width <= 0:
        raise ValueError("bucket width must be positive")
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        return np.floor_divide(arr, width).astype(np.int64)
    arr = arr.astype(np.int64, copy=False)
    if width == 1:
        return arr
    return np.floor_divide(arr, width)


def entries_match(pred: Predicate, entry_buckets: np.ndarray, width: int) -> np.ndarray:
    """Boolean mask over CM entries (bucket codes) that may satisfy ``pred``.

    Bucket ``c`` covers raw values ``[c*width, (c+1)*width)``; it matches
    when that interval intersects the predicate's admissible set.
    """
    entry_buckets = np.asarray(entry_buckets, dtype=np.int64)
    if isinstance(pred, EqPredicate):
        return entry_buckets == int(bucket_codes(pred.value, width))
    if isinstance(pred, RangePredicate):
        # An open end (±inf) has no bucket and bounds nothing.
        match = np.ones(len(entry_buckets), dtype=bool)
        if pred.lo > -np.inf:
            match &= entry_buckets >= int(bucket_codes(pred.lo, width))
        if pred.hi < np.inf:
            match &= entry_buckets <= int(bucket_codes(pred.hi, width))
        return match
    if isinstance(pred, InPredicate):
        wanted = sorted_unique(bucket_codes(pred.values, width))
        return np.isin(entry_buckets, wanted)
    raise TypeError(f"unsupported predicate type {type(pred).__name__}")


def candidate_widths(ndistinct: int, max_candidates: int = 5) -> list[int]:
    """Geometric ladder of key-side bucket widths to try for an attribute
    with ``ndistinct`` values: 1 (exact), then powers that roughly quarter
    the entry count each step."""
    widths = [1]
    w = 4
    while len(widths) < max_candidates and w < max(2, ndistinct):
        widths.append(w)
        w *= 4
    return widths
