"""Fragment computation: coalescing page accesses into contiguous runs.

The correlation effect at the heart of the paper (Figure 13) is visible in
this module: a sorted secondary-index scan touches a set of heap pages, and
its cost is driven by how many *contiguous runs* ("fragments") those pages
form.  Matching rows clustered near each other produce a few long fragments
(cheap: few seeks); scattered rows produce one fragment per page (expensive).
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a NaN-free 1-D array, by sorting: plain
    ``np.unique`` hashes from NumPy 2.3 on, which is several times slower
    than a sort at every size this codebase has.  Input that is already
    non-decreasing — rowids out of ``np.nonzero``, pages of such rowids, a
    Correlation Map's merged postings — is not sorted again, and strictly
    increasing input is returned as it is."""
    if len(values) < 2:
        return values
    if (values[1:] < values[:-1]).any():
        values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values if keep.all() else values[keep]


def pages_for_rowids(rowids: np.ndarray, rows_per_page: int) -> np.ndarray:
    """Sorted unique page numbers touched by ``rowids`` (positions in the
    heap file's clustered order)."""
    if rows_per_page <= 0:
        raise ValueError("rows_per_page must be positive")
    if len(rowids) == 0:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.asarray(rowids, dtype=np.int64) // rows_per_page)


def coalesce_pages(pages: np.ndarray, gap: int) -> list[tuple[int, int]]:
    """Group sorted unique page numbers into fragments.

    Two consecutive page accesses belong to the same fragment when they are
    at most ``gap`` pages apart (modelling readahead: the DBMS keeps reading
    sequentially over small holes rather than seeking).  Returns inclusive
    ``(first_page, last_page)`` runs.
    """
    if gap < 0:
        raise ValueError("gap must be non-negative")
    if len(pages) == 0:
        return []
    pages = np.asarray(pages, dtype=np.int64)
    breaks = np.nonzero(np.diff(pages) > gap + 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(pages) - 1]))
    return [(int(pages[s]), int(pages[e])) for s, e in zip(starts, ends)]


def fragment_count(pages: np.ndarray, gap: int) -> int:
    """Number of fragments (see :func:`coalesce_pages`)."""
    if len(pages) == 0:
        return 0
    pages = np.asarray(pages, dtype=np.int64)
    return 1 + int((np.diff(pages) > gap + 1).sum())


def pages_spanned(fragments: list[tuple[int, int]]) -> int:
    """Total pages actually read: each fragment is read end to end
    (readahead reads the holes too)."""
    return sum(last - first + 1 for first, last in fragments)
