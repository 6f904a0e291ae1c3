"""Key index: sort orders and group counts of joint keys over one table.

Everything the designer asks of a synopsis about a joint key — the order a
heap clustered by it would have, which rows share a key value, how many
distinct values there are and how often each is seen — is answered from
*dense codes*: each column is coded once, lazily, as the order-preserving
rank of its value (two rows share a code iff their values compare equal, so
``-0.0`` and ``0.0`` are one value everywhere), in the narrowest unsigned
type that holds the table's row count, together with its stable sort order.

The order of a key is its parent prefix's order *refined* by the last
column (one LSD radix pass): take the parent's group code of every row in
the last column's stable order and sort that stably.  Rows come out by
(parent group, last column, row index), which is ``np.lexsort``'s order for
the whole key — ties by row index included — because the parent's group
codes are order-preserving for the prefix.  The sort key is a 16-bit code
for any table up to 65,536 rows, which NumPy radix-sorts.  A parent that
already splits every row is shared with all its extensions.

``(d, f)`` — the distinct count and frequency-of-frequencies the estimators
in :mod:`repro.stats.distinct` read — comes from the group sizes of a key's
order when the key has one (always under a row mask), and otherwise from one
sort of the key's mixed-radix-packed dense codes: cardinalities are known
from the coding, so nothing is scanned for a minimum or a span.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.relational.table import Table


class KeyOrder(NamedTuple):
    """A table's rows under one key.

    ``perm`` lists the rows in key order (stable: ties by row index);
    ``row_codes[r]`` is the dense group code of row ``r`` — groups are
    numbered in key order, so the codes are order-preserving for the key —
    and group ``g`` occupies sorted positions ``bounds[g]:bounds[g + 1]``.
    """

    perm: np.ndarray
    row_codes: np.ndarray
    bounds: np.ndarray

    @property
    def ngroups(self) -> int:
        return len(self.bounds) - 1


class KeyIndex:
    """Memoised :class:`KeyOrder` per key and ``(d, f)`` counts, over one
    immutable table (a synopsis, typically)."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.nrows = table.nrows
        # Holds every position, group code and group bound in [0, nrows].
        self._uint = np.uint16 if self.nrows < 1 << 16 else np.uint32
        everything = np.arange(self.nrows, dtype=self._uint)
        # The empty key: one group holding every row (none of an empty table).
        root = KeyOrder(
            everything,
            np.zeros(self.nrows, dtype=self._uint),
            np.array([0, self.nrows] if self.nrows else [0], dtype=self._uint),
        )
        self._orders: dict[tuple[str, ...], KeyOrder] = {(): root}
        # attr -> the column's stable order as ``intp``: it is gathered
        # through on every refinement, and ``intp`` indexes without a cast.
        self._column_orders: dict[str, np.ndarray] = {}

    # --------------------------------------------------------------- orders

    def order(self, key: tuple[str, ...]) -> KeyOrder:
        """The :class:`KeyOrder` of ``key``, built from its longest cached
        prefix by one refinement per missing attribute."""
        hit = self._orders.get(key)
        if hit is not None:
            return hit
        depth = len(key) - 1
        while key[:depth] not in self._orders:
            depth -= 1
        for end in range(depth + 1, len(key) + 1):
            self._orders[key[:end]] = self._build(key[:end])
        return self._orders[key]

    def _build(self, key: tuple[str, ...]) -> KeyOrder:
        """The order of ``key`` from the (cached) order of ``key[:-1]``."""
        parent = self._orders[key[:-1]]
        if parent.ngroups == self.nrows:
            return parent  # every row already its own group
        if len(key) == 1:
            return self._code_column(key[0])
        last = self.order(key[-1:])
        by_last = self._column_orders[key[-1]]
        groups = parent.row_codes[by_last]
        refine = np.argsort(groups, kind="stable")
        perm = by_last[refine]
        groups = groups[refine]
        values = last.row_codes[perm]
        changes = groups[1:] != groups[:-1]
        changes |= values[1:] != values[:-1]
        return self._grouped(perm, changes)

    def _code_column(self, attr: str) -> KeyOrder:
        """Dense value ranks of one column and its stable order."""
        column = self.table.column(attr)
        perm = np.argsort(column, kind="stable")
        self._column_orders[attr] = perm
        ordered = column[perm]
        return self._grouped(perm, ordered[1:] != ordered[:-1])

    def _grouped(self, perm: np.ndarray, changes: np.ndarray) -> KeyOrder:
        """The :class:`KeyOrder` of rows ``perm`` (at least one), where
        ``changes[i]`` says sorted position ``i + 1`` opens a new group."""
        codes = np.empty(self.nrows, dtype=self._uint)
        codes[0] = 0
        np.cumsum(changes, dtype=self._uint, out=codes[1:])
        row_codes = np.empty(self.nrows, dtype=self._uint)
        row_codes[perm] = codes
        return KeyOrder(perm.astype(self._uint), row_codes, self._bounds(changes))

    def _bounds(self, changes: np.ndarray) -> np.ndarray:
        """Run bounds ``[0, ..., nrows]`` of a sorted sequence of ``nrows``
        values whose ``i + 1``-th differs from its ``i``-th where
        ``changes[i]``."""
        edges = np.flatnonzero(changes)
        bounds = np.empty(len(edges) + 2, dtype=self._uint)
        bounds[0] = 0
        np.add(edges, 1, out=bounds[1:-1], casting="unsafe")
        bounds[-1] = self.nrows
        return bounds

    # --------------------------------------------------------------- counts

    def counts(
        self, key: tuple[str, ...], mask: np.ndarray | None = None
    ) -> tuple[int, np.ndarray]:
        """``(d, f)`` of ``key`` over the rows where ``mask`` is true (all
        rows without one): ``d`` distinct joint values, ``f[j]`` of them
        seen exactly ``j + 1`` times."""
        if mask is not None:
            sizes = np.bincount(self.order(key).row_codes[mask])
            sizes = sizes[sizes > 0]
        elif key in self._orders or len(key) < 2 or not self.nrows:
            sizes = np.diff(self.order(key).bounds)
        else:
            sizes = np.diff(self._packed_bounds(key))
        return len(sizes), np.bincount(sizes)[1:]

    def _packed_bounds(self, key: tuple[str, ...]) -> np.ndarray:
        """Run bounds of a key nobody sorts by, sorted as one number per
        row: the dense codes of its columns packed mixed-radix.  A radix
        product that overflows 64 bits leaves ordering the key after all,
        by refinement, which cannot overflow."""
        columns = [self.order((attr,)) for attr in key]
        radix = 1
        for column in columns:
            radix *= column.ngroups
        # Never 8 bits: NumPy sorts ``uint8`` an order of magnitude slower.
        packed_type = np.promote_types(self._uint, np.min_scalar_type(radix))
        if packed_type.kind != "u":
            return self.order(key).bounds
        packed = columns[0].row_codes.astype(packed_type)
        for column in columns[1:]:
            packed *= packed_type.type(column.ngroups)
            packed += column.row_codes
        packed.sort()
        return self._bounds(packed[1:] != packed[:-1])
