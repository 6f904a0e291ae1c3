"""Correlation (soft functional dependency) discovery — the CORDS measure.

The paper adopts CORDS' strength measure (Section 4.1.1): for attribute sets
C1, C2 with |C1| distinct values and |C1 C2| distinct joint values,

    strength(C1 -> C2) = |C1| / |C1 C2|

A strength of 1 means C1 functionally determines C2 (each C1 value co-occurs
with exactly one C2 value); lower values mean each C1 value fans out over
more C2 values.  Strengths feed selectivity propagation (Section 4.1.1) and
the fragments term of the cost model.

:class:`CorrelationModel` caches pairwise and composite strengths computed
over a table or synopsis, optionally scaled with a distinct estimator.  Its
distinct counts are read off a :class:`~repro.stats.keyindex.KeyIndex` — the
table's columns dense-coded once — and, being a property of the attribute
*set*, are shared by every ordering of a joint key.
"""

from __future__ import annotations

from repro.relational.table import Table
from repro.stats.distinct import scale_counts
from repro.stats.keyindex import KeyIndex


def strength(
    table: Table,
    determinant: tuple[str, ...],
    dependent: tuple[str, ...],
    n_total: int | None = None,
    estimator: str = "exact",
) -> float:
    """CORDS strength of ``determinant -> dependent`` over ``table``.

    With ``estimator != 'exact'``, ``table`` is treated as a uniform sample
    of a population of ``n_total`` rows and distinct counts are scaled up.
    """
    if not determinant:
        raise ValueError("determinant must be non-empty")
    if estimator != "exact" and n_total is None:
        raise ValueError("n_total required for sample-scaled strength")
    model = CorrelationModel(table, n_total=n_total, estimator=estimator)
    return model.strength(tuple(determinant), tuple(dependent))


class CorrelationModel:
    """Cached strengths over one (flattened) table or synopsis.

    The model is lazy: strengths are computed on first request and memoized.
    ``attrs`` restricts the advertised universe (typically the workload's
    attribute universe) but any column of the table can be queried.
    """

    def __init__(
        self,
        table: Table,
        attrs: tuple[str, ...] | None = None,
        n_total: int | None = None,
        estimator: str = "exact",
    ) -> None:
        self.table = table
        self.attrs = tuple(attrs) if attrs is not None else tuple(table.column_names)
        self.n_total = n_total if n_total is not None else table.nrows
        self.estimator = estimator
        self.index = KeyIndex(table)
        self._strengths: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
        self._distincts: dict[frozenset[str], float] = {}

    def distinct(self, names: tuple[str, ...]) -> float:
        """(Estimated) distinct count of a joint key."""
        key = frozenset(names)
        cached = self._distincts.get(key)
        if cached is not None:
            return cached
        d, f = self.index.counts(tuple(names))
        value = scale_counts(d, f, self.table.nrows, self.n_total, self.estimator)
        self._distincts[key] = value
        return value

    def strength(
        self, determinant: tuple[str, ...], dependent: tuple[str, ...]
    ) -> float:
        """Memoized strength(determinant -> dependent)."""
        key = (tuple(determinant), tuple(dependent))
        cached = self._strengths.get(key)
        if cached is not None:
            return cached
        d_det = self.distinct(key[0])
        joint = tuple(dict.fromkeys(key[0] + key[1]))
        d_joint = self.distinct(joint)
        value = 1.0 if d_joint <= 0 else min(1.0, d_det / d_joint)
        self._strengths[key] = value
        return value

    def strong_pairs(self, threshold: float = 0.8) -> list[tuple[str, str, float]]:
        """All ordered attribute pairs (a -> b) with strength >= threshold.

        This is the discovery pass CORDS performs; CORADD consumes the full
        strength matrix, but surfacing the strong pairs is useful for the
        correlation-explorer example and for tests.
        """
        out: list[tuple[str, str, float]] = []
        for a in self.attrs:
            for b in self.attrs:
                if a == b:
                    continue
                s = self.strength((a,), (b,))
                if s >= threshold:
                    out.append((a, b, s))
        out.sort(key=lambda item: -item[2])
        return out
