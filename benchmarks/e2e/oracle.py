"""Brute-force reference the benchmark checks every query answer against.

Shares no code with ``storage/access.py``, ``engine/session.py`` or
``storage/sharded.py``: a fact is a dict of plain numpy columns, a predicate
is a numpy comparison chosen from the predicate's own fields, an aggregate
is recomputed from the selected values.  Refresh batches are applied to the
oracle's own columns (append / boolean mask), so post-refresh answers are
checked against post-refresh data.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def predicate_mask(pred, values: np.ndarray) -> np.ndarray:
    """Rows of ``values`` a predicate admits, from its public fields only."""
    if hasattr(pred, "lo"):
        return (values >= pred.lo) & (values <= pred.hi)
    if hasattr(pred, "values"):
        return np.isin(values, np.asarray(pred.values))
    return values == pred.value


def aggregate_rows(query, column, selected) -> dict[str, float]:
    """Count plus every aggregate of ``query`` over the ``selected`` rows;
    ``column(name)`` returns one full column."""
    n = int(np.count_nonzero(selected))
    out = {"count": float(n)}
    for agg in query.aggregates:
        prod = np.ones(n, dtype=np.float64)
        for attr in agg.attrs:
            prod = prod * column(attr)[selected].astype(np.float64)
        if agg.func == "count":
            value = float(n)
        elif n == 0:
            value = 0.0
        elif agg.func == "sum":
            value = float(prod.sum())
        elif agg.func == "avg":
            value = float(prod.mean())
        elif agg.func == "min":
            value = float(prod.min())
        elif agg.func == "max":
            value = float(prod.max())
        else:
            raise ValueError(f"unknown aggregate {agg.func!r}")
        out[f"{agg.func}({'*'.join(agg.attrs)})"] = value
    return out


def answers_agree(got: dict[str, float], want: dict[str, float]) -> bool:
    if got.keys() != want.keys():
        return False
    return all(
        abs(got[k] - want[k]) <= REL_TOL * max(1.0, abs(want[k])) for k in want
    )


class Oracle:
    """Reference columns per fact, plus the mutations applied so far."""

    def __init__(self, flat_tables: dict) -> None:
        self.columns: dict[str, dict[str, np.ndarray]] = {
            fact: {name: table.column(name) for name in table.column_names}
            for fact, table in flat_tables.items()
        }
        # Answers repeat across the databases of a ladder; a mutation of the
        # fact drops them.
        self._answers: dict[tuple, dict[str, float]] = {}

    def apply(self, batch) -> None:
        """Apply one refresh batch (insert = append, delete = mask out)."""
        cols = self.columns[batch.fact]
        if batch.kind == "insert":
            self.columns[batch.fact] = {
                name: np.concatenate([col, batch.columns[name]])
                for name, col in cols.items()
            }
        else:
            doomed = self.query_mask(batch.fact, batch.delete_predicates)
            self.columns[batch.fact] = {
                name: col[~doomed] for name, col in cols.items()
            }
        self._answers.clear()

    def query_mask(self, fact: str, predicates) -> np.ndarray:
        cols = self.columns[fact]
        nrows = len(next(iter(cols.values())))
        mask = np.ones(nrows, dtype=bool)
        for pred in predicates:
            mask &= predicate_mask(pred, cols[pred.attr])
        return mask

    def answer(self, query) -> dict[str, float]:
        key = (query.fact_table, tuple(query.predicates), tuple(query.aggregates))
        cached = self._answers.get(key)
        if cached is None:
            cols = self.columns[query.fact_table]
            mask = self.query_mask(query.fact_table, query.predicates)
            cached = aggregate_rows(query, cols.__getitem__, mask)
            self._answers[key] = cached
        return cached

    def check(self, db, query, choice) -> bool:
        """Does the plan the database chose return the reference answer?
        The rows are the ones ``choice.result.mask`` selects on the chosen
        object, read back from that object's own columns."""
        table = db.object(choice.object_name).heapfile.table
        got = aggregate_rows(query, table.column, choice.result.mask)
        return answers_agree(got, self.answer(query))
