"""Queries and workloads.

The paper's query dialect is the warehouse subset: a single fact table
(star-joined with its dimensions), a conjunction of predicates over flattened
attributes, and a set of *target attributes* the query must additionally read
(SELECT list, GROUP BY, aggregate inputs).  Predicates come in the three
kinds CORADD's clustered-index designer distinguishes (Section 4.2):
equality, range and IN — equality keeps a clustered scan contiguous, a range
spans one run, and IN fragments the access pattern.

Multi-fact queries are modelled as independent single-fact queries, exactly
as the paper does for APB-1 ("when a query accesses two fact tables, we split
them into two independent queries").
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.relational.table import Table

# Predicate-kind ranks used to order clustered index keys (Section 4.2):
# equality < range < IN.
KIND_EQ = 0
KIND_RANGE = 1
KIND_IN = 2

_KIND_NAMES = {KIND_EQ: "=", KIND_RANGE: "range", KIND_IN: "IN"}


def _constant(value: float) -> str:
    """A predicate constant printed exactly: integral values as integers,
    anything else at ``repr`` precision — so two different constants never
    print alike (``19950301`` and ``19950331`` both round to
    ``1.99503e+07`` under ``:g``)."""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


class Predicate:
    """A predicate over one attribute.  Subclasses implement ``mask``."""

    attr: str
    kind: int

    def mask(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def selectivity(self, table: Table) -> float:
        """Exact fraction of ``table`` rows satisfying this predicate."""
        if table.nrows == 0:
            return 0.0
        return float(self.mask(table.column(self.attr)).mean())

    def value_range(self) -> tuple[float, float]:
        """(lo, hi) bounds of the values this predicate admits."""
        raise NotImplementedError


@dataclass(frozen=True)
class EqPredicate(Predicate):
    """``attr = value``."""

    attr: str
    value: float
    kind: int = field(default=KIND_EQ, init=False)

    def mask(self, values: np.ndarray) -> np.ndarray:
        return values == self.value

    def value_range(self) -> tuple[float, float]:
        return (self.value, self.value)

    def __str__(self) -> str:
        return f"{self.attr}={_constant(self.value)}"


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """``lo <= attr <= hi`` (both bounds inclusive; use ±inf for open ends)."""

    attr: str
    lo: float
    hi: float
    kind: int = field(default=KIND_RANGE, init=False)

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty range for {self.attr}: [{self.lo}, {self.hi}]")

    def mask(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.lo) & (values <= self.hi)

    def value_range(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def __str__(self) -> str:
        return f"{_constant(self.lo)}<={self.attr}<={_constant(self.hi)}"


@dataclass(frozen=True)
class InPredicate(Predicate):
    """``attr IN values``."""

    attr: str
    values: tuple[float, ...]
    kind: int = field(default=KIND_IN, init=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"empty IN list for {self.attr}")
        object.__setattr__(self, "values", tuple(sorted(set(self.values))))

    def mask(self, values: np.ndarray) -> np.ndarray:
        return np.isin(values, np.asarray(self.values))

    def value_range(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))

    def __str__(self) -> str:
        vals = ",".join(_constant(v) for v in self.values)
        return f"{self.attr} IN ({vals})"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate output, e.g. SUM(price * discount) -> func, input attrs."""

    func: str
    attrs: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.func}({'*'.join(self.attrs)})"


class Query:
    """A single-fact-table warehouse query."""

    def __init__(
        self,
        name: str,
        fact_table: str,
        predicates: list[Predicate],
        aggregates: list[Aggregate] | None = None,
        group_by: tuple[str, ...] = (),
        order_by: tuple[str, ...] = (),
        frequency: float = 1.0,
    ) -> None:
        attrs = [p.attr for p in predicates]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"query {name!r} has multiple predicates on one attribute")
        if frequency <= 0:
            raise ValueError(f"query {name!r}: frequency must be positive")
        self.name = name
        self.fact_table = fact_table
        self.predicates = list(predicates)
        self.aggregates = list(aggregates or [])
        self.group_by = tuple(group_by)
        self.order_by = tuple(order_by)
        self.frequency = float(frequency)
        # A query is never mutated after construction, so the views the
        # designer asks for once per (candidate key, query) are derived
        # here, once.
        self._predicate_attrs = tuple(attrs)
        self._by_attr = dict(zip(attrs, self.predicates))
        self._target_attrs = tuple(
            dict.fromkeys(
                [a for agg in self.aggregates for a in agg.attrs]
                + list(self.group_by)
                + list(self.order_by)
            )
        )
        self._attributes = tuple(
            dict.fromkeys(self._predicate_attrs + self._target_attrs)
        )
        self._predicate_key_set = frozenset(self.predicates)
        self._fingerprint = (
            self.fact_table,
            tuple(self.predicates),
            self._attributes,
        )

    # ------------------------------------------------------------ attributes

    def predicate_attrs(self) -> tuple[str, ...]:
        return self._predicate_attrs

    def predicate_on(self, attr: str) -> Predicate | None:
        return self._by_attr.get(attr)

    def predicate_keys(
        self, attrs: tuple[str, ...] | None = None
    ) -> frozenset[Predicate]:
        """Every predicate (of those on ``attrs`` when given) — what
        statistics caches key a predicate set by.  The frozen predicates
        themselves, compared by value: not the query name, which distinct
        Query objects may reuse, and not the display text, which may round
        two different constants to one string."""
        if attrs is None:
            return self._predicate_key_set
        by_attr = self._by_attr
        return frozenset(by_attr[a] for a in attrs if a in by_attr)

    def target_attrs(self) -> tuple[str, ...]:
        """Attributes the query reads beyond its predicates (SELECT list,
        GROUP BY, ORDER BY, aggregate inputs), deduplicated, stable order."""
        return self._target_attrs

    def attributes(self) -> tuple[str, ...]:
        """Every attribute an MV must contain to answer this query."""
        return self._attributes

    def fingerprint(self) -> tuple:
        """Hashable content identity of the query for plan memoization: the
        fact table, the predicates (value-hashable frozen dataclasses, in
        application order) and the attribute footprint.  Name and frequency
        are deliberately excluded — two queries with the same fingerprint
        execute identically on any physical database."""
        return self._fingerprint

    # ------------------------------------------------------------- execution

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows of ``table`` satisfying all predicates."""
        mask = np.ones(table.nrows, dtype=bool)
        for pred in self.predicates:
            mask &= pred.mask(table.column(pred.attr))
        return mask

    def selectivity(self, table: Table) -> float:
        if table.nrows == 0:
            return 0.0
        return float(self.mask(table).mean())

    def answer(self, table: Table) -> dict[str, float]:
        """Evaluate the aggregates over matching rows (used to verify that MV
        plans return the same answer as base-table plans)."""
        mask = self.mask(table)
        out: dict[str, float] = {"count": float(mask.sum())}
        for agg in self.aggregates:
            prod = np.ones(int(mask.sum()), dtype=np.float64)
            for a in agg.attrs:
                prod = prod * table.column(a)[mask].astype(np.float64)
            if agg.func == "sum":
                out[str(agg)] = float(prod.sum())
            elif agg.func == "avg":
                out[str(agg)] = float(prod.mean()) if len(prod) else 0.0
            elif agg.func == "count":
                out[str(agg)] = float(len(prod))
            elif agg.func == "min":
                out[str(agg)] = float(prod.min()) if len(prod) else 0.0
            elif agg.func == "max":
                out[str(agg)] = float(prod.max()) if len(prod) else 0.0
            else:
                raise ValueError(f"unknown aggregate {agg.func!r}")
        return out

    def with_frequency(self, frequency: float) -> "Query":
        """A copy of this query with a different frequency (queries are
        shared between workloads and designer state, so reweighting must
        never mutate in place)."""
        return Query(
            self.name,
            self.fact_table,
            list(self.predicates),
            aggregates=list(self.aggregates),
            group_by=self.group_by,
            order_by=self.order_by,
            frequency=frequency,
        )

    def __repr__(self) -> str:
        preds = " & ".join(str(p) for p in self.predicates)
        return f"Query({self.name!r}, {self.fact_table!r}, {preds})"


class Workload:
    """A named list of queries (with per-query frequencies)."""

    def __init__(self, name: str, queries: list[Query]) -> None:
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate query names in workload {name!r}")
        self.name = name
        self.queries = list(queries)
        self._by_name = {q.name: q for q in queries}

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def query(self, name: str) -> Query:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no query {name!r} in workload {self.name!r}") from None

    def fact_tables(self) -> list[str]:
        """Fact tables referenced, in first-appearance order."""
        out: dict[str, None] = {}
        for q in self.queries:
            out.setdefault(q.fact_table)
        return list(out)

    def queries_for_fact(self, fact: str) -> list[Query]:
        return [q for q in self.queries if q.fact_table == fact]

    def attribute_universe(self, fact: str | None = None) -> tuple[str, ...]:
        """All attributes used by (a fact table's) queries, stable order."""
        out: dict[str, None] = {}
        for q in self.queries:
            if fact is not None and q.fact_table != fact:
                continue
            for a in q.attributes():
                out.setdefault(a)
        return tuple(out)

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, {len(self.queries)} queries)"


@dataclass(frozen=True)
class WorkloadDelta:
    """The difference between two workloads, as a designer consumes it.

    ``added`` holds the new :class:`Query` objects, ``removed`` the names of
    queries that disappeared, ``reweighted`` maps surviving query names to
    their new frequencies, and ``changed`` names surviving queries whose
    *content* (predicates / attribute footprint) changed — those are treated
    as a remove + add by incremental designers.  ``workload`` is the
    authoritative post-delta workload (query order included), so applying a
    delta never has to reconstruct ordering.
    """

    workload: "Workload"
    added: tuple[Query, ...] = ()
    removed: tuple[str, ...] = ()
    reweighted: tuple[tuple[str, float], ...] = ()
    changed: tuple[str, ...] = ()

    @classmethod
    def between(cls, old: "Workload", new: "Workload") -> "WorkloadDelta":
        """Compute the delta turning ``old`` into ``new``."""
        old_names = {q.name for q in old}
        added = tuple(q for q in new if q.name not in old_names)
        new_by_name = {q.name: q for q in new}
        removed = tuple(q.name for q in old if q.name not in new_by_name)
        reweighted: list[tuple[str, float]] = []
        changed: list[str] = []
        for q in old:
            peer = new_by_name.get(q.name)
            if peer is None:
                continue
            if peer.fingerprint() != q.fingerprint():
                changed.append(q.name)
            elif peer.frequency != q.frequency:
                reweighted.append((q.name, peer.frequency))
        return cls(
            workload=new,
            added=added,
            removed=removed,
            reweighted=tuple(reweighted),
            changed=tuple(changed),
        )

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.reweighted or self.changed)

    def __repr__(self) -> str:
        return (
            f"WorkloadDelta(+{len(self.added)} -{len(self.removed)} "
            f"~{len(self.reweighted)} !{len(self.changed)} "
            f"-> {self.workload.name!r})"
        )
