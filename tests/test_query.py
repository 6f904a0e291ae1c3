"""Unit tests for predicates, queries, workloads."""

import pickle

import numpy as np
import pytest

from repro.relational.query import (
    KIND_EQ,
    KIND_IN,
    KIND_RANGE,
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
    Workload,
)
from repro.workloads.registry import available, make
from tests.test_table import make_table


class TestPredicates:
    def test_eq_mask(self):
        p = EqPredicate("a", 2)
        assert list(p.mask(np.array([1, 2, 2, 3]))) == [False, True, True, False]
        assert p.kind == KIND_EQ
        assert p.value_range() == (2, 2)

    def test_range_mask_inclusive(self):
        p = RangePredicate("a", 2, 4)
        assert list(p.mask(np.array([1, 2, 4, 5]))) == [False, True, True, False]
        assert p.kind == KIND_RANGE

    def test_range_rejects_empty(self):
        with pytest.raises(ValueError):
            RangePredicate("a", 5, 2)

    def test_in_mask_and_normalization(self):
        p = InPredicate("a", (3, 1, 3))
        assert p.values == (1, 3)
        assert list(p.mask(np.array([1, 2, 3]))) == [True, False, True]
        assert p.kind == KIND_IN
        assert p.value_range() == (1, 3)

    def test_in_rejects_empty(self):
        with pytest.raises(ValueError):
            InPredicate("a", ())

    def test_selectivity_exact(self):
        t = make_table(a=[1, 1, 2, 3])
        assert EqPredicate("a", 1).selectivity(t) == pytest.approx(0.5)
        assert RangePredicate("a", 2, 3).selectivity(t) == pytest.approx(0.5)

    def test_kind_ordering_matches_paper(self):
        # Section 4.2: equality before range before IN.
        assert KIND_EQ < KIND_RANGE < KIND_IN


class TestQuery:
    def make_query(self) -> Query:
        return Query(
            "q",
            "fact",
            [EqPredicate("a", 1), RangePredicate("b", 0, 5)],
            [Aggregate("sum", ("m", "n"))],
            group_by=("g",),
            order_by=("o",),
        )

    def test_attribute_sets(self):
        q = self.make_query()
        assert q.predicate_attrs() == ("a", "b")
        assert q.target_attrs() == ("m", "n", "g", "o")
        assert q.attributes() == ("a", "b", "m", "n", "g", "o")

    def test_predicate_on(self):
        q = self.make_query()
        assert q.predicate_on("a") is not None
        assert q.predicate_on("zzz") is None

    def test_duplicate_predicate_attr_rejected(self):
        with pytest.raises(ValueError, match="multiple predicates"):
            Query("q", "f", [EqPredicate("a", 1), EqPredicate("a", 2)])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            Query("q", "f", [EqPredicate("a", 1)], frequency=0)

    def test_mask_conjunction(self):
        t = make_table(a=[1, 1, 2], b=[0, 9, 0], m=[1, 1, 1], n=[1, 1, 1], g=[0, 0, 0], o=[0, 0, 0])
        q = self.make_query()
        assert list(q.mask(t)) == [True, False, False]
        assert q.selectivity(t) == pytest.approx(1 / 3)

    def test_answer_aggregates(self):
        t = make_table(a=[1, 1, 2], m=[2, 3, 100])
        q = Query(
            "q",
            "f",
            [EqPredicate("a", 1)],
            [
                Aggregate("sum", ("m",)),
                Aggregate("avg", ("m",)),
                Aggregate("min", ("m",)),
                Aggregate("max", ("m",)),
                Aggregate("count", ("m",)),
            ],
        )
        ans = q.answer(t)
        assert ans["sum(m)"] == 5
        assert ans["avg(m)"] == pytest.approx(2.5)
        assert ans["min(m)"] == 2
        assert ans["max(m)"] == 3
        assert ans["count(m)"] == 2
        assert ans["count"] == 2

    def test_answer_product_aggregate(self):
        t = make_table(a=[1, 1], p=[10, 20], d=[2, 3])
        q = Query("q", "f", [EqPredicate("a", 1)], [Aggregate("sum", ("p", "d"))])
        assert q.answer(t)["sum(p*d)"] == 10 * 2 + 20 * 3

    def test_unknown_aggregate_rejected(self):
        t = make_table(a=[1], m=[1])
        q = Query("q", "f", [EqPredicate("a", 1)], [Aggregate("median", ("m",))])
        with pytest.raises(ValueError, match="unknown aggregate"):
            q.answer(t)


def _recomputed_views(q: Query) -> dict:
    """What a query's accessors answer, derived afresh from its public
    fields the way each accessor used to on every call."""
    predicate_attrs = tuple(p.attr for p in q.predicates)
    target_attrs = tuple(dict.fromkeys(
        [a for agg in q.aggregates for a in agg.attrs]
        + list(q.group_by) + list(q.order_by)
    ))
    attributes = tuple(dict.fromkeys(predicate_attrs + target_attrs))
    return {
        "predicate_attrs": predicate_attrs,
        "target_attrs": target_attrs,
        "attributes": attributes,
        "fingerprint": (q.fact_table, tuple(q.predicates), attributes),
        "predicate_on": {
            a: next((p for p in q.predicates if p.attr == a), None)
            for a in attributes + ("no_such_attr",)
        },
        "predicate_keys": frozenset(q.predicates),
        "prefix_keys": [
            frozenset(p for p in q.predicates if p.attr in attributes[:n])
            for n in range(len(attributes) + 1)
        ],
    }


def _derived_views(q: Query) -> dict:
    attributes = q.attributes()
    return {
        "predicate_attrs": q.predicate_attrs(),
        "target_attrs": q.target_attrs(),
        "attributes": attributes,
        "fingerprint": q.fingerprint(),
        "predicate_on": {
            a: q.predicate_on(a) for a in attributes + ("no_such_attr",)
        },
        "predicate_keys": q.predicate_keys(),
        "prefix_keys": [
            q.predicate_keys(attributes[:n]) for n in range(len(attributes) + 1)
        ],
    }


@pytest.mark.parametrize("name", available())
def test_derived_views_equal_recomputed_ones(name):
    """Every registry workload: the views a query derives once at
    construction are the ones its fields spell out, and they come through
    ``with_frequency`` and a pickle round trip intact."""
    for q in make(name, scale=0.02).workload:
        want = _recomputed_views(q)
        assert _derived_views(q) == want
        reweighted = q.with_frequency(q.frequency * 3.0)
        assert reweighted.frequency == q.frequency * 3.0
        assert _derived_views(reweighted) == want
        shipped = pickle.loads(pickle.dumps(q))
        assert (shipped.name, shipped.frequency) == (q.name, q.frequency)
        assert _derived_views(shipped) == want


class TestWorkload:
    def queries(self):
        return [
            Query("q1", "f1", [EqPredicate("a", 1)], [Aggregate("sum", ("m",))]),
            Query("q2", "f2", [EqPredicate("b", 1)], [Aggregate("sum", ("m",))]),
            Query("q3", "f1", [EqPredicate("c", 1)], [Aggregate("sum", ("n",))]),
        ]

    def test_duplicate_names_rejected(self):
        qs = self.queries()
        qs.append(Query("q1", "f1", [EqPredicate("z", 1)]))
        with pytest.raises(ValueError, match="duplicate"):
            Workload("w", qs)

    def test_fact_tables_in_order(self):
        assert Workload("w", self.queries()).fact_tables() == ["f1", "f2"]

    def test_queries_for_fact(self):
        w = Workload("w", self.queries())
        assert [q.name for q in w.queries_for_fact("f1")] == ["q1", "q3"]

    def test_attribute_universe(self):
        w = Workload("w", self.queries())
        assert w.attribute_universe("f1") == ("a", "m", "c", "n")
        assert set(w.attribute_universe()) == {"a", "b", "c", "m", "n"}

    def test_lookup(self):
        w = Workload("w", self.queries())
        assert w.query("q2").fact_table == "f2"
        with pytest.raises(KeyError):
            w.query("zzz")
