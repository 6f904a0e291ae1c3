"""TableStatistics: selectivities, synopsis estimates, layout estimation."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.relational.query import (
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
)
from repro.stats.collector import TableStatistics
from repro.workloads.registry import available, make
from tests.conftest import make_people


@pytest.fixture(scope="module")
def people():
    return make_people(n=60_000, seed=2)


@pytest.fixture(scope="module")
def stats(people):
    return TableStatistics(people, synopsis_rows=6_000, seed=0)


class TestSelectivities:
    def test_predicate_selectivity_exact(self, stats, people):
        q = Query("q", "people", [EqPredicate("state", 7)])
        expected = float((people.column("state") == 7).mean())
        assert stats.predicate_selectivity(q, "state") == pytest.approx(expected)

    def test_unpredicated_attr_is_one(self, stats):
        q = Query("q", "people", [EqPredicate("state", 7)])
        assert stats.predicate_selectivity(q, "salary") == 1.0

    def test_query_selectivity_conjunctive(self, stats, people):
        q = Query(
            "q",
            "people",
            [EqPredicate("state", 7), RangePredicate("salary", 50, 100)],
        )
        expected = float(q.mask(people).mean())
        assert stats.query_selectivity(q) == pytest.approx(expected)

    def test_memoization_returns_same_object(self, stats):
        q = Query("q_memo", "people", [EqPredicate("state", 3)])
        a = stats.predicate_selectivity(q, "state")
        b = stats.predicate_selectivity(q, "state")
        assert a == b

    def test_histogram_close_to_exact(self, stats, people):
        hist = stats.histogram("salary")
        pred = RangePredicate("salary", 50, 100)
        exact = pred.selectivity(people)
        assert hist.estimate(pred) == pytest.approx(exact, rel=0.2)


class TestSynopsisEstimates:
    def test_sample_mask_restricts_attrs(self, stats):
        q = Query(
            "q",
            "people",
            [EqPredicate("state", 7), RangePredicate("salary", 50, 60)],
        )
        full = stats.sample_mask(q)
        state_only = stats.sample_mask(q, attrs=("state",))
        assert full.sum() <= state_only.sum()

    def test_distinct_among_counts_cooccurring(self, stats):
        # All rows with state=7 share exactly one state value...
        q = Query("q", "people", [EqPredicate("state", 7)])
        mask = stats.sample_mask(q)
        assert stats.distinct_among(mask, ("state",)) == pytest.approx(1.0)
        # ...and about 20 cities.
        cities = stats.distinct_among(mask, ("city",))
        assert 10 <= cities <= 25

    def test_distinct_among_empty_mask(self, stats):
        mask = np.zeros(stats.synopsis.nrows, dtype=bool)
        assert stats.distinct_among(mask, ("state",)) == 0.0

    def test_distinct_capped_by_global(self, stats):
        q = Query("q", "people", [RangePredicate("salary", 20, 200)])
        mask = stats.sample_mask(q)
        assert stats.distinct_among(mask, ("state",)) <= stats.distinct(("state",))


class TestLayoutEstimation:
    """The fragments/fraction estimator behind the cost model."""

    def test_correlated_predicate_few_fragments(self, stats):
        # city determines state: under a (state,) clustering, one city's
        # rows live inside one state's band -> ~1 fragment.
        q = Query("q", "people", [EqPredicate("state", 7)])
        layout = stats.estimate_layout(("state",), q, gap_rows=500)
        assert layout is not None
        fragments, fraction = layout
        assert fragments <= 2
        assert fraction == pytest.approx(1 / 50, rel=0.5)

    def test_uncorrelated_predicate_many_fragments(self, stats):
        q = Query("q", "people", [EqPredicate("state", 7)])
        layout = stats.estimate_layout(("salary",), q, gap_rows=5)
        assert layout is not None
        fragments, fraction = layout
        assert fragments > 20
        # Group expansion: state=7 co-occurs with a large share of salary
        # values, so much of the table is scanned.
        assert fraction > 0.3

    def test_returns_none_when_too_selective(self, stats):
        q = Query("q", "people", [EqPredicate("city", 10_000)])  # matches nothing
        assert stats.estimate_layout(("state",), q, gap_rows=100) is None

    def test_empty_cluster_key_returns_none(self, stats):
        q = Query("q", "people", [EqPredicate("state", 7)])
        assert stats.estimate_layout((), q, gap_rows=100) is None

    def test_btree_semantics_scattered(self, stats):
        """expand_groups=False: scattered matches cost ~one fragment per
        match; clustered matches collapse to ~one fragment."""
        q = Query("q", "people", [EqPredicate("state", 7)])
        scattered = stats.estimate_layout(
            ("salary",), q, gap_rows=10, expand_groups=False
        )
        packed = stats.estimate_layout(
            ("state",), q, gap_rows=500, expand_groups=False
        )
        assert scattered is not None and packed is not None
        assert scattered[0] > 10 * packed[0]
        # B+Tree sweeps matching rows plus readahead-bridged holes: the
        # fraction sits between raw selectivity and a few multiples of it,
        # far below the group-expanded CM fraction.
        assert 1 / 50 <= scattered[1] < 5 / 50

    def test_pred_attrs_filter(self, stats):
        q = Query(
            "q",
            "people",
            [EqPredicate("state", 7), RangePredicate("salary", 50, 55)],
        )
        wide = stats.estimate_layout(("state",), q, 100, pred_attrs=("state",))
        narrow = stats.estimate_layout(("state",), q, 100)
        assert wide is not None
        # Restricting predicates can only scan more (or equal).
        if narrow is not None:
            assert wide[1] >= narrow[1] - 1e-12


# ------------------------------------------------- content-keyed predicate caches


@lru_cache(maxsize=None)
def _registry(name):
    """A registry workload at tiny scale, its distinct predicates, and the
    sorted domain of every predicated column."""
    inst = make(name, scale=0.02)
    preds = list(dict.fromkeys(p for q in inst.workload for p in q.predicates))
    domains = {
        p.attr: np.unique(_flat_with(inst, p.attr).column(p.attr)) for p in preds
    }
    return inst, preds, domains


def _flat_with(inst, attr):
    return next(t for t in inst.flat_tables.values() if t.has_column(attr))


@st.composite
def neighbouring_predicates(draw):
    """(registry workload, one of its predicates, that predicate with one
    constant moved one step along its column's domain)."""
    name = draw(st.sampled_from(available()))
    _inst, preds, domains = _registry(name)
    pred = draw(st.sampled_from(preds))
    domain = domains[pred.attr]
    up = draw(st.booleans())

    def step(value):
        i = int(np.searchsorted(domain, value, side="right" if up else "left"))
        i = i if up else i - 1
        assume(0 <= i < len(domain))
        return float(domain[i])

    if isinstance(pred, EqPredicate):
        near = EqPredicate(pred.attr, step(pred.value))
    elif isinstance(pred, RangePredicate):
        lo, hi = pred.lo, pred.hi
        if draw(st.booleans()):
            lo = step(lo)
        else:
            hi = step(hi)
        assume(lo <= hi)
        near = RangePredicate(pred.attr, lo, hi)
    else:
        values = list(pred.values)
        i = draw(st.integers(0, len(values) - 1))
        values[i] = step(values[i])
        near = InPredicate(pred.attr, tuple(values))
    assume(near != pred)
    return name, pred, near


def _answers(stats, query, attr):
    """Everything the statistics cache about a one-predicate query."""
    layout = stats.estimate_layout((attr,), query, gap_rows=8, min_sample_matches=1)
    return (
        stats.predicate_selectivity(query, attr),
        stats.query_selectivity(query),
        stats.sample_mask(query).tobytes(),
        layout,
    )


@settings(max_examples=60, deadline=None)
@example(pair=(
    "tpch",
    RangePredicate("o_orderdate", 19950301, 19950331),
    RangePredicate("o_orderdate", 19950301, 19950302),
))
@given(pair=neighbouring_predicates())
def test_neighbouring_predicates_never_share_a_cache_entry(pair):
    """Two predicates one domain step apart never share a mask, a
    selectivity or an ``estimate_layout`` memo entry: what the statistics
    answer for one does not depend on whether the other was asked first —
    and the two print differently."""
    name, far, near = pair
    flat = _flat_with(_registry(name)[0], near.attr)
    q_far, q_near = (Query("q", "fact", [p]) for p in (far, near))
    assert str(far) != str(near)
    assert repr(q_far) != repr(q_near)
    assert q_far.predicate_keys() != q_near.predicate_keys()
    warmed = TableStatistics(flat)
    _answers(warmed, q_far, far.attr)
    assert _answers(warmed, q_near, near.attr) == _answers(
        TableStatistics(flat), q_near, near.attr
    )
