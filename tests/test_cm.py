"""Correlation Maps: structure, bucketing, designer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm.bucketing import bucket_codes, candidate_widths, entries_match
from repro.cm.correlation_map import CorrelationMap
from repro.cm.designer import CandidatePricer, CMDesigner, design_cms_for_object
from repro.engine import EvalSession, use_session
from repro.relational.query import (
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import FLOAT64, INT64
from repro.storage.access import cm_scan, full_scan, guided_scan_floor
from repro.storage.btree import secondary_index_bytes
from repro.storage.disk import DiskModel
from repro.storage.fragments import sorted_unique
from repro.storage.layout import HeapFile
from tests.conftest import make_people
from tests.test_design_units import count_calls
from tests.test_table import make_table


@pytest.fixture(scope="module")
def disk():
    return DiskModel()


@pytest.fixture(scope="module")
def by_state(disk):
    return HeapFile(make_people(n=40_000), ("state",), disk, name="by_state")


def _covered_rows(hf: HeapFile, depth: int, cluster_width: int, buckets) -> np.ndarray:
    """Rows on the pages a CM-guided scan of ``buckets`` reads."""
    covered = np.zeros(hf.npages * hf.rows_per_page, dtype=bool)
    fragments = hf.page_fragments_for_prefix_buckets(depth, cluster_width, buckets)
    for first, last in fragments:
        covered[first * hf.rows_per_page : (last + 1) * hf.rows_per_page] = True
    return covered[: hf.nrows]


class TestBucketing:
    def test_bucket_codes_identity(self):
        v = np.array([5, 17, 23])
        assert np.array_equal(bucket_codes(v, 1), v)

    def test_bucket_codes_truncate(self):
        assert list(bucket_codes(np.array([0, 9, 10, 19, 20]), 10)) == [0, 0, 1, 1, 2]

    def test_bucket_width_validation(self):
        with pytest.raises(ValueError):
            bucket_codes(np.array([1]), 0)

    def test_entries_match_eq(self):
        buckets = np.array([0, 1, 2])
        assert list(entries_match(EqPredicate("a", 15), buckets, 10)) == [
            False, True, False,
        ]

    def test_entries_match_range_conservative(self):
        buckets = np.array([0, 1, 2, 3])
        # Range 8..12 straddles buckets 0 and 1.
        mask = entries_match(RangePredicate("a", 8, 12), buckets, 10)
        assert list(mask) == [True, True, False, False]

    def test_entries_match_in(self):
        buckets = np.array([0, 1, 2])
        mask = entries_match(InPredicate("a", (5, 25)), buckets, 10)
        assert list(mask) == [True, False, True]

    def test_candidate_widths_ladder(self):
        widths = candidate_widths(1000)
        assert widths[0] == 1
        assert all(b > a for a, b in zip(widths, widths[1:]))
        assert candidate_widths(2) == [1]


class TestCorrelationMap:
    def test_entry_count_is_distinct_keys(self, by_state):
        cm = CorrelationMap(by_state, ("city",))
        assert cm.n_entries == by_state.table.distinct_count(("city",))
        # city -> state is a perfect FD: one posting per entry.
        assert cm.total_postings == cm.n_entries

    def test_size_far_below_dense_btree(self, by_state, disk):
        cm = CorrelationMap(by_state, ("city",))
        dense = secondary_index_bytes(by_state.nrows, 4, disk.page_size)
        assert cm.size_bytes * 10 < dense

    def test_uncorrelated_key_has_fat_postings(self, disk):
        hf = HeapFile(make_people(n=40_000), ("salary",), disk)
        cm = CorrelationMap(hf, ("city",))
        assert cm.total_postings > 20 * cm.n_entries

    def test_lookup_eq_exact(self, by_state):
        cm = CorrelationMap(by_state, ("city",))
        q = Query("q", "people", [EqPredicate("city", 123)])
        buckets = cm.lookup(q)
        # city=123 belongs to state 6 only (city = state*20 + k); with
        # cluster_width 1 a bucket is a rank.
        ranks = by_state.prefix_ranks(1)[by_state.table.column("city") == 123]
        assert np.array_equal(buckets, sorted_unique(ranks))

    def test_lookup_returns_none_without_predicate(self, by_state):
        cm = CorrelationMap(by_state, ("city",))
        q = Query("q", "people", [EqPredicate("salary", 55)])
        assert cm.lookup(q) is None

    def test_lookup_no_match_returns_empty(self, by_state):
        cm = CorrelationMap(by_state, ("city",))
        q = Query("q", "people", [EqPredicate("city", 99_999)])
        assert len(cm.lookup(q)) == 0

    def test_cm_scan_answers_match_full_scan(self, by_state):
        cm = CorrelationMap(by_state, ("city",))
        q = Query(
            "q", "people", [EqPredicate("city", 250)], [Aggregate("sum", ("salary",))]
        )
        scan = cm_scan(by_state, q, cm)
        full = full_scan(by_state, q)
        assert np.array_equal(scan.mask, full.mask)

    def test_cm_scan_cheaper_when_correlated(self, by_state):
        cm = CorrelationMap(by_state, ("city",))
        q = Query("q", "people", [EqPredicate("city", 250)])
        scan = cm_scan(by_state, q, cm)
        full = full_scan(by_state, q)
        assert scan.seconds < full.seconds

    def test_key_bucketing_shrinks_and_stays_exact(self, by_state):
        exact = CorrelationMap(by_state, ("city",), key_widths=(1,))
        bucketed = CorrelationMap(by_state, ("city",), key_widths=(16,))
        assert bucketed.n_entries < exact.n_entries
        assert bucketed.size_bytes < exact.size_bytes
        q = Query("q", "people", [EqPredicate("city", 333)])
        # Bucketing adds false positives (superset of groups), never misses.
        exact_codes = set(exact.lookup(q).tolist())
        bucket_codes_ = set(bucketed.lookup(q).tolist())
        assert exact_codes <= bucket_codes_

    def test_cluster_bucketing_expands_ranks(self, by_state):
        """A cluster bucket stands for ``cluster_width`` consecutive ranks:
        the bucketed lookup is the exact lookup's ranks floored by 4, and the
        scan reads every row of every rank in those buckets."""
        q = Query("q", "people", [EqPredicate("city", 123)])
        exact = CorrelationMap(by_state, ("city",)).lookup(q)
        buckets = CorrelationMap(by_state, ("city",), cluster_width=4).lookup(q)
        assert np.array_equal(buckets, sorted_unique(exact // 4))
        in_buckets = np.isin(by_state.prefix_ranks(1) // 4, buckets)
        assert _covered_rows(by_state, 1, 4, buckets)[in_buckets].all()

    def test_composite_key(self, by_state):
        cm = CorrelationMap(by_state, ("city", "salary"))
        q = Query(
            "q",
            "people",
            [EqPredicate("city", 123), RangePredicate("salary", 50, 60)],
        )
        buckets = cm.lookup(q)
        assert buckets is not None
        truth = by_state.prefix_ranks(1)[q.mask(by_state.table)]
        assert set(truth.tolist()) <= set(buckets.tolist())

    def test_validation(self, by_state, disk):
        with pytest.raises(ValueError):
            CorrelationMap(by_state, ())
        with pytest.raises(ValueError):
            CorrelationMap(by_state, ("city",), key_widths=(1, 2))
        with pytest.raises(ValueError):
            CorrelationMap(by_state, ("city",), cluster_width=0)
        unclustered = HeapFile(make_people(1000), (), disk)
        with pytest.raises(ValueError):
            CorrelationMap(unclustered, ("city",))


@settings(max_examples=25, deadline=None)
@given(
    width=st.sampled_from([1, 2, 8, 32]),
    cluster_width=st.sampled_from([1, 2, 8]),
    city=st.integers(0, 999),
)
def test_cm_scan_never_misses_rows(width, cluster_width, city, ):
    """Property: whatever the bucketing, a CM-guided scan covers every
    matching row (false positives allowed, false negatives never)."""
    hf = HeapFile(make_people(n=5_000, seed=9), ("state",), DiskModel())
    cm = CorrelationMap(hf, ("city",), key_widths=(width,), cluster_width=cluster_width)
    q = Query("q", "people", [EqPredicate("city", city)])
    covered = _covered_rows(hf, cm.depth, cluster_width, cm.lookup(q))
    assert (covered | ~q.mask(hf.table)).all()


def _float_file(n: int, seed: int) -> HeapFile:
    """A heap clustered by ``k`` whose float column ``x`` is about
    ``-k/100``: negative and mostly non-integral."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 1_000, n)
    schema = TableSchema("f", [Column("k", INT64), Column("x", FLOAT64)])
    x = -k / 100 + rng.normal(0.0, 0.01, n)
    return HeapFile(Table(schema, {"k": k, "x": x}), ("k",), DiskModel())


@settings(max_examples=40, deadline=None)
@given(
    width=st.sampled_from([1, 2, 8]),
    cluster_width=st.sampled_from([1, 2, 8]),
    lo=st.floats(-10.5, 0.5, allow_nan=False),
    span=st.floats(0.0, 2.0, allow_nan=False),
    seed=st.integers(0, 100),
)
def test_cm_scan_never_misses_rows_on_negative_floats(
    width, cluster_width, lo, span, seed
):
    """Property: bucketing floors a float key the way it floors a
    predicate's bounds, so a CM-guided scan covers every matching row of a
    negative, non-integral key — closed and open-ended ranges, and
    equality / IN on stored values."""
    hf = _float_file(2_000, seed)
    cm = CorrelationMap(hf, ("x",), key_widths=(width,), cluster_width=cluster_width)
    stored = hf.table.column("x")
    for pred in (
        RangePredicate("x", lo, lo + span),
        RangePredicate("x", -np.inf, lo),
        RangePredicate("x", lo, np.inf),
        EqPredicate("x", float(stored[seed])),
        InPredicate("x", (float(stored[seed]), float(stored[-1 - seed]))),
    ):
        q = Query("q", "f", [pred])
        covered = _covered_rows(hf, cm.depth, cluster_width, cm.lookup(q))
        assert (covered | ~q.mask(hf.table)).all()


class TestCMScanKernel:
    def test_unusable_cm_returns_none_before_the_session(self, by_state):
        """A CM on whose key the query has no predicate answers None without
        asking the scan memo — no miss is recorded, though the session built
        the CM and so could key a scan through it."""
        q = Query("q", "people", [EqPredicate("salary", 55)])
        session = EvalSession()
        session.adopt_heapfile(by_state)
        cm = session.correlation_map(by_state, ("city",), (1,), 1)
        before = dict(session.stats)
        with use_session(session):
            assert cm_scan(by_state, q, cm) is None
        assert session.stats == before

    @pytest.mark.parametrize("mutation", ["compact", "tail_merge"])
    def test_rank_bounds_reset_with_the_codes(self, mutation):
        """After a compaction or a tail merge, scanning the mutated file
        gives the fragments a freshly built file over the same rows gives:
        the rank bounds are rebuilt with the rank codes."""
        hf = HeapFile(make_people(n=5_000, seed=4), ("state", "city"), DiskModel())
        cm = CorrelationMap(hf, ("salary",), cluster_width=4)
        probes = [
            Query("q", "people", [RangePredicate("salary", 50, 70)]),
            Query("q", "people", [EqPredicate("salary", 120)]),
        ]
        for q in probes:
            cm_scan(hf, q, cm)  # warm the per-depth cache before mutating
        extra = make_people(n=700, seed=5)
        hf.insert({c: extra.column(c) for c in extra.column_names})
        hf.delete_rows(np.arange(0, hf.nrows, 97))
        getattr(hf, mutation)()
        assert cm.refresh()
        fresh_hf = HeapFile(hf.table, hf.cluster_key, hf.disk)
        fresh_cm = CorrelationMap(fresh_hf, ("salary",), cluster_width=4)
        for q in probes:
            for depth in (1, 2):
                buckets = fresh_cm.lookup(q)
                assert hf.page_fragments_for_prefix_buckets(
                    depth, 4, buckets
                ) == fresh_hf.page_fragments_for_prefix_buckets(depth, 4, buckets)
            assert cm_scan(hf, q, cm).cost == cm_scan(fresh_hf, q, fresh_cm).cost


class TestCMDesigner:
    def test_designer_picks_beneficial_cm(self, by_state):
        q = Query(
            "q", "people", [EqPredicate("city", 400)], [Aggregate("avg", ("salary",))]
        )
        designer = CMDesigner()
        cm, seconds = designer.best_cm_for_query(by_state, q)
        assert cm is not None
        assert seconds < full_scan(by_state, q).seconds

    def test_designer_skips_clustered_prefix(self, by_state):
        q = Query("q", "people", [EqPredicate("state", 3)])
        designer = CMDesigner()
        assert designer.candidate_keys(by_state, q) == []

    def test_designer_respects_budget(self, disk):
        hf = HeapFile(make_people(n=40_000), ("salary",), disk)
        q = Query("q", "people", [EqPredicate("city", 400)])
        tight = CMDesigner(budget_bytes=64)  # nothing fits
        cm, _ = tight.best_cm_for_query(hf, q)
        assert cm is None

    def test_design_dedupes_across_queries(self, by_state):
        q1 = Query("q1", "people", [EqPredicate("city", 100)])
        q2 = Query("q2", "people", [EqPredicate("city", 200)])
        cms = CMDesigner().design(by_state, [q1, q2])
        names = [cm.name for cm in cms]
        assert len(names) == len(set(names))
        assert len(cms) <= 2

    def test_unclustered_file_gets_no_cm(self, disk):
        """Regression: the candidate loop used to raise ``ValueError: CM
        requires a clustered heap file`` instead of answering that no CM
        helps."""
        hf = HeapFile(make_people(1_000), (), disk)
        q = Query("q", "people", [EqPredicate("city", 400)])
        designer = CMDesigner()
        assert designer.candidate_keys(hf, q) == []
        assert designer.best_cm_for_query(hf, q) == (None, full_scan(hf, q).seconds)
        assert designer.design(hf, [q]) == []
        assert design_cms_for_object(hf, [q]) == []

    @pytest.fixture(scope="class")
    def by_pair(self, disk):
        """Clustered by g = 20x + y: x alone narrows to a twentieth of the
        file, y alone to nothing contiguous, the pair to one g."""
        rng = np.random.default_rng(4)
        x, y = rng.integers(0, 20, 40_000), rng.integers(0, 20, 40_000)
        return HeapFile(make_table(g=x * 20 + y, x=x, x2=x, y=y), ("g",), disk)

    def test_composite_key_wins(self, by_pair):
        q = Query("q", "t", [EqPredicate("x", 3), EqPredicate("y", 4)])
        cm, seconds = CMDesigner().best_cm_for_query(by_pair, q)
        assert cm.key_attrs == ("x", "y") and cm.key_widths == (1, 1)
        pricer = CandidatePricer(by_pair, q, cm.cluster_width)
        assert seconds == cm_scan(by_pair, q, cm).seconds
        assert seconds < pricer.cost(("x",), (1,)).seconds < full_scan(by_pair, q).seconds

    def test_wider_key_buckets_win_when_exact_ones_do_not_fit(self, by_state):
        q = Query("q", "people", [EqPredicate("city", 400)])
        exact, coarse = (
            CorrelationMap(by_state, ("city",), (w,), cluster_width=4).size_bytes
            for w in (1, 4)
        )
        assert coarse < exact
        cm, seconds = CMDesigner(budget_bytes=coarse).best_cm_for_query(by_state, q)
        assert cm.key_widths == (4,) and cm.size_bytes == coarse
        assert seconds < full_scan(by_state, q).seconds

    def test_improving_candidate_over_budget_is_skipped(self, disk, monkeypatch):
        """The best-priced candidates do not fit; a later, worse one that
        does fit and still beats the baseline wins."""
        hf = HeapFile(make_people(n=200_000), ("state",), disk)
        q = Query("q", "people", [EqPredicate("city", 400), EqPredicate("region", 2)])
        designer = CMDesigner(budget_bytes=2_000, max_widths=1)
        priced = count_calls(monkeypatch, CandidatePricer, "cost")
        built = count_calls(monkeypatch, CorrelationMap, "_build")
        cm, seconds = designer.best_cm_for_query(hf, q)
        # Every candidate priced improved on the one before and was built;
        # the two that did not fit were dropped.
        assert (len(priced), len(built)) == (3, 3)
        assert cm.key_attrs == ("region",) and cm.size_bytes <= 2_000
        pricer = CandidatePricer(hf, q, designer.cluster_width)
        for key in (("city",), ("city", "region")):
            assert pricer.cost(key, (1,) * len(key)).seconds < seconds
        assert seconds < full_scan(hf, q).seconds

    def test_tie_keeps_the_earlier_candidate(self, by_pair, monkeypatch):
        """x2 is a copy of x: (x2,) and (x, x2) price exactly as (x,) does,
        and only a strict improvement replaces — or builds — a candidate.
        Buckets of 8 ranks straddle the start of the x = 3 block (g 60–79),
        so the tied price lies above the query's floor and the tied
        candidates are priced."""
        q = Query("q", "t", [EqPredicate("x", 3), EqPredicate("x2", 3)])
        designer = CMDesigner(cluster_width=8)
        priced = count_calls(monkeypatch, CandidatePricer, "cost")
        built = count_calls(monkeypatch, CorrelationMap, "_build")
        cm, seconds = designer.best_cm_for_query(by_pair, q)
        assert len(priced) > 3 and len(built) == 1
        assert cm.name == "cm[x|w=1|cw=8]"
        assert seconds > guided_scan_floor(by_pair, q.mask(by_pair.table))
        pricer = CandidatePricer(by_pair, q, designer.cluster_width)
        assert pricer.cost(("x2",), (1,)).seconds == seconds
        assert pricer.cost(("x", "x2"), (1, 1)).seconds == seconds

    def test_candidate_at_the_query_floor_ends_the_search(self, by_pair, monkeypatch):
        """With buckets of 4 ranks the x = 3 block is read exactly: the first
        candidate prices at the query's floor, which no later candidate can
        beat, so nothing else is priced."""
        q = Query("q", "t", [EqPredicate("x", 3), EqPredicate("x2", 3)])
        designer = CMDesigner()
        priced = count_calls(monkeypatch, CandidatePricer, "cost")
        built = count_calls(monkeypatch, CorrelationMap, "_build")
        cm, seconds = designer.best_cm_for_query(by_pair, q)
        assert (len(priced), len(built)) == (1, 1)
        assert cm.name == "cm[x|w=1|cw=4]"
        assert seconds == guided_scan_floor(by_pair, q.mask(by_pair.table))
