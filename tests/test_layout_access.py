"""Heap files and access paths: correctness and cost ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.query import (
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
)
from repro.storage.access import (
    clustered_scan,
    full_scan,
    secondary_btree_scan,
    usable_cluster_prefix,
)
from repro.storage.disk import DiskModel
from repro.storage.layout import HeapFile
from tests.conftest import make_people
from tests.test_table import make_table


# One row per page and no readahead merging: page fragments are row ranges.
ROW_PAGES = DiskModel(page_size=1, fragment_gap_pages=0)


@pytest.fixture(scope="module")
def people():
    return make_people(n=60_000)


@pytest.fixture(scope="module")
def disk():
    return DiskModel()


@pytest.fixture(scope="module")
def by_state(people, disk):
    return HeapFile(people, ("state", "city"), disk, name="by_state")


@pytest.fixture(scope="module")
def by_salary(people, disk):
    return HeapFile(people, ("salary",), disk, name="by_salary")


class TestHeapFile:
    def test_sorted_by_cluster_key(self, by_state):
        states = by_state.table.column("state")
        assert (np.diff(states) >= 0).all()

    def test_geometry(self, by_state, people, disk):
        assert by_state.nrows == people.nrows
        expected_pages = disk.pages_for_rows(people.nrows, people.row_bytes())
        assert by_state.npages == expected_pages
        assert by_state.size_bytes >= by_state.heap_bytes

    def test_unknown_cluster_attr_rejected(self, people, disk):
        with pytest.raises(KeyError):
            HeapFile(people, ("nope",), disk)

    def test_rowids_for_mask(self, by_state):
        mask = np.zeros(by_state.nrows, dtype=bool)
        mask[[5, 17]] = True
        assert list(by_state.rowids_for_mask(mask)) == [5, 17]
        with pytest.raises(ValueError):
            by_state.rowids_for_mask(np.zeros(3, dtype=bool))

    def test_prefix_ranks_dense_nondecreasing(self, by_state):
        for depth in (1, 2):
            ranks = by_state.prefix_ranks(depth)
            assert ranks[0] == 0
            diffs = np.diff(ranks)
            assert ((diffs == 0) | (diffs == 1)).all()
        assert by_state.prefix_distinct_count(1) == 50

    def test_prefix_depth_validation(self, by_state):
        with pytest.raises(ValueError):
            by_state.prefix_ranks(0)
        with pytest.raises(ValueError):
            by_state.prefix_ranks(3)

    def test_prefix_bucket_fragments_match_bruteforce(self, by_state):
        """Rank ``r`` is the rowids ``bounds[r]:bounds[r + 1]``; a bucket
        is its ``width`` ranks, the last one cut short by the rank count and
        one past it empty; the pages read are exactly the pages of rows
        whose bucket is wanted, touching buckets in one fragment."""
        row_exact = HeapFile(by_state.table, by_state.cluster_key, ROW_PAGES)
        for depth in (1, 2):
            ranks, bounds = row_exact._prefix(depth)
            nranks = row_exact.prefix_distinct_count(depth)
            assert len(bounds) == nranks + 1 and bounds[-1] == row_exact.sorted_rows
            for r in (0, 7, nranks - 1):
                rows = np.arange(bounds[r], bounds[r + 1])
                assert np.array_equal(np.flatnonzero(ranks == r), rows)
            for width in (1, 4, 32):
                last = (nranks - 1) // width
                wanted = np.array([0, 3, 4, last, last + 1])
                wanted = np.unique(wanted[wanted <= last + 1])
                fragments = row_exact.page_fragments_for_prefix_buckets(
                    depth, width, wanted
                )
                covered = np.zeros(row_exact.nrows, dtype=bool)
                for first, end in fragments:
                    covered[first : end + 1] = True
                assert (covered == np.isin(ranks // width, wanted)).all()
        # Adjacent wanted ranks merge into one fragment.
        assert len(row_exact.page_fragments_for_prefix_buckets(
            1, 1, np.array([3, 4, 10])
        )) == 2

    def test_prefix_bucket_fragments_empty(self, by_state):
        empty = np.array([], dtype=np.int64)
        assert by_state.page_fragments_for_prefix_buckets(1, 1, empty) == []
        assert by_state.page_fragments_for_prefix_buckets(1, 4, empty) == []


class TestAccessPaths:
    def test_all_plans_same_answer(self, by_state, by_salary, people):
        q = Query(
            "q",
            "people",
            [EqPredicate("city", 123)],
            [Aggregate("sum", ("salary",))],
        )
        want = q.answer(people)
        for hf in (by_state, by_salary):
            res = full_scan(hf, q)
            assert q.answer(hf.table) == want
            assert int(res.mask.sum()) == int(q.mask(hf.table).sum())
        res2 = secondary_btree_scan(by_state, q, ("city",))
        assert int(res2.mask.sum()) == int(q.mask(by_state.table).sum())

    def test_full_scan_cost(self, by_state, disk):
        q = Query("q", "people", [EqPredicate("state", 3)])
        res = full_scan(by_state, q)
        assert res.cost.pages_read == by_state.npages
        assert res.cost.seconds == pytest.approx(disk.full_scan_seconds(by_state.npages))

    def test_usable_prefix_rules(self, by_state):
        eq_eq = Query("a", "p", [EqPredicate("state", 1), EqPredicate("city", 25)])
        assert usable_cluster_prefix(by_state, eq_eq) == 2
        range_first = Query("b", "p", [RangePredicate("state", 1, 3), EqPredicate("city", 25)])
        assert usable_cluster_prefix(by_state, range_first) == 1
        unpredicated = Query("c", "p", [EqPredicate("salary", 55)])
        assert usable_cluster_prefix(by_state, unpredicated) == 0
        in_first = Query("d", "p", [InPredicate("state", (1, 2))])
        assert usable_cluster_prefix(by_state, in_first) == 1

    def test_clustered_scan_none_when_unusable(self, by_state):
        q = Query("q", "people", [EqPredicate("salary", 55)])
        assert clustered_scan(by_state, q) is None

    def test_clustered_scan_cheaper_than_full(self, by_state):
        q = Query("q", "people", [EqPredicate("state", 7)])
        cs = clustered_scan(by_state, q)
        fs = full_scan(by_state, q)
        assert cs is not None
        assert cs.seconds < fs.seconds
        assert cs.cost.fragments == 1

    def test_in_predicate_fragments(self, by_state):
        q = Query("q", "people", [InPredicate("state", (3, 30))])
        cs = clustered_scan(by_state, q)
        assert cs is not None
        assert cs.cost.fragments == 2

    def test_secondary_scan_requires_leading_predicate(self, by_state):
        q = Query("q", "people", [EqPredicate("salary", 55)])
        assert secondary_btree_scan(by_state, q, ("city", "salary")) is None

    def test_correlation_effect_on_secondary_scan(self, disk):
        """The paper's core observation: the same secondary index is far
        cheaper when the clustering correlates with the indexed attribute.
        city determines state, so clustering by state groups each city's
        rows into a couple of runs; wide rows make scattered matches
        out-distance the readahead gap."""
        from tests.conftest import make_wide_people

        big = make_wide_people(n=120_000, seed=3)
        corr = HeapFile(big, ("state",), disk)
        query = Query("q", "people", [EqPredicate("city", 123)])
        uncorr = HeapFile(big, ("salary",), disk)
        r_corr = secondary_btree_scan(corr, query, ("city",))
        r_uncorr = secondary_btree_scan(uncorr, query, ("city",))
        assert r_corr.cost.fragments * 5 < r_uncorr.cost.fragments
        assert r_corr.seconds * 3 < r_uncorr.seconds


@settings(max_examples=30, deadline=None)
@given(
    states=st.lists(st.integers(0, 8), min_size=5, max_size=200),
    wanted=st.sets(st.integers(0, 8), min_size=1, max_size=4),
)
def test_prefix_ranges_property(states, wanted, ):
    t = make_table(s=states)
    hf = HeapFile(t, ("s",), ROW_PAGES)
    ranks = hf.prefix_ranks(1)
    # Map raw wanted values to ranks present in the data.
    sorted_vals = np.unique(np.asarray(states))
    wanted_ranks = np.array(
        sorted(int(np.searchsorted(sorted_vals, w)) for w in wanted if w in set(states)),
        dtype=np.int64,
    )
    fragments = hf.page_fragments_for_prefix_buckets(1, 1, wanted_ranks)
    covered = np.zeros(hf.nrows, dtype=bool)
    for first, last in fragments:
        covered[first : last + 1] = True
    assert (covered == np.isin(ranks, wanted_ranks)).all()
