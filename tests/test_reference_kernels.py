"""The fast kernels equal their reference implementations bit for bit: the
memoised layout simulation of ``TableStatistics.estimate_layout``, the key
index's refined orders and group counts, the CSR-packed ``CorrelationMap``,
the CM Designer pricing candidates from columns, Selectivity Propagation as
an array program and the cost model's scalar pricing core against
``tests/reference_kernels.py``."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm.bucketing import bucket_codes, candidate_widths
from repro.cm.correlation_map import CorrelationMap
from repro.cm.designer import CandidatePricer, CMDesigner
from repro.costmodel.base import ObjectGeometry
from repro.costmodel.correlation_aware import CorrelationAwareCostModel
from repro.design.selectivity import (
    SelectivityVectors,
    build_selectivity_vectors,
    propagate_selectivities,
)
from repro.engine import EvalSession, use_session
from repro.relational.query import EqPredicate, InPredicate, Query, RangePredicate
from repro.stats.collector import TableStatistics
from repro.stats.keyindex import KeyIndex
from repro.storage.access import cm_scan, guided_scan_cost
from repro.storage.disk import DiskModel
from repro.storage.executor import PhysicalDatabase, PhysicalObject
from repro.storage.fragments import sorted_unique
from repro.storage.layout import HeapFile
from repro.workloads.registry import make
from tests.reference_kernels import (
    ReferenceCorrelationMap,
    reference_best_cm_for_query,
    reference_cm_fragments,
    reference_distinct,
    reference_distinct_among,
    reference_estimate_layout,
    reference_explain,
    reference_key_counts,
    reference_propagate_selectivities,
    reference_sorted_synopsis_codes,
    reference_strength,
)
from tests.test_table import make_table

DISK = DiskModel()


def _random_table(rng: np.random.Generator, n: int):
    a = rng.integers(0, 12, n)
    return make_table(
        a=a,
        b=a * 4 + rng.integers(0, 4, n),  # b determines a
        c=rng.integers(0, 30, n),
        m=rng.integers(0, 200, n),
    )


@st.composite
def predicates(draw):
    """A random conjunction with at most one predicate per attribute."""
    preds = []
    for attr, hi in (("a", 11), ("b", 47), ("c", 29), ("m", 199)):
        kind = draw(st.sampled_from(["none", "none", "eq", "range", "in"]))
        if kind == "eq":
            preds.append(EqPredicate(attr, draw(st.integers(0, hi))))
        elif kind == "range":
            lo = draw(st.integers(0, hi))
            preds.append(RangePredicate(attr, lo, lo + draw(st.integers(0, hi))))
        elif kind == "in":
            vals = draw(st.sets(st.integers(0, hi), min_size=1, max_size=5))
            preds.append(InPredicate(attr, tuple(vals)))
    return preds


CLUSTER_KEYS = [("a",), ("b",), ("a", "c"), ("c", "b"), ("m",), ("b", "m")]
PRED_ATTRS = [None, ("a",), ("b", "c"), ("m", "a", "c"), ("c",), ()]


# ------------------------------------------------------------- estimate_layout


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 500),
    synopsis_rows=st.sampled_from([16, 64, 4096]),
    conjunctions=st.lists(predicates(), min_size=1, max_size=4),
    cluster_keys=st.lists(st.sampled_from(CLUSTER_KEYS), min_size=1, max_size=3),
    pred_attrs=st.sampled_from(PRED_ATTRS),
    gaps=st.lists(st.integers(0, 3_000), min_size=1, max_size=4),
)
def test_estimate_layout_equals_reference(
    seed, n, synopsis_rows, conjunctions, cluster_keys, pred_attrs, gaps
):
    """Random tables, cluster keys, predicate subsets, ``pred_attrs``,
    ``min_sample_matches`` on both sides of the match count, and several
    ``gap_rows`` against one key of one stats object — first as misses,
    then as memo hits (``gap_rows`` 0 and 1 give ``gap_rows x ratio < 1``
    whenever the synopsis thins the table)."""
    table = _random_table(np.random.default_rng(seed), n)
    stats = TableStatistics(table, synopsis_rows=synopsis_rows, seed=seed)
    queries = [Query(f"q{i}", "t", preds) for i, preds in enumerate(conjunctions)]
    for _ in range(2):
        for query in queries:
            n_match = int(stats.sample_mask(query, attrs=pred_attrs).sum())
            for cluster_key in cluster_keys:
                for gap_rows in [0, 1, *gaps]:
                    for min_matches in (0, 8, n_match, n_match + 1):
                        args = (cluster_key, query, gap_rows, pred_attrs, min_matches)
                        assert stats.estimate_layout(*args) == (
                            reference_estimate_layout(stats, *args)
                        ), args


def test_estimate_layout_gap_is_outside_the_memo_key():
    """One simulation per (cluster key, predicate set), whatever the gap,
    the query name or the ``min_sample_matches`` asked for."""
    table = _random_table(np.random.default_rng(3), 5_000)
    stats = TableStatistics(table, synopsis_rows=512)
    preds = [RangePredicate("m", 10, 90), EqPredicate("a", 4)]
    for i, gap_rows in enumerate([0, 7, 40, 400, 4_000, 40_000]):
        query = Query(f"q{i}", "t", list(preds))
        for min_matches in (1, 8):
            args = (("c", "b"), query, gap_rows, None, min_matches)
            assert stats.estimate_layout(*args) == (
                reference_estimate_layout(stats, *args)
            )
    assert len(stats._scan_memo) == 1
    stats.estimate_layout(("c", "b"), query, 7, pred_attrs=("m",))
    stats.estimate_layout(("b",), query, 7)
    assert len(stats._scan_memo) == 3


def test_synopsis_masks_are_cached_and_read_only():
    table = _random_table(np.random.default_rng(5), 2_000)
    stats = TableStatistics(table, synopsis_rows=256)
    query = Query("q", "t", [EqPredicate("a", 3), RangePredicate("m", 0, 50)])
    mask = stats.sample_mask(query, attrs=("a",))
    assert np.array_equal(mask, stats.synopsis.column("a") == 3)
    assert stats.sample_mask(Query("other", "t", [EqPredicate("a", 3)])) is mask
    everything = stats.sample_mask(query, attrs=())
    assert everything.all() and everything is stats.sample_mask(Query("e", "t", []))
    for cached in (mask, everything):
        with pytest.raises(ValueError):
            cached[0] = False


# ------------------------------------------------------------------ key index


def _wide_table(rng: np.random.Generator, n: int):
    """Negative and wide-range integers, low- and high-cardinality columns,
    and one float column holding both zeros."""
    return make_table(
        lo=rng.integers(0, 3, n),
        neg=rng.integers(-5, 5, n),
        mid=rng.integers(0, 40, n),
        wide=rng.integers(-(2**62), 2**62, n),
        wide_lo=rng.integers(-(2**62), 2**62, 4)[rng.integers(0, 4, n)],
        hi=rng.integers(0, 10 * n + 1, n),
        x=rng.choice(np.array([-0.0, 0.0, 0.5, -1.25, 3.0]), n),
    )


WIDE_ATTRS = ["lo", "neg", "mid", "wide", "wide_lo", "hi", "x"]
key_lists = st.lists(
    st.lists(st.sampled_from(WIDE_ATTRS), min_size=1, max_size=6, unique=True),
    min_size=1, max_size=6,
)


def _mask(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "random":
        return rng.random(n) < rng.random()
    return np.full(n, kind == "full")


def _assert_counts_equal(got, want) -> None:
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
    keys=key_lists,
    cache_prefixes=st.booleans(),
    mask_kinds=st.lists(
        st.sampled_from(["empty", "full", "random"]), min_size=1, max_size=3
    ),
    data=st.data(),
)
def test_key_index_equals_reference(seed, n, keys, cache_prefixes, mask_kinds, data):
    """Keys that share prefixes, asked for in random order and every prefix
    of theirs in a random order too — so a key meets its parent cached and
    not, counted before it is ordered and after: the permutation and group
    codes are ``lexsort``'s element for element, ``(d, f)`` are those of the
    re-packed key under ``np.unique``, with and without a mask."""
    rng = np.random.default_rng(seed)
    table = _wide_table(rng, n)
    index = KeyIndex(table)
    wanted = [tuple(key) for key in keys]
    if cache_prefixes:
        wanted += [key[:depth] for key in wanted for depth in range(1, len(key))]
        wanted = data.draw(st.permutations(wanted))
    for key in wanted:
        if data.draw(st.booleans()):
            _assert_counts_equal(index.counts(key), reference_key_counts(table, key))
        order = index.order(key)
        perm, codes = reference_sorted_synopsis_codes(table, key)
        assert np.array_equal(order.perm, perm)
        assert np.array_equal(order.row_codes[order.perm], codes)
        assert np.array_equal(np.diff(order.bounds), np.bincount(codes))
        _assert_counts_equal(index.counts(key), reference_key_counts(table, key))
        for kind in mask_kinds:
            mask = _mask(rng, n, kind)
            _assert_counts_equal(
                index.counts(key, mask), reference_key_counts(table, key, mask)
            )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
    synopsis_rows=st.sampled_from([16, 64, 4096]),
    estimator=st.sampled_from(["ae", "ae", "gee", "chao"]),
    keys=key_lists,
    mask_kinds=st.lists(
        st.sampled_from(["empty", "full", "random"]), min_size=1, max_size=3
    ),
)
def test_statistics_distincts_equal_reference(
    seed, n, synopsis_rows, estimator, keys, mask_kinds
):
    """``distinct``, ``strength`` and ``distinct_among`` off the key index
    equal the estimates over re-packed key codes with ``==`` — on a synopsis
    that thins the table and on one that is the table (the exact path)."""
    rng = np.random.default_rng(seed)
    table = _wide_table(rng, n)
    stats = TableStatistics(
        table, synopsis_rows=synopsis_rows, seed=seed, estimator=estimator
    )
    keys = [tuple(key) for key in keys]
    for key, other in zip(keys, keys[1:] + keys[:1]):
        assert stats.distinct(key) == reference_distinct(stats, key)
        assert stats.distinct(key[::-1]) == reference_distinct(stats, key)
        assert stats.strength(key, other) == reference_strength(stats, key, other)
        for kind in mask_kinds:
            mask = _mask(rng, stats.synopsis.nrows, kind)
            assert stats.distinct_among(mask, key) == (
                reference_distinct_among(stats, mask, key)
            )


def test_key_index_above_65536_rows_uses_32_bit_codes():
    rng = np.random.default_rng(2)
    n = 70_000
    table = make_table(
        a=rng.integers(0, 9, n), b=rng.integers(-300, 300, n), c=rng.integers(0, n, n)
    )
    index = KeyIndex(table)
    mask = rng.random(n) < 0.3
    for key in [("a", "b", "c"), ("b", "a"), ("c",), ("c", "a")]:
        _assert_counts_equal(index.counts(key), reference_key_counts(table, key))
        order = index.order(key)
        assert order.row_codes.dtype == order.perm.dtype == np.uint32
        perm, codes = reference_sorted_synopsis_codes(table, key)
        assert np.array_equal(order.perm, perm)
        assert np.array_equal(order.row_codes[order.perm], codes)
        _assert_counts_equal(
            index.counts(key, mask), reference_key_counts(table, key, mask)
        )
    assert index.order(("a",)).row_codes.max() == 8
    assert KeyIndex(table.select(np.arange(65_535))).order(("c",)).perm.dtype == np.uint16


def test_key_index_on_an_empty_table():
    table = make_table(a=np.empty(0, dtype=np.int64), x=np.empty(0))
    index = KeyIndex(table)
    nobody = np.zeros(0, dtype=bool)
    for key in [(), ("a",), ("x", "a")]:
        order = index.order(key)
        assert len(order.perm) == len(order.row_codes) == order.ngroups == 0
        for mask in (None, nobody):
            d, f = index.counts(key, mask)
            assert d == 0 and len(f) == 0
    stats = TableStatistics(table)
    assert stats.distinct(("a", "x")) == 0.0
    assert stats.strength(("a",), ("x",)) == 1.0
    assert stats.distinct_among(nobody, ("a",)) == 0.0
    assert stats.estimate_layout(("a",), Query("q", "t", []), 10) is None


def test_key_index_packs_only_what_fits_64_bits():
    """Six columns of ~2^11 values each overflow a 64-bit mixed-radix code:
    the key is counted from its refined order instead, same integers."""
    rng = np.random.default_rng(4)
    n = 2_100
    table = make_table(**{f"c{i}": rng.permutation(n) for i in range(6)})
    key = tuple(f"c{i}" for i in range(6))
    index = KeyIndex(table)
    for width, ordered in ((5, False), (6, True)):
        _assert_counts_equal(
            index.counts(key[:width]), reference_key_counts(table, key[:width])
        )
        assert (key[:width] in index._orders) is ordered


@settings(max_examples=200, deadline=None)
@given(
    values=st.one_of(
        st.lists(st.integers(-(2**40), 2**40), max_size=40),
        st.lists(st.integers(0, 6), max_size=40),
        st.lists(st.floats(-4.0, 4.0).map(lambda v: round(v * 2) / 2 + 0.0), max_size=40),
    ),
    dtype=st.sampled_from([np.int64, np.uint16, np.float64]),
    presort=st.booleans(),
)
def test_sorted_unique_equals_np_unique(values, dtype, presort):
    """Values and dtype of ``np.unique`` on integer, float, empty, sorted
    (strictly or with duplicates) and unsorted input; the input is left as
    it was."""
    if np.dtype(dtype).kind == "u":
        values = [abs(v) % 1000 for v in values]
    arr = np.array(sorted(values) if presort else values, dtype=dtype)
    before = arr.copy()
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(arr, before)


# ------------------------------------------------------------- CorrelationMap


def _postings(cm: CorrelationMap) -> list[np.ndarray]:
    return np.split(cm._packed, cm._offsets[1:-1])


def _assert_cm_equals_reference(cm, ref, queries) -> None:
    assert cm.n_entries == ref.n_entries
    assert cm.total_postings == ref.total_postings
    assert cm.size_bytes == ref.size_bytes
    assert set(cm._entry_keys) == set(ref.entry_keys)
    for attr, keys in ref.entry_keys.items():
        assert np.array_equal(cm._entry_keys[attr], keys)
    assert len(cm._offsets) == cm.n_entries + 1
    for got, want in zip(_postings(cm), ref.postings, strict=True):
        assert np.array_equal(got, want)
    for query in queries:
        want = ref.lookup_buckets(query)
        got = cm.lookup(query)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_cluster_buckets_sorted(hf: HeapFile, depth: int, width: int) -> None:
    """What lets ``CorrelationMap._csr`` sort a build by entry alone."""
    buckets = bucket_codes(hf.prefix_ranks(depth), width)
    assert (buckets[1:] >= buckets[:-1]).all()


def _churn(hf: HeapFile, rng: np.random.Generator, recent: bool) -> None:
    """Insert a batch (above every sorted lead value when ``recent``, so the
    merge boundary stays high) and tombstone a few rows."""
    n_new = int(rng.integers(1, 40))
    a = rng.integers(0, 12, n_new)
    batch = {
        "a": a,
        "b": a * 4 + rng.integers(0, 4, n_new),
        "c": rng.integers(0, 30, n_new),
        "m": rng.integers(0, 200, n_new),
    }
    if recent:
        lead = hf.cluster_key[0]
        batch[lead] = batch[lead] + int(hf.table.column(lead).max()) + 1
    hf.insert(batch)
    if not recent and hf.nrows > 4:
        hf.delete_rows(rng.choice(hf.nrows, size=3, replace=False))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 600),
    cluster_key=st.sampled_from(CLUSTER_KEYS),
    key=st.sampled_from(
        [(("a",), (1,)), (("b",), (4,)), (("m",), (16,)), (("c", "a"), (1, 2)),
         (("m", "b"), (8, 1))]
    ),
    cluster_width=st.sampled_from([1, 2, 7]),
    queries=st.lists(predicates(), min_size=1, max_size=5),
    rounds=st.lists(
        st.tuples(st.booleans(), st.sampled_from([0.0, 0.5, 100.0])),
        min_size=0, max_size=3,
    ),
)
def test_correlation_map_equals_reference(
    seed, n, cluster_key, key, cluster_width, queries, rounds
):
    """After the build and after every ``refresh_merged`` that follows a
    ``tail_merge`` (incremental, and rebuild by boundary or by bloat)."""
    rng = np.random.default_rng(seed)
    hf = HeapFile(_random_table(rng, n), cluster_key, DISK)
    key_attrs, key_widths = key
    depth = int(rng.integers(1, len(cluster_key) + 1))
    cm = CorrelationMap(hf, key_attrs, key_widths, depth, cluster_width)
    ref = ReferenceCorrelationMap(hf, key_attrs, key_widths, depth, cluster_width)
    queries = [Query(f"q{i}", "t", preds) for i, preds in enumerate(queries)]
    _assert_cm_equals_reference(cm, ref, queries)
    _assert_cluster_buckets_sorted(hf, depth, cluster_width)
    for recent, bloat_limit in rounds:
        _churn(hf, rng, recent)
        merged_from = hf.tail_merge().merged_from_row
        _assert_cluster_buckets_sorted(hf, depth, cluster_width)
        outcome = cm.refresh_merged(
            merged_from_row=merged_from, bloat_limit=bloat_limit
        )
        assert outcome in ("incremental", "rebuild")
        if outcome == "rebuild":
            ref.build()
        else:
            ref.merge_rows(merged_from)
        _assert_cm_equals_reference(cm, ref, queries)


def test_empty_sorted_region_builds_an_empty_map():
    """Regression: an empty shard (or a file that is all tail) used to raise
    IndexError in the build."""
    flat = _random_table(np.random.default_rng(0), 50)
    hf = HeapFile(flat.select(np.arange(0)), ("a",), DISK)
    probe = Query("q", "t", [EqPredicate("m", 5), RangePredicate("c", 0, 9)])
    for key_attrs in (("m",), ("m", "c")):
        cm = CorrelationMap(hf, key_attrs, cluster_width=4)
        assert cm.n_entries == 0 and cm.total_postings == 0 and cm.size_bytes == 0
        buckets = cm.lookup(probe)
        assert buckets.dtype == np.int64 and len(buckets) == 0
        assert cm.lookup(Query("none", "t", [EqPredicate("b", 1)])) is None
    # All tail: rows arrive, none has a rank yet; folding them in rebuilds.
    hf.insert({name: flat.column(name) for name in flat.column_names})
    assert cm.refresh() is False and cm.n_entries == 0
    assert len(cm.lookup(probe)) == 0
    merged_from = hf.tail_merge().merged_from_row
    assert cm.refresh_merged(merged_from_row=merged_from) == "rebuild"
    ref = ReferenceCorrelationMap(hf, ("m", "c"), (1, 1), 1, 4)
    _assert_cm_equals_reference(cm, ref, [probe])


# ---------------------------------------------------------------- CM Designer


@st.composite
def probe_predicates(draw):
    """One to three predicated attributes — equality, range (non-integer
    bounds included) or IN — the shapes a CM candidate is probed with."""
    domains = draw(
        st.lists(
            st.sampled_from([("a", 11), ("b", 47), ("c", 29), ("m", 199)]),
            min_size=1, max_size=3, unique=True,
        )
    )
    preds = []
    for attr, hi in domains:
        kind = draw(st.sampled_from(["eq", "range", "in"]))
        if kind == "eq":
            preds.append(EqPredicate(attr, draw(st.integers(0, hi))))
        elif kind == "range":
            lo = draw(st.floats(-3.0, hi, allow_nan=False))
            preds.append(
                RangePredicate(attr, lo, lo + draw(st.floats(0.0, hi, allow_nan=False)))
            )
        else:
            vals = draw(st.sets(st.integers(0, hi), min_size=1, max_size=5))
            preds.append(InPredicate(attr, tuple(vals)))
    return preds


FILE_STATES = ["pristine", "tail", "tombstones", "tail+tombstones", "merged"]
# Pages of a few rows and cheap seeks, so that a few hundred rows span
# enough pages for CM scans to win, lose and tie against each other.
PROBE_DISKS = [
    DISK,
    DiskModel(page_size=128, seek_cost_s=2e-5, fragment_gap_pages=1),
    DiskModel(page_size=64, seek_cost_s=4e-6, fragment_gap_pages=0),
]


def _file_in_state(seed: int, n: int, cluster_key, state: str, disk) -> HeapFile:
    rng = np.random.default_rng(seed)
    hf = HeapFile(_random_table(rng, n), cluster_key, disk)
    if state == "tail":
        _churn(hf, rng, recent=True)
    elif state == "tombstones":
        hf.delete_rows(rng.choice(hf.nrows, size=min(3, hf.nrows), replace=False))
    elif state != "pristine":
        _churn(hf, rng, recent=False)
        if state == "merged":
            hf.tail_merge()
    return hf


def _run_cost(hf: HeapFile, cm: CorrelationMap | None, query: Query):
    db = PhysicalDatabase([PhysicalObject(hf, cms=[] if cm is None else [cm])])
    return db.run(query).result.cost


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 600),
    cluster_key=st.sampled_from(CLUSTER_KEYS),
    state=st.sampled_from(FILE_STATES),
    disk=st.sampled_from(PROBE_DISKS),
    cluster_width=st.sampled_from([1, 4]),
    budget=st.sampled_from([0, 256, 1024, 4096, 1 << 20]),
    with_session=st.booleans(),
    conjunctions=st.lists(probe_predicates(), min_size=1, max_size=3),
)
def test_best_cm_for_query_equals_reference(
    seed, n, cluster_key, state, disk, cluster_width, budget, with_session,
    conjunctions,
):
    """Pricing candidates from columns and building only the improving ones
    picks what building and scanning every candidate picks — same winner,
    same size, seconds equal with ``==`` — under budgets no, some and all
    candidates fit, and the executor then charges the same cost (with a
    session, from the (plan, cost) the designer left it)."""
    hf = _file_in_state(seed, n, cluster_key, state, disk)
    designer = CMDesigner(budget_bytes=budget, cluster_width=cluster_width)
    session = EvalSession() if with_session else None
    if session is not None:
        session.adopt_heapfile(hf)
    for i, preds in enumerate(conjunctions):
        query = Query(f"q{i}", "t", preds)
        want_cm, want_seconds = reference_best_cm_for_query(designer, hf, query)
        want_cost = _run_cost(hf, want_cm, query)
        if session is None:
            got_cm, got_seconds = designer.best_cm_for_query(hf, query)
            got_cost = _run_cost(hf, got_cm, query)
        else:
            with use_session(session):
                got_cm, got_seconds = session.best_cm_for_query(designer, hf, query)
                if got_cm is not None:
                    _, memo_cost = session.scan_cost(hf, got_cm, query)
                    assert memo_cost == cm_scan(hf, query, want_cm).cost
                got_cost = _run_cost(hf, got_cm, query)
        assert got_seconds == want_seconds
        assert (got_cm is None) == (want_cm is None)
        if got_cm is not None:
            assert got_cm.name == want_cm.name
            assert got_cm.size_bytes == want_cm.size_bytes <= budget
        assert got_cost == want_cost


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 600),
    cluster_key=st.sampled_from(CLUSTER_KEYS),
    state=st.sampled_from(FILE_STATES),
    disk=st.sampled_from(PROBE_DISKS),
    cluster_width=st.sampled_from([1, 4]),
    preds=probe_predicates(),
)
def test_candidate_pricer_equals_built_candidates(
    seed, n, cluster_key, state, disk, cluster_width, preds
):
    """For every candidate the designer enumerates, the buckets read off the
    columns are the reference CM's lookup, and the price is the cost of a
    ``cm_scan`` through the built CM."""
    hf = _file_in_state(seed, n, cluster_key, state, disk)
    query = Query("q", "t", preds)
    designer = CMDesigner(cluster_width=cluster_width)
    pricer = CandidatePricer(hf, query, cluster_width)
    for key in designer.candidate_keys(hf, query):
        ndistinct = hf.table.distinct_count(key)
        for width in candidate_widths(ndistinct, designer.max_widths):
            widths = (width,) + (1,) * (len(key) - 1)
            ref = ReferenceCorrelationMap(
                hf, key, widths, len(cluster_key), cluster_width
            )
            got = pricer.buckets(key, widths)
            want = ref.lookup_buckets(query)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            cm = CorrelationMap(hf, key, widths, cluster_width=cluster_width)
            assert pricer.cost(key, widths) == cm_scan(hf, query, cm).cost


# ------------------------------------------------------------ CM scan kernel

CM_FILE_STATES = [
    "pristine", "tail", "tombstones", "merged-incremental", "merged-rebuild",
    "compacted",
]


def _cm_in_state(hf, cm, ref, rng, state) -> None:
    """Mutate ``hf`` into ``state`` and bring ``cm`` (by its own refresh
    path) and ``ref`` (by the branch ``cm`` reports) up to date."""
    if state == "tail":
        _churn(hf, rng, recent=True)
    elif state == "tombstones":
        hf.delete_rows(rng.choice(hf.nrows, size=min(3, hf.nrows), replace=False))
    elif state.startswith("merged"):
        incremental = state == "merged-incremental"
        _churn(hf, rng, recent=incremental)
        merged_from = hf.tail_merge().merged_from_row
        outcome = cm.refresh_merged(
            merged_from_row=merged_from, bloat_limit=100.0 if incremental else 0.0
        )
        if outcome == "incremental":
            ref.merge_rows(merged_from)
        else:
            ref.build()
        assert outcome == "incremental" or not incremental
    elif state == "compacted":
        _churn(hf, rng, recent=False)
        hf.compact()
        assert cm.refresh()
        ref.build()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 600),
    cluster_key=st.sampled_from(CLUSTER_KEYS),
    key=st.sampled_from(
        [(("a",), (1,)), (("b",), (4,)), (("m",), (16,)), (("c", "a"), (1, 2)),
         (("m", "b"), (8, 1))]
    ),
    cluster_width=st.sampled_from([1, 2, 4, 8, 32]),
    state=st.sampled_from(CM_FILE_STATES),
    disk=st.sampled_from(PROBE_DISKS),
    queries=st.lists(predicates(), min_size=1, max_size=4),
)
def test_cm_scan_equals_reference_fragments(
    seed, n, cluster_key, key, cluster_width, state, disk, queries
):
    """``cm_scan`` and ``CandidatePricer.cost`` read cluster buckets off the
    rank bounds; the rank-code route (expand every bucket, binary-search
    every code) gives the same fragments and cost — for every CM depth,
    on a pristine file, after tail inserts, after tombstones, after a tail
    merge refreshed incrementally or by rebuild, and after a compaction,
    for a lookup that matches nothing too.  A ``cluster_width`` of 32 over
    a few hundred rows cuts the last bucket short."""
    rng = np.random.default_rng(seed)
    hf = HeapFile(_random_table(rng, n), cluster_key, disk)
    key_attrs, key_widths = key
    depth = int(rng.integers(1, len(cluster_key) + 1))
    cm = CorrelationMap(hf, key_attrs, key_widths, depth, cluster_width)
    ref = ReferenceCorrelationMap(hf, key_attrs, key_widths, depth, cluster_width)
    _cm_in_state(hf, cm, ref, rng, state)
    fresh = ReferenceCorrelationMap(
        hf, key_attrs, key_widths, len(cluster_key), cluster_width
    )
    probes = [Query(f"q{i}", "t", preds) for i, preds in enumerate(queries)]
    probes.append(Query("nothing", "t", [EqPredicate(key_attrs[0], -1000)]))
    for query in probes:
        buckets = cm.lookup(query)
        want_buckets = ref.lookup_buckets(query)
        if want_buckets is None:
            assert buckets is None and cm_scan(hf, query, cm) is None
            continue
        assert np.array_equal(buckets, want_buckets)
        want = reference_cm_fragments(hf, depth, cluster_width, want_buckets)
        got = hf.page_fragments_for_prefix_buckets(depth, cluster_width, buckets)
        assert got == want
        assert cm_scan(hf, query, cm).cost == guided_scan_cost(hf, want)
        if all(query.predicate_on(a) is not None for a in key_attrs):
            want = reference_cm_fragments(
                hf, len(cluster_key), cluster_width, fresh.lookup_buckets(query)
            )
            pricer = CandidatePricer(hf, query, cluster_width)
            assert pricer.cost(key_attrs, key_widths) == guided_scan_cost(hf, want)


# ----------------------------------------------------- selectivity propagation


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 500),
    conjunctions=st.lists(predicates(), min_size=1, max_size=6),
    max_steps=st.sampled_from([None, 1, 2, 5]),
)
def test_propagate_selectivities_equals_reference(
    seed, n, conjunctions, max_steps
):
    """Random tables (``b`` determines ``a``, so strengths really push
    selectivities), random conjunctions — composites included whenever a
    query predicates two attributes — and ``max_steps`` on both sides of
    the fixpoint: same step count, bit-identical vectors."""
    table = _random_table(np.random.default_rng(seed), n)
    stats = TableStatistics(table, synopsis_rows=64, seed=seed)
    queries = [Query(f"q{i}", "t", preds) for i, preds in enumerate(conjunctions)]
    got = build_selectivity_vectors(queries, stats, propagate=False)
    want = build_selectivity_vectors(queries, stats, propagate=False)
    steps = propagate_selectivities(got, stats, max_steps=max_steps)
    assert steps == reference_propagate_selectivities(
        want, stats, max_steps=max_steps
    )
    assert got.vectors == want.vectors


class _StrengthTable:
    """Stands in for ``TableStatistics`` where a test dictates strengths
    (propagation asks for nothing else); unlisted pairs are uncorrelated."""

    def __init__(self, strengths: dict) -> None:
        self.strengths = strengths

    def strength(self, determinant, dependent) -> float:
        return self.strengths.get((determinant, dependent), 0.05)


def _assert_propagates_like_reference(attrs, vectors, strengths, max_steps=None):
    """Same step count, same values, and every vector's keys in the same
    order (a missing attribute joins the end of its dict when first set)."""
    stats = _StrengthTable(strengths)
    got = SelectivityVectors(attrs, {q: dict(vec) for q, vec in vectors.items()})
    want = SelectivityVectors(attrs, {q: dict(vec) for q, vec in vectors.items()})
    steps = propagate_selectivities(got, stats, max_steps=max_steps)
    assert steps == reference_propagate_selectivities(want, stats, max_steps=max_steps)
    for q, vec in want.vectors.items():
        assert list(got.vectors[q].items()) == list(vec.items()), q
    return got


def test_propagate_selectivities_on_hand_built_vectors():
    """What ``build_selectivity_vectors`` never produces but the function
    accepts: an attribute of the universe absent from a vector, a
    single-attribute key outside the universe, two queries listing the same
    keys in opposite orders (the running minimum keeps the first of two
    candidates closer than epsilon, so the answers differ), a source exactly
    at the ``1 - 1e-9`` threshold, and a strength of 0."""
    attrs = ("a", "b", "c")
    near = 0.5 - 5e-10
    strengths = {
        (("a",), ("p",)): 1.0,
        (("a",), ("q",)): 1.0,
        (("b",), ("p",)): 0.0,  # skipped, not divided by
        (("b",), ("q",)): 0.8,
        (("c",), ("a",)): 0.9,
        (("c",), ("b", "a")): 0.7,
        (("b",), ("edge",)): 1.0,
        (("a",), ("edge",)): 1.0,
    }
    vectors = {
        "forward": {"a": 1.0, "b": 1.0, "p": 0.5, "q": near},
        "backward": {"q": near, "p": 0.5, "b": 1.0, "a": 1.0},
        "absent": {"p": 0.25, ("b", "a"): 0.125, "b": 0.9},
        # Only a value above 1 can tell a source at the threshold from none.
        "threshold": {"a": 1.0, "b": 2.0, "c": 1.0, "edge": 1.0 - 1e-9},
        "below": {"a": 1.0, "b": 2.0, "c": 1.0, "edge": 1.0 - 2e-9},
        "empty": {},
    }
    got = _assert_propagates_like_reference(attrs, vectors, strengths)
    assert got.vectors["forward"]["a"] == 0.5
    assert got.vectors["backward"]["a"] == near
    assert list(got.vectors["absent"]) == ["p", ("b", "a"), "b", "a", "c"]
    assert got.vectors["threshold"] == vectors["threshold"]
    assert got.vectors["below"]["b"] == 1.0 - 2e-9
    assert list(got.vectors["forward"]) == ["a", "b", "p", "q", "c"]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    nqueries=st.integers(0, 5),
    max_steps=st.sampled_from([None, 0, 1, 2, 7]),
)
def test_propagate_selectivities_equals_reference_on_any_vectors(
    data, nqueries, max_steps
):
    """Random hand-built vectors over dictated strengths: keys drawn from
    the universe, outside it and composites, in a random order per query,
    with selectivities and strengths from small sets that make candidates
    tie within epsilon, sit on the source threshold, clamp at 1 and meet a
    strength of 0."""
    attrs = ("a", "b", "c", "d")
    pool = [*attrs, "p", "q", ("a", "b"), ("c", "p"), ("d",), ("b", "c", "q")]
    sels = [1.5, 1.0, 1.0 - 1e-9, 1.0 - 2e-9, 0.5, 0.5 - 5e-10, 0.5 + 5e-10, 0.25, 0.01]
    strengths = {}
    for attr in attrs:
        for key in pool:
            source = key if isinstance(key, tuple) else (key,)
            strengths[(attr,), source] = data.draw(
                st.sampled_from([0.0, 0.004, 0.5, 0.5 + 1e-10, 0.9, 1.0])
            )
    vectors = {}
    for i in range(nqueries):
        keys = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=8))
        vectors[f"q{i}"] = {key: data.draw(st.sampled_from(sels)) for key in keys}
    _assert_propagates_like_reference(attrs, vectors, strengths, max_steps)


# --------------------------------------------------------------- plan pricing


@functools.lru_cache(maxsize=None)
def _pricing_instance(name: str):
    inst = make(name, scale=0.1)
    ((_, table),) = inst.flat_tables.items()
    return table, tuple(inst.workload)


@functools.lru_cache(maxsize=None)
def _pricing_stats(name: str, synopsis_rows: int) -> TableStatistics:
    return TableStatistics(_pricing_instance(name)[0], synopsis_rows=synopsis_rows)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["ssb", "tpch"]),
    synopsis_rows=st.sampled_from([48, 512, 4096]),
    use_cm=st.booleans(),
    data=st.data(),
)
def test_pricing_core_equals_reference(name, synopsis_rows, use_cm, data):
    """Every registry query on a random object — a random attribute set
    that covers it (now and then one that does not), a random key drawn
    from that set — prices as the per-pair ``PlanEstimate`` chain did:
    every field of ``explain``, and ``query_seconds`` as a memo miss and as
    a hit.  The smallest synopsis leaves most predicate sets under the
    match floor, which is the AE fallback."""
    table, queries = _pricing_instance(name)
    stats = _pricing_stats(name, synopsis_rows)
    model = CorrelationAwareCostModel(stats, DISK, use_cm=use_cm)
    for query in queries:
        needed = query.attributes()
        spare = [a for a in table.column_names if a not in needed]
        attrs = needed + tuple(
            data.draw(st.lists(st.sampled_from(spare), unique=True, max_size=3))
        )
        if data.draw(st.integers(0, 9)) == 0:
            attrs = attrs[1:]  # the first attribute is always a needed one
        key = tuple(
            data.draw(st.lists(st.sampled_from(attrs), unique=True, max_size=4))
        )
        geometry = ObjectGeometry.from_attrs(stats, DISK, attrs, key)
        want = reference_explain(model, geometry, query)
        assert model.explain(geometry, query) == want, (query.name, attrs, key)
        for _ in range(2):
            assert model.query_seconds(geometry, query) == want.seconds
