"""Design-layer units: grouping, clustering designer, MV sizing, domination."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm.correlation_map import CorrelationMap
from repro.cm.designer import CandidatePricer
from repro.costmodel.correlation_aware import CorrelationAwareCostModel
from repro.design import clustering, grouping
from repro.design.clustering import ClusteredIndexDesigner, order_preserving_merges
from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.dominate import dominates, prune_dominated
from repro.design.enumerate import CandidateEnumerator
from repro.design.grouping import (
    GroupingMemo,
    enumerate_query_groups,
    extended_vectors,
)
from repro.design.mv import (
    KIND_FACT_RECLUSTER,
    KIND_MV,
    CandidateSet,
    MVCandidate,
    fact_recluster_size_bytes,
    mv_size_bytes,
    ordered_mv_attrs,
)
from repro.design.selectivity import build_selectivity_vectors
from repro.engine import EvalSession
from repro.experiments.harness import evaluate_designs
from repro.relational.query import (
    Aggregate,
    EqPredicate,
    InPredicate,
    Query,
    RangePredicate,
    Workload,
)
from repro.stats.collector import TableStatistics
from repro.stats.keyindex import KeyIndex
from repro.storage.disk import DiskModel
from repro.workloads.registry import make
from tests.conftest import make_people


@pytest.fixture(scope="module")
def stats():
    return TableStatistics(make_people(n=40_000))


@pytest.fixture(scope="module")
def disk():
    return DiskModel()


def queries_fixture() -> list[Query]:
    return [
        Query("qa", "people", [EqPredicate("state", 3)], [Aggregate("sum", ("salary",))]),
        Query("qb", "people", [EqPredicate("state", 4)], [Aggregate("sum", ("salary",))]),
        Query("qc", "people", [EqPredicate("city", 100)], [Aggregate("avg", ("region",))]),
    ]


class TestOrderPreservingMerges:
    def test_counts_binomial(self):
        merges = order_preserving_merges(("a", "b"), ("c", "d"), max_results=1000)
        assert len(merges) == 6  # C(4, 2)
        assert ("a", "b", "c", "d") in merges
        assert ("c", "d", "a", "b") in merges

    def test_orders_preserved(self):
        for merge in order_preserving_merges(("a", "b"), ("c", "d"), 1000):
            assert merge.index("a") < merge.index("b")
            assert merge.index("c") < merge.index("d")

    def test_shared_attrs_deduped_keeping_first_key(self):
        merges = order_preserving_merges(("a", "b"), ("b", "c"), 1000)
        for merge in merges:
            assert merge.count("b") == 1

    def test_cap_keeps_concatenations(self):
        merges = order_preserving_merges(
            ("a", "b", "c", "d"), ("e", "f", "g", "h"), max_results=5
        )
        assert len(merges) <= 7
        assert ("a", "b", "c", "d", "e", "f", "g", "h") in merges
        assert ("e", "f", "g", "h", "a", "b", "c", "d") in merges

    def test_empty_sides(self):
        assert order_preserving_merges((), ("x",)) == [("x",)]
        assert order_preserving_merges(("x",), ()) == [("x",)]


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.sampled_from("abcd"), max_size=3, unique=True),
    b=st.lists(st.sampled_from("efgh"), max_size=3, unique=True),
)
def test_merge_properties(a, b):
    a, b = tuple(a), tuple(b)
    merges = order_preserving_merges(a, b, max_results=10_000)
    for merge in merges:
        assert sorted(merge) == sorted(set(a) | set(b))
    # Distinct interleavings (no duplicates).
    assert len(set(merges)) == len(merges)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count every call of ``owner.name`` from now on (one entry each)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


#: Modules whose kernels sort instead of calling plain ``np.unique(x)``,
#: which hashes from NumPy 2.3 on and is several times slower than a sort.
SORTING_MODULES = (
    "repro.stats",
    "repro.relational.table",
    "repro.cm",
    "repro.design.grouping",
    "repro.storage.layout",
    "repro.storage.fragments",
    "repro.storage.update",
    "repro.storage.sharded",
)


def plain_unique_callers(monkeypatch) -> list[str]:
    """Record the module of every ``np.unique(x)`` call made without flags
    from one of :data:`SORTING_MODULES`, from now on."""
    callers: list[str] = []
    original = np.unique

    def watching(*args, **kwargs):
        module = sys._getframe(1).f_globals.get("__name__", "")
        if len(args) + len(kwargs) == 1 and module.startswith(SORTING_MODULES):
            callers.append(module)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", watching)
    return callers


def count_score_key_calls(monkeypatch) -> list:
    """Record every ``ClusteredIndexDesigner.score_key`` call from now on."""
    return count_calls(monkeypatch, ClusteredIndexDesigner, "score_key")


class TestClusteredIndexDesigner:
    def make_designer(self, stats, disk, **kwargs) -> ClusteredIndexDesigner:
        model = CorrelationAwareCostModel(stats, disk)
        return ClusteredIndexDesigner(
            stats=stats, disk=disk, cost_model=model, **kwargs
        )

    def test_dedicated_key_orders_by_kind_then_selectivity(self, stats, disk):
        designer = self.make_designer(stats, disk)
        q = Query(
            "q",
            "people",
            [
                RangePredicate("salary", 50, 99),     # range, sel ~0.28
                EqPredicate("state", 3),              # eq, sel 1/50
                InPredicate("region", (1, 2)),        # IN, sel 0.4
                EqPredicate("city", 70),              # eq, sel 1/1000
            ],
        )
        key = designer.predicate_order(q)
        assert key == ("city", "state", "salary", "region")

    def test_drop_useless_caps_length(self, stats, disk):
        designer = self.make_designer(stats, disk)
        designer.max_key_attrs = 2
        key = designer.drop_useless(
            ("state", "city", "salary"), ("state", "city", "salary")
        )
        assert len(key) <= 2

    def test_drop_useless_stops_at_distinct_explosion(self, stats, disk):
        designer = self.make_designer(stats, disk)
        designer.distinct_page_factor = 0.01  # absurdly tight cap
        key = designer.drop_useless(
            ("city", "salary", "state"), ("city", "salary", "state")
        )
        assert key == ("city",)

    def test_design_for_group_returns_sorted_topt(self, stats, disk):
        designer = self.make_designer(stats, disk)
        queries = queries_fixture()
        attrs = ordered_mv_attrs((), queries)
        ranked = designer.design_for_group(queries, attrs, t=3)
        assert 1 <= len(ranked) <= 3
        scores = [s for _, s in ranked]
        assert scores == sorted(scores)

    def test_single_query_dedicated(self, stats, disk):
        designer = self.make_designer(stats, disk)
        q = queries_fixture()[0]
        attrs = ordered_mv_attrs((), [q])
        ranked = designer.design_for_group([q], attrs, t=1)
        assert ranked[0][0][0] == "state"

    def test_interleaving_beats_concat_only(self, stats, disk):
        """The Section 4.2 claim: restricting the merge to concatenation
        can only produce equal-or-worse best keys."""
        queries = queries_fixture()
        attrs = ordered_mv_attrs((), queries)
        full = self.make_designer(stats, disk)
        concat = self.make_designer(stats, disk)
        concat.concat_only = True
        best_full = full.design_for_group(queries, attrs, t=1)[0][1]
        best_concat = concat.design_for_group(queries, attrs, t=1)[0][1]
        assert best_full <= best_concat + 1e-12

    def test_design_for_group_memoises_per_group_attrs_and_t(
        self, stats, disk, monkeypatch
    ):
        calls = count_score_key_calls(monkeypatch)
        designer = self.make_designer(stats, disk)
        queries = queries_fixture()
        attrs = ordered_mv_attrs((), queries)
        first = designer.design_for_group(queries, attrs, t=2)
        scored = len(calls)
        assert scored > 0
        again = designer.design_for_group(queries, attrs, t=2)
        assert again == first
        assert len(calls) == scored  # no key was scored a second time
        again.clear()  # callers own the list they get
        assert designer.design_for_group(queries, attrs, t=2) == first
        assert len(calls) == scored
        # Another t, another member order, another weight: new designs.
        for variant, t in (
            (queries, 3),
            (queries[::-1], 2),
            ([queries[0].with_frequency(5.0)] + queries[1:], 2),
        ):
            before = len(calls)
            designer.design_for_group(variant, attrs, t=t)
            assert len(calls) > before

    def test_with_queries_starts_from_an_empty_memo(
        self, stats, disk, monkeypatch
    ):
        queries = queries_fixture()
        enumerator = CandidateEnumerator(
            fact="people",
            queries=queries,
            stats=stats,
            disk=disk,
            cost_model=CorrelationAwareCostModel(stats, disk),
            primary_key=("city",),
        )
        attrs = ordered_mv_attrs((), queries[:2])
        want = enumerator.designer.design_for_group(queries[:2], attrs, t=2)
        clone = enumerator.with_queries(queries[:2])
        assert clone.designer is not enumerator.designer
        calls = count_score_key_calls(monkeypatch)
        priced = count_calls(monkeypatch, CorrelationAwareCostModel, "_best_plan")
        # The clone's selectivity vectors are its own, so it designs again
        # (and, the inputs being equal here, arrives at the same keys) —
        # from prices the cost model it shares has already computed.
        assert clone.designer.design_for_group(queries[:2], attrs, t=2) == want
        assert calls and not priced

    def test_reused_query_name_is_priced_by_content(self):
        """Regression: scores were cached under the query *name*, so a
        second query reusing a name got the first one's price."""
        inst = make("ssb", scale=0.02)
        designer = CoraddDesigner(
            inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs
        )
        kd = designer.enumerators[0].designer
        q11 = inst.workload.query("Q1.1")
        a = Query("same", q11.fact_table, list(q11.predicates), q11.aggregates)
        b = Query("same", q11.fact_table, q11.predicates[:1], q11.aggregates)
        attrs, key = a.attributes(), ("year", "discount", "quantity")
        price_a = kd.score_key(key, attrs, [a])
        price_b = kd.score_key(key, attrs, [b])
        assert price_a != price_b
        unprimed = CoraddDesigner(
            inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs
        ).enumerators[0].designer
        assert price_b == unprimed.score_key(key, attrs, [b])

    def test_split_is_memoised_per_points(self, stats, disk, monkeypatch):
        queries = queries_fixture()
        vectors = build_selectivity_vectors(queries, stats)
        memo = GroupingMemo()
        designer = self.make_designer(
            stats, disk, vectors=vectors, grouping_memo=memo
        )
        calls = count_calls(monkeypatch, grouping, "kmeans")
        attrs = ordered_mv_attrs((), queries)
        designer.design_for_group(queries, attrs, t=2)
        clustered = len(calls)
        assert clustered == len(memo.splits) > 0
        # The same members met again — under another parent group, at
        # another t, through another designer on the same memo — are looked
        # up; a split is points and seed, nothing else.
        wider = ordered_mv_attrs(("region",), queries)
        designer.design_for_group(queries, wider, t=3)
        again = self.make_designer(
            stats, disk, vectors=vectors, grouping_memo=memo
        )
        assert again._split(queries) == designer._split(queries)
        assert len(calls) == clustered
        reseeded = self.make_designer(
            stats, disk, vectors=vectors, grouping_memo=memo, seed=1
        )
        reseeded._split(queries)
        assert len(calls) == clustered + 1
        # No memo, no lookup: every split clusters, to the same halves.
        direct = count_calls(monkeypatch, clustering, "kmeans")
        bare = self.make_designer(stats, disk, vectors=vectors)
        assert bare._split(queries) == designer._split(queries)
        bare._split(queries)
        assert len(direct) == 2 and len(calls) == clustered + 1

    def test_validation(self, stats, disk):
        designer = self.make_designer(stats, disk)
        with pytest.raises(ValueError):
            designer.design_for_group([], ("state",), t=1)
        with pytest.raises(ValueError):
            designer.design_for_group(queries_fixture(), ("state",), t=0)


def test_design_work_is_bounded(monkeypatch):
    """The kernel work of ``enumerate()`` plus one ``update()`` on the small
    drift fixture of ``tests/test_incremental.py``, as exact call counts
    (they repeat): layout simulations, k-means runs, synopsis key orders
    built (one refinement each, prefixes and single columns included) and
    ``(d, f)`` counts taken.  A change that drops a memo — prices on the
    cost model, splits on the grouping memo, orders on the key index,
    distinct counts per attribute set — fails here instead of slowing a
    benchmark.  No heap file is built on the way, so nothing may
    ``lexsort``, and no statistics kernel may fall back to the hashing
    ``np.unique``."""
    inst = make("ssb", lineorder_rows=12_000, seed=3)
    queries = list(inst.workload)
    phase1 = Workload(
        "p1", queries[3:9] + [q.with_frequency(1.5) for q in queries[9:12]]
    )
    designer = CoraddDesigner(
        inst.flat_tables,
        Workload("p0", queries[:9]),
        inst.primary_keys,
        inst.fk_attrs,
        config=DesignerConfig(t0=1, alphas=(0.0, 0.25, 0.5), use_feedback=False),
    )
    simulated = count_calls(monkeypatch, TableStatistics, "_simulate_scan")
    ordered = count_calls(monkeypatch, KeyIndex, "_build")
    counted = count_calls(monkeypatch, KeyIndex, "counts")
    clustered = count_calls(monkeypatch, grouping, "kmeans")
    monkeypatch.setattr(clustering, "kmeans", grouping.kmeans)
    lexsorted = count_calls(monkeypatch, np, "lexsort")
    hashed = plain_unique_callers(monkeypatch)
    designer.enumerate()
    designer.update(phase1, int(inst.total_base_bytes() * 0.6))
    assert (len(simulated), len(clustered)) == (480, 100)
    assert (len(ordered), len(counted)) == (113, 467)
    assert not lexsorted and not hashed


def test_cm_design_work_is_bounded(monkeypatch):
    """Materializing and evaluating a four-budget ladder on the same SSB
    fixture under one session, as exact counts (they repeat): CM candidates
    priced from columns, candidates that beat the best so far, Correlation
    Maps built.  Only a candidate whose scan floor is below the best so far
    is priced, only an improving one may cost a build, and the session's
    build cache may spare even that.  Heap files are built here
    (so ``lexsort`` is legitimate), but nothing hashes through a plain
    ``np.unique``."""
    inst = make("ssb", lineorder_rows=12_000, seed=3)
    designer = CoraddDesigner(
        inst.flat_tables,
        inst.workload,
        inst.primary_keys,
        inst.fk_attrs,
        config=DesignerConfig(t0=1, alphas=(0.0, 0.25, 0.5), use_feedback=False),
    )
    base = inst.total_base_bytes()
    designs = designer.design_ladder([int(base * f) for f in (0.25, 0.5, 1.0, 2.0)])
    priced = count_calls(monkeypatch, CandidatePricer, "cost")
    improved = count_calls(monkeypatch, EvalSession, "correlation_map")
    built = count_calls(monkeypatch, CorrelationMap, "_build")
    hashed = plain_unique_callers(monkeypatch)
    session = EvalSession()
    evaluate_designs(designs, session=session)
    assert (len(priced), len(improved), len(built)) == (38, 11, 6)
    assert len(built) == session.stats["cm_build_misses"] <= len(improved)
    assert not hashed


class TestGrouping:
    def test_singletons_and_full_group_always_present(self, stats):
        queries = queries_fixture()
        vectors = build_selectivity_vectors(queries, stats)
        groups = enumerate_query_groups(queries, vectors, stats, alphas=(0.0,))
        names = frozenset(q.name for q in queries)
        assert frozenset(["qa"]) in groups
        assert frozenset(["qb"]) in groups
        assert frozenset(["qc"]) in groups
        assert names in groups

    def test_groups_deduplicated(self, stats):
        queries = queries_fixture()
        vectors = build_selectivity_vectors(queries, stats)
        groups = enumerate_query_groups(queries, vectors, stats)
        assert len(groups) == len(set(groups))

    def test_extended_vectors_alpha_term(self, stats):
        queries = queries_fixture()
        vectors = build_selectivity_vectors(queries, stats)
        zero = extended_vectors(queries, vectors, stats, alpha=0.0)
        half = extended_vectors(queries, vectors, stats, alpha=0.5)
        n_attrs = len(vectors.attrs)
        assert (zero[:, n_attrs:] == 0).all()
        assert half[:, n_attrs:].max() > 0
        # Selectivity half is untouched by alpha.
        assert np.allclose(zero[:, :n_attrs], half[:, :n_attrs])

    def test_empty_workload(self, stats):
        vectors = build_selectivity_vectors([], stats, attrs=("state",))
        assert enumerate_query_groups([], vectors, stats) == []


class TestMVSizing:
    def test_ordered_mv_attrs_cluster_key_first(self):
        queries = queries_fixture()
        attrs = ordered_mv_attrs(("city", "state"), queries)
        assert attrs[:2] == ("city", "state")
        assert set(attrs) >= set(queries[0].attributes())

    def test_mv_size_scales_with_width(self, stats, disk):
        narrow = mv_size_bytes(stats, disk, ("state", "salary"), ("state",))
        wide = mv_size_bytes(stats, disk, ("state", "salary", "city", "region"), ("state",))
        assert wide > narrow

    def test_mv_size_nearly_clustering_independent(self, stats, disk):
        """Section 6.1: 'the size of an MV is nearly independent of its
        choice of clustered index'."""
        attrs = ("state", "city", "salary")
        a = mv_size_bytes(stats, disk, attrs, ("state",))
        b = mv_size_bytes(stats, disk, attrs, ("salary", "city"))
        assert abs(a - b) / max(a, b) < 0.02

    def test_fact_recluster_charges_pk_index(self, stats, disk):
        from repro.storage.btree import secondary_index_bytes

        size = fact_recluster_size_bytes(stats, disk, ("city",))
        assert size == secondary_index_bytes(stats.nrows, 4, disk.page_size)
        assert size > 0
        # Wider PKs cost more.
        assert fact_recluster_size_bytes(stats, disk, ("city", "salary")) > size


def cand(cid, size, runtimes, kind=KIND_MV, attrs=("a", "b")) -> MVCandidate:
    c = MVCandidate(
        cand_id=cid,
        fact="f",
        group=frozenset(runtimes),
        attrs=attrs,
        cluster_key=("a",),
        size_bytes=size,
        kind=kind,
    )
    c.runtimes.update(runtimes)
    return c


class TestCandidateSet:
    def test_add_and_dedupe(self):
        cs = CandidateSet()
        assert cs.add(cand("m1", 10, {"q1": 1.0})) is not None
        assert cs.add(cand("m2", 10, {"q1": 2.0})) is None  # same signature
        assert len(cs) == 1

    def test_duplicate_id_rejected(self):
        cs = CandidateSet()
        cs.add(cand("m1", 10, {"q1": 1.0}))
        with pytest.raises(ValueError):
            cs.add(cand("m1", 10, {"q1": 1.0}, attrs=("a", "b", "c")))

    def test_remove(self):
        cs = CandidateSet()
        cs.add(cand("m1", 10, {"q1": 1.0}))
        cs.remove("m1")
        assert len(cs) == 0
        # Signature freed: the same shape can be re-added.
        assert cs.add(cand("m2", 10, {"q1": 1.0})) is not None


class TestDomination:
    """Table 4 of the paper, verbatim."""

    def table4(self):
        mv1 = cand("MV1", 1 << 30, {"Q1": 1.0, "Q3": 1.0}, attrs=("a", "b"))
        mv2 = cand("MV2", 2 << 30, {"Q1": 5.0, "Q3": 2.0}, attrs=("a", "b", "c"))
        mv3 = cand(
            "MV3", 3 << 30, {"Q1": 5.0, "Q2": 5.0, "Q3": 5.0}, attrs=("a", "b", "c", "d")
        )
        return mv1, mv2, mv3

    def test_mv1_dominates_mv2_not_mv3(self):
        mv1, mv2, mv3 = self.table4()
        assert dominates(mv1, mv2)
        assert not dominates(mv1, mv3)  # MV3 answers Q2, MV1 cannot
        assert not dominates(mv2, mv1)
        assert not dominates(mv3, mv1)

    def test_prune_removes_only_mv2(self):
        cs = CandidateSet()
        for c in self.table4():
            cs.add(c)
        before, after = prune_dominated(cs)
        assert (before, after) == (3, 2)
        ids = {c.cand_id for c in cs}
        assert ids == {"MV1", "MV3"}

    def test_equal_candidates_keep_one(self):
        cs = CandidateSet()
        cs.add(cand("A", 10, {"q": 1.0}, attrs=("a", "b")))
        cs.add(cand("B", 10, {"q": 1.0}, attrs=("a", "c")))
        prune_dominated(cs)
        assert len(cs) == 2  # identical stats: neither strictly better

    def test_strictly_smaller_same_speed_dominates(self):
        cs = CandidateSet()
        cs.add(cand("small", 5, {"q": 1.0}, attrs=("a", "b")))
        cs.add(cand("big", 10, {"q": 1.0}, attrs=("a", "c")))
        prune_dominated(cs)
        assert {c.cand_id for c in cs} == {"small"}

    def test_recluster_not_removed_by_mv(self):
        cs = CandidateSet()
        cs.add(cand("mv", 5, {"q": 1.0}, attrs=("a", "b")))
        cs.add(cand("fr", 10, {"q": 2.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "c")))
        prune_dominated(cs)
        assert len(cs) == 2

    def test_recluster_can_remove_recluster(self):
        cs = CandidateSet()
        cs.add(cand("fr1", 5, {"q": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b")))
        cs.add(cand("fr2", 10, {"q": 2.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "c")))
        prune_dominated(cs)
        assert {c.cand_id for c in cs} == {"fr1"}

    def test_prune_idempotent(self):
        cs = CandidateSet()
        for c in self.table4():
            cs.add(c)
        prune_dominated(cs)
        before, after = prune_dominated(cs)
        assert before == after
