"""Cost models: correlation-aware tracks clustering; oblivious is blind."""

import pytest

from repro.costmodel.base import ObjectGeometry
from repro.costmodel.correlation_aware import CorrelationAwareCostModel, expected_runs
from repro.costmodel.oblivious import ObliviousCostModel, cardenas_pages
from repro.relational.query import Aggregate, EqPredicate, Query, RangePredicate
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel
from repro.storage.layout import HeapFile
from tests.conftest import make_people


@pytest.fixture(scope="module")
def people():
    return make_people(n=60_000, seed=4)


@pytest.fixture(scope="module")
def stats(people):
    return TableStatistics(people, synopsis_rows=6_000)


@pytest.fixture(scope="module")
def disk():
    return DiskModel()


ATTRS = ("state", "region", "city", "salary")


def geom(stats, disk, key):
    return ObjectGeometry.from_attrs(stats, disk, ATTRS, key)


class TestObjectGeometry:
    def test_from_attrs(self, stats, disk):
        g = geom(stats, disk, ("state",))
        assert g.nrows == stats.nrows
        assert g.row_bytes == 12
        assert g.npages == disk.pages_for_rows(stats.nrows, 12)
        assert g.full_scan_s > 0

    def test_cluster_key_must_be_in_attrs(self, stats, disk):
        with pytest.raises(ValueError):
            ObjectGeometry.from_attrs(stats, disk, ("state",), ("city",))

    def test_covers(self, stats, disk):
        g = geom(stats, disk, ("state",))
        q = Query("q", "people", [EqPredicate("city", 5)], [Aggregate("sum", ("salary",))])
        assert g.covers(q)
        q2 = Query("q", "people", [EqPredicate("nope", 5)])
        assert not g.covers(q2)

    def test_from_heapfile_matches(self, people, disk, stats):
        hf = HeapFile(people.project(list(ATTRS)), ("state",), disk)
        g = ObjectGeometry.from_heapfile(hf)
        assert g.npages == hf.npages
        assert g.cluster_key == ("state",)


class TestExpectedRuns:
    def test_limits(self):
        assert expected_runs(0, 100) == 0.0
        assert expected_runs(100, 100) == 1.0
        assert expected_runs(1, 100) == pytest.approx(1.0)

    def test_middle_is_many(self):
        assert expected_runs(50, 100) == pytest.approx(25.5)


class TestCorrelationAwareModel:
    def test_uncovered_query_is_infinite(self, stats, disk):
        model = CorrelationAwareCostModel(stats, disk)
        q = Query("q", "people", [EqPredicate("nope", 1)])
        assert model.query_seconds(geom(stats, disk, ("state",)), q) == float("inf")

    def test_never_worse_than_full_scan(self, stats, disk):
        model = CorrelationAwareCostModel(stats, disk)
        g = geom(stats, disk, ("salary",))
        q = Query("q", "people", [EqPredicate("city", 123)])
        full = g.full_scan_s + disk.seek_cost_s
        assert model.query_seconds(g, q) <= full + 1e-12

    def test_correlated_clustering_estimated_cheaper(self, stats, disk):
        """The model must prefer clusterings correlated with predicates —
        the property the whole designer rests on."""
        model = CorrelationAwareCostModel(stats, disk)
        q = Query("q", "people", [EqPredicate("city", 123)])
        corr = model.query_seconds(geom(stats, disk, ("state",)), q)
        uncorr = model.query_seconds(geom(stats, disk, ("salary",)), q)
        assert corr < uncorr

    def test_clustered_prefix_beats_cm(self, stats, disk):
        model = CorrelationAwareCostModel(stats, disk)
        q = Query("q", "people", [EqPredicate("state", 7)])
        est = model.explain(geom(stats, disk, ("state",)), q)
        assert est.plan.startswith("clustered")
        assert est.fragments == pytest.approx(1.0, abs=1.0)

    def test_use_cm_flag_disables_cm_plans(self, stats, disk):
        with_cm = CorrelationAwareCostModel(stats, disk, use_cm=True)
        without = CorrelationAwareCostModel(stats, disk, use_cm=False)
        g = geom(stats, disk, ("state",))
        q = Query("q", "people", [EqPredicate("city", 123)])
        assert with_cm.query_seconds(g, q) <= without.query_seconds(g, q)
        assert without.explain(g, q).plan == "full_scan"

    def test_secondary_btree_plan_tracks_clustering(self, disk):
        # Wide rows, so scattered matches out-distance the readahead gap
        # (narrow rows genuinely coalesce into one fragment either way),
        # and a deep synopsis so the 1/1000 predicate leaves enough sample
        # matches for the layout estimator.
        from tests.conftest import make_wide_people

        wide = make_wide_people(n=120_000, seed=4)
        deep = TableStatistics(wide, synopsis_rows=24_000)
        model = CorrelationAwareCostModel(deep, disk)
        q = Query("q", "people", [EqPredicate("city", 123)])
        attrs = tuple(wide.column_names)
        corr = model.secondary_btree_plan(
            ObjectGeometry.from_attrs(deep, disk, attrs, ("state",)), q, ("city",)
        )
        uncorr = model.secondary_btree_plan(
            ObjectGeometry.from_attrs(deep, disk, attrs, ("salary",)), q, ("city",)
        )
        assert corr.seconds < uncorr.seconds
        assert corr.fragments < uncorr.fragments

    def test_model_close_to_simulator(self, people, stats, disk):
        """Model estimates should land within a small factor of measured
        simulated runtimes — the CORADD-Model ~= CORADD property."""
        from repro.storage.access import clustered_scan

        model = CorrelationAwareCostModel(stats, disk)
        hf = HeapFile(people.project(list(ATTRS)), ("state",), disk)
        q = Query("q", "people", [EqPredicate("state", 7)])
        measured = clustered_scan(hf, q).seconds
        estimated = model.query_seconds(ObjectGeometry.from_heapfile(hf), q)
        assert estimated == pytest.approx(measured, rel=1.0)


class TestPriceMemo:
    """``query_seconds`` memoises on the model, by content."""

    Q = Query(
        "q", "people", [EqPredicate("city", 123)], [Aggregate("sum", ("salary",))]
    )

    def test_second_call_is_a_lookup(self, stats, disk, monkeypatch):
        from repro.costmodel import base

        model = CorrelationAwareCostModel(stats, disk)
        g = geom(stats, disk, ("state",))
        first = model.query_seconds(g, self.Q)
        assert first == model.explain(g, self.Q).seconds

        def no_work(*args, **kwargs):
            raise AssertionError("a memoised price recomputed or allocated")

        monkeypatch.setattr(TableStatistics, "estimate_layout", no_work)
        monkeypatch.setattr(CorrelationAwareCostModel, "_best_plan", no_work)
        monkeypatch.setattr(base.PlanEstimate, "__init__", no_work)
        assert model.query_seconds(g, self.Q) is first
        # The same content under another name, weight and geometry object.
        twin = Query(
            "other", "people", self.Q.predicates, self.Q.aggregates, frequency=9.0
        )
        assert model.query_seconds(geom(stats, disk, ("state",)), twin) is first
        assert len(model._prices) == 1

    def test_content_not_name_is_the_key(self, stats, disk):
        model = CorrelationAwareCostModel(stats, disk)
        g = geom(stats, disk, ("state",))
        narrow = Query(
            "same", "people", [EqPredicate("city", 123), EqPredicate("state", 6)]
        )
        wide = Query("same", "people", [EqPredicate("state", 6)])
        fresh = CorrelationAwareCostModel(stats, disk)
        assert model.query_seconds(g, narrow) != model.query_seconds(g, wide)
        assert model.query_seconds(g, wide) == fresh.query_seconds(g, wide)
        # Another key, another row width or another file size is another price.
        assert len(model._prices) == 2
        model.query_seconds(geom(stats, disk, ("salary",)), wide)
        narrower = ObjectGeometry.from_attrs(
            stats, disk, ("state", "city"), ("state",)
        )
        model.query_seconds(narrower, wide)
        assert len(model._prices) == 4

    def test_uncovered_is_infinite_and_not_stored(self, stats, disk):
        model = CorrelationAwareCostModel(stats, disk)
        g = ObjectGeometry.from_attrs(stats, disk, ("state", "region"), ("state",))
        assert model.query_seconds(g, self.Q) == float("inf")
        assert model._prices == {}

    def test_models_over_different_statistics_never_share(self, stats, disk):
        other_stats = TableStatistics(
            make_people(n=60_000, seed=5), synopsis_rows=6_000
        )
        a = CorrelationAwareCostModel(stats, disk)
        b = CorrelationAwareCostModel(other_stats, disk)
        assert a._prices is not b._prices
        price_a = a.query_seconds(geom(stats, disk, ("state",)), self.Q)
        assert b._prices == {}
        price_b = b.query_seconds(geom(other_stats, disk, ("state",)), self.Q)
        assert price_b == CorrelationAwareCostModel(other_stats, disk).explain(
            geom(other_stats, disk, ("state",)), self.Q
        ).seconds
        assert price_a == a.explain(geom(stats, disk, ("state",)), self.Q).seconds

    def test_heapfile_geometry_of_other_size_is_priced_apart(
        self, people, stats, disk
    ):
        """A geometry read off a physical file need not match the model's
        own row count; its pages and height are part of the key."""
        model = CorrelationAwareCostModel(stats, disk)
        half = people.select(slice(0, people.nrows // 2)).project(list(ATTRS))
        g_half = ObjectGeometry.from_heapfile(HeapFile(half, ("state",), disk))
        g_full = geom(stats, disk, ("state",))
        assert g_half.row_bytes == g_full.row_bytes
        assert g_half.npages < g_full.npages
        price_half = model.query_seconds(g_half, self.Q)
        assert model.query_seconds(g_full, self.Q) > price_half
        assert price_half == model.explain(g_half, self.Q).seconds


class TestObliviousModel:
    def test_cardenas_limits(self):
        assert cardenas_pages(100, 0) == 0.0
        assert cardenas_pages(100, 1) == pytest.approx(1.0)
        assert cardenas_pages(100, 10_000) == pytest.approx(100.0, rel=0.01)

    def test_flat_across_clusterings(self, stats, disk):
        """Figure 10's defining property: identical secondary-plan estimates
        for every clustered key."""
        model = ObliviousCostModel(stats, disk)
        q = Query("q", "people", [EqPredicate("city", 123)])
        estimates = {
            model.secondary_index_plan(geom(stats, disk, key), q).seconds
            for key in (("state",), ("salary",), ("city",), ("region",))
        }
        assert len(estimates) == 1

    def test_independence_assumption(self, stats, disk):
        """Conjunctive selectivity is multiplied even when predicates are
        redundant (city implies state)."""
        model = ObliviousCostModel(stats, disk)
        q_both = Query(
            "q", "people", [EqPredicate("city", 123), EqPredicate("state", 6)]
        )
        q_city = Query("q2", "people", [EqPredicate("city", 123)])
        g = geom(stats, disk, ("region",))
        both = model.secondary_index_plan(g, q_both)
        city = model.secondary_index_plan(g, q_city)
        # Redundant predicate shrinks the oblivious estimate (wrongly).
        assert both.seconds < city.seconds

    def test_no_seek_penalty_makes_it_optimistic(self, people, stats, disk):
        """The oblivious estimate must undercut the real scattered scan."""
        from repro.storage.access import secondary_btree_scan

        model = ObliviousCostModel(stats, disk)
        hf = HeapFile(people.project(list(ATTRS)), ("salary",), disk)
        q = Query("q", "people", [EqPredicate("city", 123)])
        real = secondary_btree_scan(hf, q, ("city",)).seconds
        est = model.secondary_index_plan(ObjectGeometry.from_heapfile(hf), q).seconds
        assert est < real

    def test_plan_options_structure(self, stats, disk):
        model = ObliviousCostModel(stats, disk)
        g = geom(stats, disk, ("state",))
        q = Query("q", "people", [EqPredicate("state", 3), EqPredicate("city", 70)])
        options = model.plan_options(g, q, btree_keys=(("city",),))
        kinds = {kind for kind, _, _ in options}
        assert kinds == {"full", "clustered", "secondary"}

    def test_uncovered_is_infinite(self, stats, disk):
        model = ObliviousCostModel(stats, disk)
        q = Query("q", "people", [EqPredicate("nope", 1)])
        assert model.query_seconds(geom(stats, disk, ("state",)), q) == float("inf")
