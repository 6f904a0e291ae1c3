"""Statistics substrate: histograms, sampling, distinct estimation, FDs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.query import EqPredicate, InPredicate, RangePredicate
from repro.stats.correlation import CorrelationModel, strength
from repro.stats.distinct import (
    GibbonsDistinctSampler,
    adaptive_estimator,
    chao_estimator,
    exact_distinct,
    gee_estimator,
    gibbons_distinct,
    scale_distinct,
)
from repro.stats.histogram import EquiDepthHistogram, EquiWidthHistogram
from repro.stats.sampling import bernoulli_sample_indices, reservoir_sample_indices
from tests.conftest import make_people


class TestHistograms:
    def test_eq_estimate_uniform(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, 50_000)
        hist = EquiWidthHistogram(values, nbuckets=100)
        est = hist.estimate(EqPredicate("a", 42))
        assert est == pytest.approx(0.01, rel=0.3)

    def test_range_estimate_uniform(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, 50_000)
        hist = EquiWidthHistogram(values, nbuckets=50)
        est = hist.estimate(RangePredicate("a", 10, 29))
        assert est == pytest.approx(0.2, rel=0.2)

    def test_in_estimate_sums(self):
        values = np.repeat(np.arange(10), 100)
        hist = EquiWidthHistogram(values, nbuckets=10)
        est = hist.estimate(InPredicate("a", (1, 2)))
        assert est == pytest.approx(0.2, rel=0.4)

    def test_out_of_range_is_zero(self):
        hist = EquiWidthHistogram(np.arange(100), nbuckets=10)
        assert hist.estimate(EqPredicate("a", 1000)) == 0.0
        assert hist.estimate(RangePredicate("a", -50, -10)) == 0.0

    def test_empty_column(self):
        hist = EquiWidthHistogram(np.array([]), nbuckets=4)
        assert hist.estimate(EqPredicate("a", 1)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EquiWidthHistogram(np.arange(5), nbuckets=0)
        with pytest.raises(ValueError):
            EquiDepthHistogram(np.arange(5), nbuckets=0)
        with pytest.raises(TypeError):
            EquiWidthHistogram(np.arange(5)).estimate("not a predicate")  # type: ignore[arg-type]

    def test_equidepth_range(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(10, 40_000)  # skewed on purpose
        hist = EquiDepthHistogram(values, nbuckets=64)
        lo, hi = np.quantile(values, [0.25, 0.75])
        assert hist.range_fraction(lo, hi) == pytest.approx(0.5, abs=0.05)
        assert hist.range_fraction(-10, -1) == 0.0


class TestSampling:
    def test_reservoir_size_and_range(self):
        idx = reservoir_sample_indices(1000, 50, seed=1)
        assert len(idx) == 50
        assert len(np.unique(idx)) == 50
        assert idx.min() >= 0 and idx.max() < 1000
        assert (np.diff(idx) > 0).all()

    def test_reservoir_small_population(self):
        assert len(reservoir_sample_indices(5, 50)) == 5
        assert len(reservoir_sample_indices(0, 50)) == 0

    def test_reservoir_deterministic(self):
        a = reservoir_sample_indices(1000, 10, seed=9)
        b = reservoir_sample_indices(1000, 10, seed=9)
        assert np.array_equal(a, b)

    def test_reservoir_roughly_uniform(self):
        hits = np.zeros(100)
        for seed in range(200):
            hits[reservoir_sample_indices(100, 10, seed=seed)] += 1
        # Each index expected 20 hits; allow generous slack.
        assert hits.min() > 5
        assert hits.max() < 45

    def test_bernoulli_rate(self):
        idx = bernoulli_sample_indices(100_000, 0.1, seed=2)
        assert len(idx) == pytest.approx(10_000, rel=0.1)

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            bernoulli_sample_indices(10, 1.5)
        with pytest.raises(ValueError):
            reservoir_sample_indices(-1, 5)


class TestDistinctEstimators:
    def test_exact(self):
        assert exact_distinct(np.array([1, 1, 2, 3])) == 3
        assert exact_distinct(np.array([])) == 0

    def test_gee_full_sample_is_exact_when_no_singletons(self):
        values = np.repeat(np.arange(50), 4)
        assert gee_estimator(values, len(values)) == 50

    def test_gee_scales_singletons(self):
        sample = np.arange(100)  # all singletons
        est = gee_estimator(sample, 10_000)
        assert est == pytest.approx(np.sqrt(100) * 100)

    def test_chao_known_case(self):
        # 4 singletons, 2 doubletons, 1 tripleton: d=7, f1=4, f2=2.
        sample = np.array([1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 7])
        assert chao_estimator(sample) == pytest.approx(7 + 16 / 4)

    def test_estimators_reasonable_on_uniform(self):
        rng = np.random.default_rng(5)
        population = rng.integers(0, 1000, 100_000)
        true_d = exact_distinct(population)
        sample = rng.choice(population, 5_000, replace=False)
        for name in ("gee", "chao", "ae"):
            est = scale_distinct(sample, len(population), name)
            assert est == pytest.approx(true_d, rel=0.35), name

    def test_ae_clamped_to_feasible(self):
        sample = np.array([1, 2, 3])
        est = adaptive_estimator(sample, 10)
        assert 3 <= est <= 10

    def test_ae_no_singletons_returns_d(self):
        sample = np.repeat(np.arange(10), 3)
        assert adaptive_estimator(sample, 1000) == 10

    def test_ae_blends_its_parts_from_one_count(self, monkeypatch):
        """AE counts its sample once and still equals, to the last bit, the
        blend of the two public estimators (each of which counts for
        itself)."""
        from repro.stats import distinct

        rng = np.random.default_rng(5)
        population = rng.integers(0, 1000, 100_000)
        fixtures = [
            (rng.choice(population, 5_000, replace=False), len(population)),
            (np.array([1, 2, 3]), 10),
            (np.array([1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 7]), 1_000),
        ]
        for sample, n_total in fixtures:
            d, f = distinct._frequency_of_frequencies(sample)
            skew = int(f[0]) / d
            blend = (1.0 - skew) * chao_estimator(sample) + skew * gee_estimator(
                sample, n_total
            )
            counts = []
            original = distinct._frequency_of_frequencies
            monkeypatch.setattr(
                distinct,
                "_frequency_of_frequencies",
                lambda s: counts.append(len(s)) or original(s),
            )
            assert adaptive_estimator(sample, n_total) == float(
                min(max(blend, d), n_total)
            )
            assert counts == [len(sample)]
            monkeypatch.undo()

    def test_errors(self):
        with pytest.raises(ValueError):
            gee_estimator(np.arange(10), 5)
        with pytest.raises(ValueError):
            scale_distinct(np.arange(3), 100, "nope")

    def test_gibbons_accuracy(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 5_000, 200_000)
        true_d = exact_distinct(values)
        est = gibbons_distinct(values, max_size=1024)
        assert est == pytest.approx(true_d, rel=0.25)

    def test_gibbons_exact_when_small(self):
        values = np.arange(100)
        assert gibbons_distinct(values, max_size=1024) == 100

    def test_gibbons_incremental(self):
        sampler = GibbonsDistinctSampler(max_size=512)
        rng = np.random.default_rng(8)
        for _ in range(10):
            sampler.add_batch(rng.integers(0, 2_000, 10_000))
        assert sampler.estimate() == pytest.approx(2_000, rel=0.3)

    def test_gibbons_validation(self):
        with pytest.raises(ValueError):
            GibbonsDistinctSampler(0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
def test_estimators_at_least_observed(sample):
    """Every estimator must report at least the observed distinct count."""
    arr = np.array(sample)
    d = exact_distinct(arr)
    assert gee_estimator(arr, len(arr) * 10) >= d - 1e-9
    assert chao_estimator(arr) >= d - 1e-9
    assert adaptive_estimator(arr, len(arr) * 10) >= d - 1e-9


class TestCorrelation:
    def test_perfect_fd(self, ):
        people = make_people()
        assert strength(people, ("city",), ("state",)) == pytest.approx(1.0)
        assert strength(people, ("state",), ("region",)) == pytest.approx(1.0)

    def test_weak_direction(self):
        people = make_people()
        s = strength(people, ("state",), ("city",))
        # Each state fans out to ~20 cities.
        assert s == pytest.approx(1 / 20, rel=0.2)

    def test_no_correlation(self):
        people = make_people()
        s = strength(people, ("salary",), ("city",))
        assert s < 0.05

    def test_composite_determinant(self):
        people = make_people()
        s = strength(people, ("state", "city"), ("region",))
        assert s == pytest.approx(1.0)

    def test_empty_determinant_rejected(self):
        with pytest.raises(ValueError):
            strength(make_people(), (), ("state",))

    def test_model_caching_and_strong_pairs(self):
        people = make_people()
        model = CorrelationModel(people, attrs=("city", "state", "region", "salary"))
        s1 = model.strength(("city",), ("state",))
        s2 = model.strength(("city",), ("state",))
        assert s1 == s2 == pytest.approx(1.0)
        pairs = model.strong_pairs(threshold=0.9)
        directed = {(a, b) for a, b, _ in pairs}
        assert ("city", "state") in directed
        assert ("city", "region") in directed
        assert ("salary", "city") not in directed

    def test_sampled_strength_close_to_exact(self):
        people = make_people(n=50_000)
        sample = people.sample(4_000, seed=0)
        s = strength(sample, ("city",), ("state",), n_total=people.nrows, estimator="ae")
        assert s == pytest.approx(1.0, abs=0.15)


def test_both_zeros_are_one_key_value():
    """Regression: a single float column was keyed by its bit pattern, so
    ``-0.0`` and ``0.0`` counted as two values in ``distinct`` /
    ``distinct_among`` / ``Table.distinct_count`` while the sorted layout and
    every multi-column key held them as one group — and strengths read off
    the two disagreed with the truth."""
    from repro.stats.collector import TableStatistics
    from tests.test_table import make_table

    n = 10_000
    table = make_table(
        x=np.where(np.arange(n) % 2 == 0, 0.0, -0.0), y=np.arange(n) % 5
    )
    for synopsis_rows in (4096, n):  # a sample, and the table itself
        stats = TableStatistics(table, synopsis_rows=synopsis_rows)
        everything = np.ones(stats.synopsis.nrows, dtype=bool)
        assert stats.distinct(("x",)) == 1.0
        assert stats.distinct_among(everything, ("x",)) == 1.0
        assert stats.distinct(("x", "y")) == 5.0
        assert stats.strength(("x",), ("y",)) == pytest.approx(0.2)
        assert stats.corr.index.order(("x",)).ngroups == 1
    assert table.distinct_count(("x",)) == 1
    assert table.distinct_count(("x", "y")) == 5
    assert strength(table, ("x",), ("y",)) == pytest.approx(0.2)
    assert len(np.unique(table._key_codes(("x",)))) == 1
