"""Smoke tests: every paper experiment runs end to end at tiny scale and
produces the paper's qualitative shape; so do the experiments beyond the
paper, each holding its model-metric contract."""

import pytest

from repro.experiments.evolving import run_evolving
from repro.experiments.fig05_ilp_vs_greedy import run_fig05
from repro.experiments.fig06_ilp_scaling import run_fig06, synthetic_problem
from repro.experiments.fig07_feedback import run_fig07
from repro.experiments.fig09_apb import run_fig09
from repro.experiments.fig10_cost_model_error import run_fig10
from repro.experiments.fig11_ssb import run_fig11
from repro.experiments.fig14_maintenance import run_fig14
from repro.experiments.refresh_design import run_refresh_design
from repro.experiments.report import ExperimentResult, format_report
from repro.experiments.tables12_selectivity import run_tables12
from repro.experiments.tpch_design import run_tpch

# Design fingerprints (``Design.fingerprint()``) of the ladders below, per
# budget and designer.  A change that moves a design changes these, and has
# to say so here.
FIG09_DESIGNS = [
    ("520aa6f2523103a1", "7940894f84486031"),
    ("c7efded83accb468", "02ff5dbe6573b2e9"),
]
FIG11_DESIGNS = [("c39a2e151f7afe46", "1954c235219652e3", "abef54bf08a4dd4e")]
TPCH_DESIGNS = [
    ("3b2cd8e932349697", "3b2cd8e932349697"),
    ("11f8b7e9b03890be", "75941f92ef0e2d03"),
    ("e8bce38f9ef535d6", "5de3472ccf8734f8"),
]


class TestReport:
    def test_format_contains_rows_and_notes(self):
        r = ExperimentResult(
            name="x", title="T", columns=["a", "b"], paper_expectation="exp"
        )
        r.add_row(a=1, b=2.5)
        r.notes.append("hello")
        text = format_report(r)
        assert "X | T" in text
        assert "2.500" in text
        assert "note: hello" in text
        assert "paper: exp" in text

    def test_column_values(self):
        r = ExperimentResult(name="x", title="T", columns=["a"])
        r.add_row(a=1)
        r.add_row(a=2)
        assert r.column_values("a") == [1, 2]


class TestTables12:
    def test_shapes_and_propagation(self):
        t1, t2 = run_tables12(lineorder_rows=15_000)
        assert len(t1.rows) == 3
        # Table 1: yearmonth unpredicated in Q1.1.
        row11 = t1.rows[0]
        assert row11["yearmonth"] == 1.0
        # Table 2: propagation filled it in (~ year's selectivity).
        prop11 = t2.rows[0]
        assert prop11["yearmonth"] < 0.5
        # Q1.3 carries a (year, weeknum) composite.
        assert t2.rows[2]["year,weeknum"] is not None


class TestFig05:
    def test_greedy_never_better(self):
        r = run_fig05(
            lineorder_rows=15_000,
            fractions=(0.2, 0.6),
            t0=1,
            alphas=(0.0, 0.5),
        )
        for row in r.rows:
            assert row["greedy_expected"] >= row["ilp_expected"] - 1e-9


class TestFig06:
    def test_synthetic_problem_structure(self):
        p = synthetic_problem(50, n_queries=5, seed=1)
        assert len(p.candidates) == 50
        assert len(p.queries) == 5

    def test_scaling_rows(self):
        r = run_fig06(sizes=(100, 300), n_queries=5)
        assert [row["n_candidates"] for row in r.rows] == [100, 300]
        assert all(row["status"] == "optimal" for row in r.rows)


class TestFig07:
    def test_feedback_at_least_matches_ilp(self):
        r = run_fig07(lineorder_rows=10_000, n_queries=5, fractions=(0.3, 0.8))
        for row in r.rows:
            assert row["feedback_over_opt"] <= row["ilp_over_opt"] + 1e-6
            assert row["ilp_over_opt"] >= 1.0 - 1e-6


class TestFig09:
    def test_coradd_not_slower(self):
        r = run_fig09(
            actuals_rows=20_000, fractions=(0.5, 1.5), t0=1, use_feedback=False
        )
        assert len(r.rows) == 2
        # At the generous budget CORADD must win.
        assert r.rows[-1]["speedup"] >= 1.0
        assert [
            (row["coradd_design"], row["commercial_design"]) for row in r.rows
        ] == FIG09_DESIGNS


class TestFig10:
    def test_commercial_flat_and_real_spread(self):
        r = run_fig10(lineorder_rows=60_000, synopsis_rows=16_384)
        commercial = {round(row["commercial_model_s"], 9) for row in r.rows}
        assert len(commercial) == 1  # flat line
        reals = [row["real_s"] for row in r.rows]
        assert max(reals) / min(reals) > 5.0
        by_key = {row["clustering"]: row["real_s"] for row in r.rows}
        assert by_key["orderdate"] < by_key["custkey"]


class TestFig11:
    def test_three_designers_compared(self):
        r = run_fig11(
            lineorder_rows=15_000,
            fractions=(1.0,),
            t0=1,
            use_feedback=False,
            augment_factor=2,
        )
        row = r.rows[0]
        assert row["coradd_real"] <= row["commercial_real"]
        assert row["coradd_real"] > 0 and row["naive_real"] > 0
        assert [
            (row["coradd_design"], row["naive_design"], row["commercial_design"])
            for row in r.rows
        ] == FIG11_DESIGNS


class TestFig14:
    def test_knee_shape(self):
        r = run_fig14(n_inserts=20_000, pool_pages=2_048)
        slowdowns = [row["slowdown_vs_first"] for row in r.rows]
        assert slowdowns[0] == pytest.approx(1.0)
        assert slowdowns[-1] > 5.0
        hit_rates = [row["hit_rate"] for row in r.rows]
        assert hit_rates[0] > hit_rates[-1]


class TestTpch:
    def test_coradd_beats_commercial_at_every_budget(self):
        r = run_tpch(scale=0.02, fractions=(0.25, 0.5, 1.0), augment_factor=4)
        assert len(r.rows) == 3
        for row in r.rows:
            assert row["coradd_real"] < row["commercial_real"], row
        assert [
            (row["coradd_design"], row["commercial_design"]) for row in r.rows
        ] == TPCH_DESIGNS


class TestEvolving:
    def test_incremental_quality_within_one_percent_of_scratch(self):
        """``ssb-drift`` through ``WorkloadStream``, ``update()`` and
        ``DesignDiff`` migration: every phase's incremental design is
        within 1% of the from-scratch design."""
        r = run_evolving(benchmark="ssb-drift", scale=0.05, phases=3)
        assert [row["phase"] for row in r.rows] == [0, 1, 2]
        assert all(row["added"] > 0 for row in r.rows[1:])
        for row in r.rows:
            assert row["quality_ratio"] <= 1.01, row


class TestRefreshDesign:
    def test_maintenance_aware_design_never_loses(self):
        """At every update-heavy mix the maintenance-aware design's
        measured query+maintenance total is no worse than the query-only
        design's; at the heaviest mix it holds no more MV bytes."""
        weights = (0.0, 0.25, 1.0)
        r = run_refresh_design(
            scale=0.05, budget_fracs=(0.4, 0.8), update_weights=weights,
            rounds=2,
        )
        arms = {
            (row["budget_frac"], row["update_weight"], row["arm"]): row
            for row in r.rows
        }
        for budget in (0.4, 0.8):
            for w in weights[1:]:
                aware = arms[budget, w, "maintenance-aware"]
                only = arms[budget, w, "query-only"]
                assert aware["total_seconds"] <= only["total_seconds"] * 1.001
            heavy = weights[-1]
            assert (
                arms[budget, heavy, "maintenance-aware"]["mv_mb"]
                <= arms[budget, heavy, "query-only"]["mv_mb"] + 1e-9
            )
