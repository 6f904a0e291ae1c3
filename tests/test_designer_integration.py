"""Integration: the full CORADD pipeline, feedback, baselines, on small SSB."""

from dataclasses import replace

import pytest

from repro.design.baselines import CommercialDesigner, NaiveDesigner
from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.feedback import FeedbackConfig, run_ilp_feedback
from repro.design.mv import KIND_FACT_RECLUSTER, KIND_MV
from repro.experiments.harness import (
    evaluate_design,
    evaluate_design_model_guided,
    verify_answers,
)


@pytest.fixture(scope="module")
def designer(ssb_small):
    config = DesignerConfig(t0=1, alphas=(0.0, 0.25, 0.5), use_feedback=False)
    return CoraddDesigner(
        ssb_small.flat_tables,
        ssb_small.workload,
        ssb_small.primary_keys,
        ssb_small.fk_attrs,
        config=config,
    )


@pytest.fixture(scope="module")
def budget(ssb_small):
    return int(ssb_small.total_base_bytes())


@pytest.fixture(scope="module")
def design(designer, budget):
    return designer.design(budget)


@pytest.fixture(scope="module")
def evaluated(design):
    return evaluate_design(design)


class TestEnumeration:
    def test_pool_nonempty_and_pruned(self, designer):
        candidates = designer.enumerate()
        assert len(candidates) > 10
        stats = designer.enumeration_stats
        assert stats["after_domination"] <= stats["enumerated"]

    def test_pool_contains_both_kinds(self, designer):
        candidates = designer.enumerate()
        kinds = {c.kind for c in candidates}
        assert kinds == {KIND_MV, KIND_FACT_RECLUSTER}

    def test_runtimes_filled_for_covered_queries(self, designer, ssb_small):
        for cand in designer.enumerate():
            for q in ssb_small.workload:
                if cand.covers(q):
                    assert q.name in cand.runtimes
                    assert cand.runtimes[q.name] > 0

    def test_base_seconds_complete(self, designer, ssb_small):
        base = designer.base_seconds()
        assert set(base) == {q.name for q in ssb_small.workload}

    def test_unknown_fact_rejected(self, ssb_small):
        from repro.relational.query import EqPredicate, Query, Workload

        bad = Workload("bad", [Query("q", "nope", [EqPredicate("a", 1)])])
        with pytest.raises(KeyError):
            CoraddDesigner(
                ssb_small.flat_tables, bad, ssb_small.primary_keys
            )


class TestDesign:
    def test_within_budget(self, design, budget):
        assert design.size_bytes <= budget

    def test_expected_total_consistent(self, design):
        assert design.total_expected_seconds == pytest.approx(
            design.ilp.objective, rel=1e-6
        )

    def test_design_beats_base(self, design, designer):
        base_total = sum(designer.base_seconds().values())
        assert design.total_expected_seconds < base_total

    def test_budget_monotonicity(self, designer, budget):
        tight = designer.design(budget // 8)
        loose = designer.design(budget)
        assert loose.total_expected_seconds <= tight.total_expected_seconds + 1e-9

    def test_summary_mentions_every_object(self, design):
        text = design.summary()
        for cand in design.chosen:
            assert cand.cand_id in text

    def test_fingerprint_names_the_objects_not_the_ids(self, design):
        """Order and candidate ids do not enter the fingerprint; any
        object's shape does."""
        assert design.chosen
        renamed = [replace(c, cand_id=f"x{i}") for i, c in enumerate(design.chosen)]
        same = replace(design, chosen=list(reversed(renamed)))
        assert same.fingerprint() == design.fingerprint()
        first = design.chosen[0]
        moved = replace(first, cluster_key=first.cluster_key + first.attrs[:1])
        other = replace(design, chosen=[moved, *design.chosen[1:]])
        assert other.fingerprint() != design.fingerprint()


class TestMaterialization:
    def test_objects_exist(self, design, evaluated):
        db = design.materialize()
        assert "lineorder" in db.objects
        for cand in design.chosen:
            if cand.kind == KIND_MV:
                assert cand.cand_id in db.objects

    def test_answers_match_base_tables(self, design):
        """Every query must return identical aggregates on the design."""
        assert verify_answers(design)

    def test_real_close_to_model(self, evaluated):
        """CORADD-Model ~= CORADD (Figure 9's property)."""
        assert evaluated.real_total == pytest.approx(
            evaluated.model_total, rel=1.0
        )
        assert evaluated.real_total > 0

    def test_recluster_adds_pk_index(self, designer, ssb_small, budget):
        # Find any design that re-clusters the fact; the PK secondary index
        # must be attached for uniqueness maintenance.
        for frac in (0.15, 0.3, 0.5):
            d = designer.design(int(budget * frac))
            recluster = [c for c in d.chosen if c.kind == KIND_FACT_RECLUSTER]
            if recluster:
                db = d.materialize()
                fact_obj = db.object("lineorder")
                assert ssb_small.primary_keys["lineorder"] in fact_obj.btree_keys
                return
        pytest.skip("no budget in the sweep chose a fact re-clustering")


class TestFeedback:
    def test_feedback_never_worse(self, designer, budget, ssb_small):
        plain = designer.design(budget // 3, feedback=False)
        outcome = run_ilp_feedback(
            designer.enumerators,
            designer.enumerate(),
            list(ssb_small.workload),
            designer.base_seconds(),
            budget // 3,
            config=FeedbackConfig(max_iterations=2),
        )
        assert outcome.design.objective <= plain.ilp.objective + 1e-9
        assert outcome.iterations >= 1
        assert outcome.objective_history[0] >= outcome.objective_history[-1] - 1e-9

    def test_designer_feedback_flag(self, designer, budget):
        d = designer.design(budget // 3, feedback=True)
        assert d.size_bytes <= budget // 3


class TestBaselines:
    def test_naive_only_dedicated_and_reclusters(self, ssb_small, budget):
        naive = NaiveDesigner(
            ssb_small.flat_tables,
            ssb_small.workload,
            ssb_small.primary_keys,
            ssb_small.fk_attrs,
        )
        for cand in naive.enumerate():
            if cand.kind == KIND_MV:
                assert len(cand.group) == 1

    def test_naive_design_runs(self, ssb_small, budget):
        naive = NaiveDesigner(
            ssb_small.flat_tables,
            ssb_small.workload,
            ssb_small.primary_keys,
            ssb_small.fk_attrs,
        )
        d = naive.design(budget)
        assert d.size_bytes <= budget
        assert verify_answers(d)

    def test_commercial_design_runs_and_sizes_btrees(self, ssb_small, budget):
        commercial = CommercialDesigner(
            ssb_small.flat_tables, ssb_small.workload, ssb_small.primary_keys
        )
        pool = commercial.enumerate()
        assert any(c.btree_keys for c in pool if c.kind == KIND_MV)
        d = commercial.design(budget)
        assert d.size_bytes <= budget
        ev = evaluate_design_model_guided(d, commercial.oblivious_models)
        assert ev.real_total > 0

    def test_coradd_beats_commercial_for_real(self, designer, ssb_small, budget):
        """The headline claim, at small scale: CORADD's measured runtime is
        at least as good as the emulated commercial designer's."""
        coradd_eval = evaluate_design(designer.design(budget))
        commercial = CommercialDesigner(
            ssb_small.flat_tables, ssb_small.workload, ssb_small.primary_keys
        )
        commercial_eval = evaluate_design_model_guided(
            commercial.design(budget), commercial.oblivious_models
        )
        assert coradd_eval.real_total < commercial_eval.real_total
