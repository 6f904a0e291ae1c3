"""Designer configuration paths not covered by the main integration tests."""

from dataclasses import replace

import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.ilp_formulation import choose_candidates
from repro.design.mv import CandidateSet
from repro.experiments.harness import evaluate_design


@pytest.fixture(scope="module")
def budget(ssb_small):
    return int(ssb_small.total_base_bytes() * 0.6)


def make_designer(ssb_small, **config_kwargs):
    config = DesignerConfig(
        t0=1, alphas=(0.0, 0.5), use_feedback=False, **config_kwargs
    )
    return CoraddDesigner(
        ssb_small.flat_tables,
        ssb_small.workload,
        ssb_small.primary_keys,
        ssb_small.fk_attrs,
        config=config,
    )


class TestNoCMs:
    def test_design_without_cms(self, ssb_small, budget):
        """use_cms=False: the cost model prices clustered scans only and
        materialization attaches no CMs — a pure-MV designer."""
        designer = make_designer(ssb_small, use_cms=False)
        design = designer.design(budget)
        assert design.size_bytes <= budget
        db = design.materialize()
        assert all(not obj.cms for obj in db.objects.values())
        evaluated = evaluate_design(design)
        assert evaluated.real_total > 0

    def test_cms_improve_designs(self, ssb_small, budget):
        """With CMs available the model never expects worse designs —
        the CM plan space is a superset."""
        with_cms = make_designer(ssb_small, use_cms=True).design(budget)
        without = make_designer(ssb_small, use_cms=False).design(budget)
        assert (
            with_cms.total_expected_seconds
            <= without.total_expected_seconds + 1e-9
        )


class TestNoDominationPruning:
    def test_same_optimum_with_and_without_pruning(self, ssb_small, budget):
        """Domination pruning is an optimization, not an approximation:
        the ILP over the pruned pool and over the pool plus every archived
        (dominated) candidate reach the same optimum (Section 5.3's
        guarantee)."""
        designer = make_designer(ssb_small)
        pruned = designer.problem(budget)
        assert designer.state.archive, "fixture must prune something"
        everything = CandidateSet()
        for cand in [*pruned.candidates, *designer.state.archive.values()]:
            everything.add(cand)
        unpruned = replace(pruned, candidates=everything)
        assert choose_candidates(pruned).objective == pytest.approx(
            choose_candidates(unpruned).objective, rel=1e-9
        )


class TestMaxK:
    def test_max_k_caps_group_sweep(self, ssb_small, budget):
        capped = make_designer(ssb_small, max_k=3)
        design = capped.design(budget)
        assert design.size_bytes <= budget
        # Singletons are still seeded regardless of the cap.
        singles = [c for c in capped.enumerate() if len(c.group) == 1]
        assert singles
