"""Incremental redesign: staged state, warm starts, migration, drift.

The contract under test is *incremental-vs-scratch equivalence*:

* ``update()`` on an unchanged workload returns a bit-identical design
  (candidate ids, ILP objective, chosen set) to a from-scratch designer;
* warm-started (fix-and-polish) solves match cold solves exactly;
* migrating a materialized database through ``DesignDiff`` yields a
  database bit-identical (plans, costs, object set) to materializing the
  new design from scratch;
* drift streams are deterministic and their deltas consistent;
* the feedback-free ``design_ladder`` is bit-identical serial vs sharded.
"""

from __future__ import annotations

import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.dominate import dominates, reprune_incremental
from repro.design.ilp_formulation import (
    build_design_ilp,
    choose_candidates,
    incumbent_from_chosen,
)
from repro.design.migration import DesignDiff
from repro.engine import EvalSession, use_session
from repro.relational.query import Workload, WorkloadDelta
from repro.workloads.drift import WorkloadStream
from repro.workloads.registry import make

CONFIG = dict(t0=1, alphas=(0.0, 0.25, 0.5))


@pytest.fixture(scope="module")
def inst():
    return make("ssb", lineorder_rows=12_000, seed=3)


def _designer(inst, workload=None, **overrides):
    config = DesignerConfig(**{**CONFIG, **overrides})
    return CoraddDesigner(
        inst.flat_tables,
        workload if workload is not None else inst.workload,
        inst.primary_keys,
        inst.fk_attrs,
        config=config,
    )


@pytest.fixture(scope="module")
def budget(inst):
    return int(inst.total_base_bytes() * 0.6)


class TestStagedState:
    def test_stage_progression(self, inst, budget):
        designer = _designer(inst)
        assert designer.state.stage == "profiled"
        designer.enumerate()
        assert designer.state.stage == "enumerated"
        designer.design(budget)
        assert designer.state.stage == "solved"
        assert budget in designer.state.solutions
        assert budget in designer.state.designs

    def test_stages_are_resumable(self, inst, budget):
        designer = _designer(inst)
        designer.profile()
        stats_before = dict(designer.state.stats)
        designer.profile()  # no-op: nothing re-collected
        assert designer.state.stats == stats_before
        pool = designer.enumerate()
        assert designer.enumerate() is pool

    def test_archive_holds_dominated(self, inst):
        designer = _designer(inst)
        designer.enumerate()
        # Every archived candidate is dominated by something live.
        live = list(designer.state.candidates)
        for cand in designer.state.archive.values():
            assert any(dominates(a, cand) for a in live)


class TestUnchangedWorkloadEquivalence:
    def test_update_is_bit_identical_to_scratch(self, inst, budget):
        incremental = _designer(inst)
        first = incremental.design(budget)
        updated = incremental.update(inst.workload, budget)

        scratch = _designer(inst)
        fresh = scratch.design(budget)

        assert updated.ilp.chosen_ids == fresh.ilp.chosen_ids
        assert updated.ilp.objective == pytest.approx(fresh.ilp.objective, abs=1e-12)
        assert updated.ilp.assignment == fresh.ilp.assignment
        assert updated.expected_seconds == fresh.expected_seconds
        assert [c.cand_id for c in updated.chosen] == [
            c.cand_id for c in fresh.chosen
        ]
        assert updated.ilp.chosen_ids == first.ilp.chosen_ids

    def test_empty_delta_adds_no_candidates(self, inst, budget):
        designer = _designer(inst)
        designer.design(budget)
        pool_before = sorted(c.cand_id for c in designer.state.candidates)
        designer.update(WorkloadDelta.between(inst.workload, inst.workload), budget)
        assert sorted(c.cand_id for c in designer.state.candidates) == pool_before


class TestWarmStart:
    def test_warm_equals_cold_on_small_fixture(self, inst, budget):
        designer = _designer(inst)
        problem = designer.problem(budget)
        # The pool holds twins, so the merged-column path is the one run.
        assert any(
            cid != rep for cid, rep in problem.chains().representative.items()
        )
        cold = choose_candidates(problem)
        warm = choose_candidates(problem, warm_start=cold.chosen_ids)
        assert warm.chosen_ids == cold.chosen_ids
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.assignment == cold.assignment
        # A bogus warm start must not change the optimum either.
        bogus = choose_candidates(problem, warm_start=["no-such-candidate"])
        assert bogus.chosen_ids == cold.chosen_ids
        assert bogus.objective == pytest.approx(cold.objective, abs=1e-9)
        # Nor an infeasible one: the previous optimum under a budget that
        # no longer holds it is ignored, not polished.
        tight = designer.problem(min(
            problem.candidates.candidate(cid).size_bytes
            for cid in cold.chosen_ids
        ) - 1)
        tight_model = build_design_ilp(tight)
        assert not tight_model.is_feasible(
            incumbent_from_chosen(tight, tight_model, cold.chosen_ids)
        )
        cold_tight = choose_candidates(tight)
        warm_tight = choose_candidates(tight, warm_start=cold.chosen_ids)
        assert warm_tight.chosen_ids == cold_tight.chosen_ids
        assert warm_tight.objective == pytest.approx(
            cold_tight.objective, abs=1e-9
        )
        assert warm_tight.backend == "scipy"

    def test_incumbent_is_feasible_and_priced_right(self, inst, budget):
        designer = _designer(inst)
        problem = designer.problem(budget)
        solution = choose_candidates(problem)
        model = build_design_ilp(problem)
        incumbent = incumbent_from_chosen(problem, model, solution.chosen_ids)
        assert model.is_feasible(incumbent)
        assert model.evaluate(incumbent) == pytest.approx(
            solution.objective, rel=1e-9
        )

    def test_unchanged_resolve_is_polish_certified(self, inst):
        """Guards the warm-start plumbing end-to-end: on an unchanged
        problem whose LP bound is tight (a budget roomy enough that the
        knapsack row is slack) the previous optimum must reach the solver
        and be certified, skipping the cold solve."""
        designer = _designer(inst)
        problem = designer.problem(inst.total_base_bytes() * 4)
        cold = choose_candidates(problem)
        assert cold.backend == "scipy"
        warm = choose_candidates(problem, warm_start=cold.chosen_ids)
        assert warm.backend == "scipy-polish"
        assert warm.status == "optimal"
        assert warm.chosen_ids == cold.chosen_ids
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


class TestWorkloadDelta:
    def test_between_classifies_changes(self, inst):
        queries = list(inst.workload)
        old = Workload("old", queries[:6])
        new = Workload(
            "new",
            [queries[0].with_frequency(queries[0].frequency * 2.0)]
            + queries[2:6]
            + [queries[7]],
        )
        delta = WorkloadDelta.between(old, new)
        assert [q.name for q in delta.added] == [queries[7].name]
        assert delta.removed == (queries[1].name,)
        assert dict(delta.reweighted) == {
            queries[0].name: queries[0].frequency * 2.0
        }
        assert not delta.changed
        assert delta.workload is new
        assert WorkloadDelta.between(old, old).is_empty


class TestIncrementalDrift:
    def test_update_tracks_drift_and_matches_scratch_quality(self, inst, budget):
        queries = list(inst.workload)
        phase0 = Workload("p0", queries[:9])
        phase1 = Workload(
            "p1", queries[3:9] + [q.with_frequency(1.5) for q in queries[9:12]]
        )
        incremental = _designer(inst, workload=phase0)
        incremental.design(budget)
        updated = incremental.update(phase1, budget)

        assert set(updated.expected_seconds) == {q.name for q in phase1}
        assert updated.workload is incremental.workload
        for qname, cid in updated.ilp.assignment.items():
            if cid is not None:
                assert updated.ilp.chosen_ids.count(cid) == 1

        scratch = _designer(inst, workload=phase1)
        fresh = scratch.design(budget)
        # The incremental pool is a superset of what scratch enumerates for
        # the phase, so the incremental optimum can only be >= as good,
        # modulo feedback exploring different neighbourhoods: allow 1%.
        assert updated.total_expected_seconds <= fresh.total_expected_seconds * 1.01

    def test_update_keeps_candidate_ids_stable(self, inst, budget):
        queries = list(inst.workload)
        incremental = _designer(inst, workload=Workload("p0", queries[:8]))
        first = incremental.design(budget)
        by_id = {
            c.cand_id: c.signature() for c in incremental.state.candidates
        }
        incremental.update(Workload("p1", queries[2:10]), budget)
        for cand in incremental.state.candidates:
            if cand.cand_id in by_id:
                assert cand.signature() == by_id[cand.cand_id]
        assert first.ilp.chosen_ids  # the phase-0 design really chose things

    def test_changed_query_content_is_redesigned(self, inst, budget):
        """A query whose predicates change under the same name must be
        treated as remove+add: its groups re-design (the designed-group log
        is fingerprint-keyed) and every covering candidate is re-priced."""
        from repro.relational.query import RangePredicate

        queries = list(inst.workload)[:8]
        designer = _designer(inst, workload=Workload("p0", queries))
        designer.design(budget)
        victim = queries[0]
        pred = victim.predicates[0]
        lo, hi = pred.value_range()
        changed = type(victim)(
            victim.name,
            victim.fact_table,
            [RangePredicate(pred.attr, lo, hi + 1)] + victim.predicates[1:],
            aggregates=victim.aggregates,
            group_by=victim.group_by,
            frequency=victim.frequency,
        )
        delta = WorkloadDelta.between(
            designer.workload, Workload("p1", [changed] + queries[1:])
        )
        assert delta.changed == (victim.name,)
        updated = designer.update(delta, budget)
        enumerator = designer.state.enumerator_for(victim.fact_table)
        # The singleton group reads as designed under the *new* fingerprint.
        assert enumerator.has_designed(frozenset([victim.name]))
        # Every candidate covering the query was re-priced against the new
        # content (matching a from-scratch enumerator's estimate).
        for cand in designer.state.candidates:
            if victim.name in cand.runtimes:
                fresh = dict(cand.runtimes)
                enumerator.compute_runtimes(cand, [changed])
                assert cand.runtimes == fresh
        assert victim.name in updated.expected_seconds

    def test_reweight_only_delta_is_not_a_noop(self, inst, budget):
        """A weight change is a real delta: the affected fact re-enumerates
        with the new frequencies (weight feeds candidate generation —
        cluster-key interleaving, grouping), and the updated design matches
        a cold designer over the reweighted workload."""
        queries = list(inst.workload)[:8]
        phase0 = Workload("p0", queries)
        # Skew hard enough that the optimal physical design can change:
        # one query comes to dominate the weighted objective.
        reweighted = [queries[0].with_frequency(queries[0].frequency * 50.0)]
        reweighted += [q.with_frequency(q.frequency * 0.5) for q in queries[1:]]
        phase1 = Workload("p1", reweighted)

        designer = _designer(inst, workload=phase0)
        designer.design(budget)
        delta = WorkloadDelta.between(phase0, phase1)
        assert not delta.added and not delta.removed and not delta.changed
        assert len(delta.reweighted) == len(queries)

        updated = designer.update(delta, budget)
        # The enumerator saw the new weights — not the stale phase-0 ones.
        fact = queries[0].fact_table
        enumerator = designer.state.enumerator_for(fact)
        by_name = {q.name: q.frequency for q in phase1}
        for q in enumerator.queries:
            assert q.frequency == by_name[q.name]

        scratch = _designer(inst, workload=phase1)
        fresh = scratch.design(budget)
        assert (
            updated.total_expected_seconds
            <= fresh.total_expected_seconds * 1.01
        )

    def test_reprune_resurrects_when_dominator_leaves(self, inst, budget):
        designer = _designer(inst)
        designer.design(budget)
        candidates = designer.state.candidates
        archive = designer.state.archive
        if not archive:
            pytest.skip("nothing archived on this fixture")
        cand_id, parked = next(iter(archive.items()))
        dominators = [
            a.cand_id for a in candidates if dominates(a, parked)
        ]
        for dom in dominators:
            candidates.remove(dom)
        reprune_incremental(candidates, archive)
        # Either the candidate came back, or a *resurrected* peer dominates
        # it now — the invariant is that archived implies dominated-by-live.
        if any(c.cand_id == cand_id for c in candidates):
            assert cand_id not in archive
        else:
            live = list(candidates)
            assert any(dominates(a, archive[cand_id]) for a in live)


class TestMigration:
    def test_migrated_database_is_bit_identical(self, inst, budget):
        queries = list(inst.workload)
        phase0 = Workload("p0", queries[:9])
        phase1 = Workload("p1", queries[3:12])
        designer = _designer(inst, workload=phase0)
        session = EvalSession()
        with use_session(session):
            old_design = designer.design(budget)
            db = old_design.materialize(session)
            new_design = designer.update(phase1, budget)
            migrated = new_design.materialize(
                session, existing=db, previous=old_design
            )
        fresh = new_design.materialize(EvalSession())
        assert migrated is db
        assert list(migrated.objects) == list(fresh.objects)
        for q in phase1:
            got, want = migrated.run(q), fresh.run(q)
            assert got.seconds == want.seconds
            assert got.plan == want.plan
            assert got.object_name == want.object_name

    def test_plan_orders_builds_by_benefit_per_byte(self, inst, budget):
        queries = list(inst.workload)
        designer = _designer(inst, workload=Workload("p0", queries[:9]))
        old_design = designer.design(budget)
        new_design = designer.update(Workload("p1", queries[3:12]), budget)
        plan = DesignDiff(old_design, new_design).plan()
        ratios = [step.benefit_per_byte for step in plan.builds]
        assert ratios == sorted(ratios, reverse=True)
        old_names = {s.name for s in old_design.object_specs()}
        new_names = {s.name for s in new_design.object_specs()}
        for step in plan.drops:
            assert step.name in old_names
        for step in plan.builds:
            assert step.name in new_names
        # Kept objects appear in both designs with identical structure.
        for name in plan.kept:
            assert name in old_names and name in new_names
        assert plan.summary()

    @pytest.fixture(scope="class")
    def deployed(self, inst, budget):
        """One designed + materialized database for the error-path tests,
        which only read it (both raise before touching anything)."""
        design = _designer(inst).design(budget)
        return design, design.materialize()

    def test_materialize_existing_requires_previous(self, deployed):
        design, db = deployed
        with pytest.raises(ValueError):
            design.materialize(existing=db)

    def test_remove_unknown_object_raises(self, deployed):
        _design, db = deployed
        with pytest.raises(KeyError):
            db.remove("no-such-object")


class TestWorkloadStream:
    def test_deterministic_and_delta_consistent(self, inst):
        for _ in range(2):
            streams = [
                WorkloadStream(inst.workload, phases=4, seed=5) for _ in range(2)
            ]
            a, b = (s.phases() for s in streams)
            for pa, pb in zip(a, b):
                assert [q.name for q in pa.workload] == [q.name for q in pb.workload]
                assert [q.frequency for q in pa.workload] == [
                    q.frequency for q in pb.workload
                ]
        phases = WorkloadStream(
            inst.workload, phases=4, rotation=0.3, reweight=0.5, seed=5
        ).phases()
        assert phases[0].delta.is_empty
        for prev, phase in zip(phases, phases[1:]):
            recomputed = WorkloadDelta.between(prev.workload, phase.workload)
            assert tuple(q.name for q in recomputed.added) == tuple(
                q.name for q in phase.delta.added
            )
            assert recomputed.removed == phase.delta.removed
            assert recomputed.reweighted == phase.delta.reweighted
            assert len(phase.delta.added) == len(phase.delta.removed) > 0

    def test_drift_registry_variants(self):
        for name in ("ssb-drift", "tpch-drift"):
            tiny = make(name, scale=0.02, phases=3, augment_factor=2)
            assert tiny.stream is not None
            phases = tiny.stream.phases()
            assert len(phases) == 3
            assert [q.name for q in tiny.workload] == [
                q.name for q in phases[0].workload
            ]

    def test_knob_validation(self, inst):
        with pytest.raises(ValueError):
            WorkloadStream(inst.workload, phases=0)
        with pytest.raises(ValueError):
            WorkloadStream(inst.workload, rotation=1.5)
        with pytest.raises(ValueError):
            WorkloadStream(inst.workload, active_fraction=0.0)


class TestDesignLadder:
    def test_ladder_with_feedback_stays_serial_and_works(self, inst):
        budgets = [int(inst.total_base_bytes() * f) for f in (0.4, 0.8)]
        designer = _designer(inst)
        designs = designer.design_ladder(budgets)
        assert [d.budget_bytes for d in designs] == budgets
