"""Refresh streams, maintenance-aware design, transitions, solver satellites.

Covers the update pipeline above the storage layer:

* :class:`~repro.workloads.refresh.RefreshStream` determinism and shape;
* the maintenance cost model's locality signal and the ILP's update/query
  mix knob (``update_weight=0`` provably inert, heavy mixes provably
  narrower);
* transition execution: refresh-off bit-identity with
  :meth:`~repro.design.migration.DesignDiff.apply`, and benefit-per-byte
  deployment order never scoring worse than its reverse;
* the HiGHS fix-and-polish warm start (same optimum as a cold solve, polish
  short-circuit when the LP bound certifies it);
* the incremental k-means grouping memo (bit-identical on unchanged cells).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.grouping import GroupingMemo, enumerate_query_groups
from repro.design.ilp_formulation import build_design_ilp, choose_candidates
from repro.design.kmeans import kmeans
from repro.design.maintenance import MaintenanceModel, MaintenanceTable, arrival_locality
from repro.design.migration import (
    DesignDiff,
    execute_transition,
    score_deployment_order,
)
from repro.engine import EvalSession, use_session
from repro.ilp.solver import fix_and_polish, solve
from repro.relational.query import Workload
from repro.storage.executor import PhysicalDatabase
from repro.storage.update import RefreshExecutor
from repro.workloads.refresh import RefreshStream
from repro.workloads.registry import make

CONFIG = dict(t0=1, alphas=(0.0, 0.25), use_feedback=False)


@pytest.fixture(scope="module")
def inst():
    return make(
        "ssb-refresh",
        lineorder_rows=6_000,
        seed=3,
        rounds=2,
        insert_fraction=0.04,
        delete_fraction=0.02,
    )


@pytest.fixture(scope="module")
def budget(inst):
    return int(inst.total_base_bytes() * 0.6)


def _designer(inst, workload=None, **overrides):
    return CoraddDesigner(
        inst.flat_tables,
        workload if workload is not None else inst.workload,
        inst.primary_keys,
        inst.fk_attrs,
        config=DesignerConfig(**{**CONFIG, **overrides}),
    )


# -------------------------------------------------------------- refresh streams


class TestRefreshStream:
    def test_deterministic(self, inst):
        flat = inst.flat_tables["lineorder"]
        streams = [
            RefreshStream(
                flat, "lineorder", ("orderkey", "linenumber"), "orderdate",
                rounds=3, insert_fraction=0.03, delete_fraction=0.01, seed=5,
            )
            for _ in range(2)
        ]
        a, b = streams[0].batches(), streams[1].batches()
        assert len(a) == len(b) == 6  # insert + delete per round
        for ba, bb in zip(a, b):
            assert ba.kind == bb.kind and ba.fact == bb.fact
            if ba.kind == "insert":
                for name in ba.columns:
                    assert np.array_equal(ba.columns[name], bb.columns[name])
            else:
                assert ba.delete_predicates == bb.delete_predicates

    def test_seed_changes_content(self, inst):
        flat = inst.flat_tables["lineorder"]
        mk = lambda s: RefreshStream(
            flat, "lineorder", ("orderkey", "linenumber"), "orderdate",
            rounds=1, insert_fraction=0.03, seed=s,
        ).batches()[0]
        assert not np.array_equal(
            mk(0).columns["custkey"], mk(1).columns["custkey"]
        )

    def test_insert_keys_are_fresh_and_monotone(self, inst):
        flat = inst.flat_tables["lineorder"]
        stream = RefreshStream(
            flat, "lineorder", ("orderkey", "linenumber"), "orderdate",
            rounds=2, insert_fraction=0.03, delete_fraction=0.0,
        )
        max_existing = int(flat.column("orderkey").max())
        seen = []
        for batch in stream:
            keys = batch.columns["orderkey"]
            assert keys.min() > max_existing
            assert np.all(np.diff(keys) > 0)
            seen.append(keys)
        assert seen[1].min() > seen[0].max()  # batches keep advancing

    def test_inserts_sample_recent_band(self, inst):
        flat = inst.flat_tables["lineorder"]
        stream = RefreshStream(
            flat, "lineorder", ("orderkey", "linenumber"), "orderdate",
            rounds=1, insert_fraction=0.05, recency_quantile=0.9,
        )
        batch = stream.batches()[0]
        cutoff = np.quantile(flat.column("orderdate"), 0.9)
        assert batch.columns["orderdate"].min() >= cutoff

    def test_delete_thresholds_advance(self, inst):
        flat = inst.flat_tables["lineorder"]
        stream = RefreshStream(
            flat, "lineorder", ("orderkey", "linenumber"), "orderdate",
            rounds=3, insert_fraction=0.01, delete_fraction=0.02,
        )
        thresholds = [
            b.delete_predicates[0].hi for b in stream if b.kind == "delete"
        ]
        assert thresholds == sorted(thresholds)
        assert len(set(thresholds)) == len(thresholds)

    def test_registry_variants_attach_streams(self):
        for name, fact in (("ssb-refresh", "lineorder"), ("tpch-refresh", "lineitem")):
            bench = make(name, scale=0.05, rounds=2)
            assert bench.refresh is not None
            assert bench.refresh.fact == fact
            assert len(bench.refresh.batches()) >= 2


# ------------------------------------------------------- maintenance-aware ILP


class TestMaintenanceAwareDesign:
    def test_arrival_locality_signal(self, inst):
        flat = inst.flat_tables["lineorder"]
        n = flat.nrows
        pos = np.arange(n)
        assert arrival_locality(pos, flat.column("orderkey")) > 0.99
        assert arrival_locality(pos, flat.column("orderdate")) > 0.9
        assert arrival_locality(pos, flat.column("custkey")) < 0.3

    def test_zero_weight_is_bit_identical(self, inst, budget):
        query_only = _designer(inst).design(budget)
        weighted_zero = _designer(inst, update_weight=0.0).design(budget)
        assert query_only.ilp.chosen_ids == weighted_zero.ilp.chosen_ids
        assert query_only.ilp.objective == weighted_zero.ilp.objective
        assert query_only.ilp.assignment == weighted_zero.ilp.assignment
        assert weighted_zero.ilp.maintenance_seconds == 0.0

    def test_zero_weight_table_matches_no_table(self, inst, budget):
        designer = _designer(inst)
        problem = designer.problem(budget)
        assert problem.maintenance is None
        model = build_design_ilp(problem)
        stats = designer.state.stats["lineorder"]
        table = MaintenanceTable(
            {"lineorder": MaintenanceModel(stats, designer.disk)}, 0.0
        )
        problem.maintenance = table
        model_zero = build_design_ilp(problem)
        assert {
            name: var.obj for name, var in model.variables.items()
        } == {name: var.obj for name, var in model_zero.variables.items()}

    def test_update_heavy_mix_narrows_the_design(self, inst, budget):
        query_only = _designer(inst).design(budget)
        heavy = _designer(inst, update_weight=1.0).design(budget)
        assert query_only.chosen, "fixture must choose objects when read-only"
        assert heavy.size_bytes < query_only.size_bytes
        # And the charged maintenance reflects the model, not zero.
        mid = _designer(inst, update_weight=0.02).design(budget)
        if mid.chosen:
            assert mid.ilp.maintenance_seconds > 0.0

    def test_maintenance_prefers_correlated_clusterings(self, inst, budget):
        designer = _designer(inst)
        designer.enumerate()
        stats = designer.state.stats["lineorder"]
        model = MaintenanceModel(stats, designer.disk, pool_pages=1_024)
        mvs = [c for c in designer.state.candidates if c.kind == "mv"]
        by_key = {}
        for cand in mvs:
            by_key.setdefault(cand.cluster_key[:1], cand)
        correlated = [
            model.candidate_seconds(c, 10_000)
            for k, c in by_key.items()
            if k and k[0] in ("orderkey", "orderdate")
        ]
        uncorrelated = [
            model.candidate_seconds(c, 10_000)
            for k, c in by_key.items()
            if k and k[0] in ("custkey", "partkey", "suppkey")
        ]
        if correlated and uncorrelated:
            assert min(uncorrelated) > max(correlated)


# ------------------------------------------------------------------ transitions


class TestTransitions:
    def _two_phase(self, inst, budget, session):
        queries = list(inst.workload)
        designer = _designer(inst, workload=Workload("p0", queries[:8]))
        d0 = designer.design(budget)
        db = d0.materialize(session)
        d1 = designer.update(Workload("p1", queries[3:12]), budget)
        return d0, d1, db

    def test_refresh_off_transition_bit_identical_to_apply(self, inst, budget):
        session = EvalSession()
        with use_session(session):
            d0, d1, db = self._two_phase(inst, budget, session)
            db_apply = PhysicalDatabase()
            db_apply.objects = dict(db.objects)
            db_exec = PhysicalDatabase()
            db_exec.objects = dict(db.objects)
            ref = DesignDiff(d0, d1).apply(db_apply, session=session)
            report = execute_transition(
                DesignDiff(d0, d1), db_exec, session=session
            )
            assert list(ref.objects) == list(report.final_db.objects)
            for q in d1.workload:
                a = ref.run(q)
                b = report.final_db.run(q)
                assert a.object_name == b.object_name
                assert a.plan == b.plan
                assert a.result.cost == b.result.cost
                assert np.array_equal(a.result.mask, b.result.mask)

    def test_bpb_order_never_scores_worse_than_reverse(self, inst, budget):
        session = EvalSession()
        with use_session(session):
            # A budget *increase* over an unchanged workload: every build's
            # benefit is well-defined (both designs priced every query), the
            # regime where benefit-per-byte ordering is meaningful.
            designer = _designer(inst)
            d0 = designer.design(int(budget * 0.2))
            db = d0.materialize(session)
            d1 = designer.design(budget)
            diff = DesignDiff(d0, d1)
            plan = diff.plan()
            if len(plan.builds) < 2:
                pytest.skip("fixture produced fewer than 2 builds")
            forward = score_deployment_order(diff, db, session=session)
            reverse = score_deployment_order(
                diff, db, order=list(reversed(forward.order)), session=session
            )
            assert forward.query_seconds <= reverse.query_seconds + 1e-12
            # Scoring is deterministic.
            again = score_deployment_order(diff, db, session=session)
            assert again.query_seconds == forward.query_seconds

    def test_transition_with_refreshes_stays_correct(self, inst, budget):
        session = EvalSession()
        with use_session(session):
            d0, d1, db = self._two_phase(inst, budget, session)
            executor = RefreshExecutor(db, pool_pages=2_048, session=session)
            report = execute_transition(
                DesignDiff(d0, d1),
                db,
                session=session,
                refreshes=inst.refresh.batches(),
                refresh_executor=executor,
            )
            assert report.refresh_seconds > 0.0
            final = report.final_db
            base = final.object("lineorder").heapfile
            assert base.version > 0  # mutations really landed mid-migration
            for q in d1.workload:
                choice = final.run(q)
                obj = final.object(choice.object_name)
                got = set(
                    obj.heapfile.source_rowids[choice.result.mask].tolist()
                )
                mask = q.mask(base.table)
                if base.live is not None:
                    mask = mask & base.live
                want = set(base.source_rowids[mask].tolist())
                assert got == want, q.name

    def test_order_validation(self, inst, budget):
        session = EvalSession()
        with use_session(session):
            d0, d1, db = self._two_phase(inst, budget, session)
            diff = DesignDiff(d0, d1)
            if not diff.plan().builds:
                pytest.skip("no builds to misorder")
            with pytest.raises(ValueError):
                execute_transition(
                    diff, db, session=session, order=["not-a-build"]
                )


# ---------------------------------------------------------------- fix & polish


class TestFixAndPolish:
    def test_scipy_warm_equals_cold(self, inst, budget):
        from repro.design.ilp_formulation import incumbent_from_chosen

        designer = _designer(inst)
        problem = designer.problem(budget)
        chains = problem.chains()
        # The pool holds twins, so the merged-column path is the one run.
        assert any(cid != rep for cid, rep in chains.representative.items())
        cold = choose_candidates(problem)
        model = build_design_ilp(problem, chains)
        incumbent = incumbent_from_chosen(problem, model, cold.chosen_ids)
        assert model.is_feasible(incumbent)
        assert model.evaluate(incumbent) == pytest.approx(
            cold.objective, rel=1e-9
        )
        warm = choose_candidates(problem, warm_start=cold.chosen_ids)
        assert warm.chosen_ids == cold.chosen_ids
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_polish_result_is_optimal_on_design_problem(self, inst, budget):
        from repro.design.ilp_formulation import incumbent_from_chosen

        designer = _designer(inst)
        problem = designer.problem(budget)
        model = build_design_ilp(problem)
        cold = choose_candidates(problem)
        incumbent = incumbent_from_chosen(problem, model, cold.chosen_ids)
        solution = solve(model, warm_start=incumbent)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(cold.objective, abs=1e-9)
        # Whether the polish short-circuit fired (LP bound tight) or the
        # full solve ran, the path must be one of the two warm outcomes.
        assert solution.backend in ("scipy", "scipy-polish")

    def test_polish_short_circuits_on_tight_relaxation(self):
        from repro.ilp.model import MILPModel

        # A model whose LP relaxation is integral: an optimal incumbent must
        # be certified by the bound and skip the full MILP entirely.
        model = MILPModel("tight")
        model.add_binary("y[a]", obj=-2.0)
        model.add_binary("y[b]", obj=-1.0)
        model.add_constraint({"y[a]": 1.0}, "<=", 1.0, name="ca")
        model.add_constraint({"y[b]": 1.0}, "<=", 1.0, name="cb")
        incumbent = {"y[a]": 1.0, "y[b]": 1.0}
        solution = solve(model, warm_start=incumbent)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(-3.0, abs=1e-9)
        assert solution.backend == "scipy-polish"

    def test_polish_bounds_above_optimum(self, inst, budget):
        designer = _designer(inst)
        problem = designer.problem(budget)
        model = build_design_ilp(problem)
        from repro.design.ilp_formulation import incumbent_from_chosen

        # An arbitrary feasible-but-poor incumbent: choose nothing.
        incumbent = incumbent_from_chosen(problem, model, [])
        polished = fix_and_polish(model, incumbent)
        cold = choose_candidates(problem)
        assert polished.status == "optimal"
        assert polished.objective >= cold.objective - 1e-9
        assert polished.objective <= model.evaluate(incumbent) + 1e-9

    def test_infeasible_incumbent_falls_back(self, inst, budget):
        designer = _designer(inst)
        problem = designer.problem(budget)
        model = build_design_ilp(problem)
        y_vars = [n for n in model.variables if n.startswith("y[")]
        if not y_vars:
            pytest.skip("no candidates")
        # All candidates at once blows the budget: infeasible point.
        bogus = {name: 1.0 for name in y_vars}
        cold = choose_candidates(problem)
        solution = solve(model, warm_start=bogus)
        assert solution.objective == pytest.approx(cold.objective, abs=1e-9)


# ------------------------------------------------------------- grouping memo


class TestGroupingMemo:
    def _inputs(self, inst, names_slice):
        designer = _designer(inst)
        enumerator = designer.state.enumerators[0]
        queries = enumerator.queries[names_slice]
        from repro.design.selectivity import build_selectivity_vectors

        vectors = build_selectivity_vectors(queries, enumerator.stats)
        return queries, vectors, enumerator.stats

    def test_unchanged_cells_reuse_bit_identically(self, inst):
        queries, vectors, stats = self._inputs(inst, slice(0, 8))
        kwargs = dict(alphas=(0.0, 0.25), seed=0)
        cold = enumerate_query_groups(queries, vectors, stats, **kwargs)
        memo = GroupingMemo()
        first = enumerate_query_groups(
            queries, vectors, stats, memo=memo, **kwargs
        )
        assert first == cold
        slots_digests = {
            slot: s.digest for slot, s in memo.slots.items()
        }
        second = enumerate_query_groups(
            queries, vectors, stats, memo=memo, **kwargs
        )
        assert second == cold  # replayed from the memo, bit-identically
        assert {
            slot: s.digest for slot, s in memo.slots.items()
        } == slots_digests

    def test_drifted_cells_warm_seed_and_stay_valid(self, inst):
        queries, vectors, stats = self._inputs(inst, slice(0, 8))
        memo = GroupingMemo()
        kwargs = dict(alphas=(0.0, 0.25), seed=0)
        enumerate_query_groups(queries, vectors, stats, memo=memo, **kwargs)
        drifted, dvectors, _ = self._inputs(inst, slice(2, 10))
        groups = enumerate_query_groups(
            drifted, dvectors, stats, memo=memo, **kwargs
        )
        names = {q.name for q in drifted}
        for name in names:
            assert frozenset([name]) in groups  # singletons always present
        assert frozenset(names) in groups
        for group in groups:
            assert group <= names  # no stale queries leak from the memo

    def test_kmeans_init_centers_deterministic(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(40, 4))
        base = kmeans(points, 4, seed=1)
        warm1 = kmeans(points, 4, seed=1, init_centers=base.centers)
        warm2 = kmeans(points, 4, seed=1, init_centers=base.centers)
        assert np.array_equal(warm1.labels, warm2.labels)
        # Seeding with the converged centers reproduces the clustering.
        assert warm1.inertia <= base.inertia + 1e-9

    def test_kmeans_partial_centers_complete(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 3))
        partial = points[:2]
        result = kmeans(points, 5, seed=2, init_centers=partial)
        assert len(np.unique(result.labels)) <= 5
        assert result.centers.shape == (5, 3)
