"""The Section 5.1 design ILP: correctness of the formulation itself."""

import pytest

from repro.design.baselines import greedy_mk
from repro.design.ilp_formulation import (
    DesignProblem,
    build_design_ilp,
    choose_candidates,
    extract_design,
    incumbent_from_chosen,
)
from repro.ilp.solver import solve
from repro.design.mv import KIND_FACT_RECLUSTER, CandidateSet
from repro.relational.query import Aggregate, EqPredicate, Query
from tests.test_design_units import cand


def make_queries(names):
    return [
        Query(name, "f", [EqPredicate("a", i)], [Aggregate("sum", ("b",))])
        for i, name in enumerate(names)
    ]


def problem_of(cands, queries, base, budget) -> DesignProblem:
    cs = CandidateSet()
    for c in cands:
        assert cs.add(c) is not None
    return DesignProblem(cs, queries, base, budget)


def shared_problem() -> DesignProblem:
    queries = make_queries(["q1", "q2", "q3"])
    cands = [
        cand("m1", 60, {"q1": 1.0}, attrs=("a", "b")),
        cand("m2", 60, {"q2": 1.0}, attrs=("a", "b", "x")),
        cand("m3", 60, {"q3": 1.0}, attrs=("a", "b", "y")),
        cand("big", 100, {"q1": 4.0, "q2": 4.0, "q3": 4.0}, attrs=("a", "b", "z")),
    ]
    return problem_of(cands, queries, {"q1": 10.0, "q2": 10.0, "q3": 10.0}, 120)


def long_chain_problem() -> DesignProblem:
    queries = make_queries(["q1", "q2"])
    cands = [
        cand(f"m{i}", 20 + i, {"q1": 10.0 - i * 0.1, "q2": 9.0 - i * 0.05},
             attrs=("a", "b", f"x{i}"))
        for i in range(12)
    ]
    return problem_of(cands, queries, {"q1": 20.0, "q2": 20.0}, 70)


class TestChains:
    def test_chain_sorted_and_filtered(self):
        queries = make_queries(["q1"])
        p = problem_of(
            [
                cand("fast", 10, {"q1": 1.0}, attrs=("a", "b")),
                cand("slow", 10, {"q1": 5.0}, attrs=("a", "b", "x")),
                cand("useless", 10, {"q1": 50.0}, attrs=("a", "b", "y")),
            ],
            queries,
            {"q1": 10.0},
            100,
        )
        chain = p.chain_for(queries[0])
        assert [c.cand_id for _, c in chain] == ["fast", "slow"]

    @pytest.mark.parametrize("dense_limit", [64, 2])
    @pytest.mark.parametrize("make_problem", [shared_problem, long_chain_problem])
    def test_precomputed_chains_change_nothing(
        self, make_problem, dense_limit, monkeypatch
    ):
        """Model, extracted design and incumbent are the same whether each
        function derives the chains itself or is handed them — in the dense
        and in the prefix-sum encoding."""
        monkeypatch.setattr(
            "repro.design.ilp_formulation._DENSE_CHAIN_LIMIT", dense_limit
        )
        p = make_problem()
        chains = p.chains()
        assert chains == {q.name: p.chain_for(q) for q in p.queries}
        model = build_design_ilp(p)
        shared = build_design_ilp(p, chains)
        assert shared.variables == model.variables
        assert shared.constraints == model.constraints
        assert shared.obj_constant == model.obj_constant
        solution = solve(model)
        design = extract_design(p, solution, model)
        assert extract_design(p, solution, model, chains) == design
        chosen = choose_candidates(p)
        chosen.solve_seconds = design.solve_seconds  # the one timing field
        assert chosen == design
        assert incumbent_from_chosen(
            p, model, design.chosen_ids, chains
        ) == incumbent_from_chosen(p, model, design.chosen_ids)


class TestKnownOptima:
    def test_picks_best_within_budget(self):
        queries = make_queries(["q1", "q2"])
        p = problem_of(
            [
                cand("m1", 60, {"q1": 1.0}, attrs=("a", "b")),
                cand("m2", 60, {"q2": 1.0}, attrs=("a", "b", "x")),
                cand("shared", 80, {"q1": 3.0, "q2": 3.0}, attrs=("a", "b", "y")),
            ],
            queries,
            {"q1": 10.0, "q2": 10.0},
            100,
        )
        # Budget 100: can't take both dedicated (120); shared (80) total 6
        # beats one dedicated + base (11).
        design = choose_candidates(p)
        assert design.chosen_ids == ["shared"]
        assert design.objective == pytest.approx(6.0)
        assert design.assignment == {"q1": "shared", "q2": "shared"}

    def test_bigger_budget_prefers_dedicated_pair(self):
        queries = make_queries(["q1", "q2"])
        p = problem_of(
            [
                cand("m1", 60, {"q1": 1.0}, attrs=("a", "b")),
                cand("m2", 60, {"q2": 1.0}, attrs=("a", "b", "x")),
                cand("shared", 80, {"q1": 3.0, "q2": 3.0}, attrs=("a", "b", "y")),
            ],
            queries,
            {"q1": 10.0, "q2": 10.0},
            130,
        )
        design = choose_candidates(p)
        assert sorted(design.chosen_ids) == ["m1", "m2"]
        assert design.objective == pytest.approx(2.0)

    def test_nothing_fits_returns_base(self):
        queries = make_queries(["q1"])
        p = problem_of(
            [cand("m1", 1000, {"q1": 1.0}, attrs=("a", "b"))],
            queries,
            {"q1": 7.0},
            10,
        )
        design = choose_candidates(p)
        assert design.chosen_ids == []
        assert design.objective == pytest.approx(7.0)
        assert design.assignment["q1"] is None

    def test_no_useful_candidates_short_circuits(self):
        queries = make_queries(["q1"])
        p = problem_of(
            [cand("m1", 10, {"q1": 99.0}, attrs=("a", "b"))],  # slower than base
            queries,
            {"q1": 7.0},
            100,
        )
        design = choose_candidates(p)
        assert design.status == "optimal"
        assert design.chosen_ids == []
        assert design.num_variables == 0

    def test_objective_equals_recomputed_total(self):
        queries = make_queries(["q1", "q2", "q3"])
        p = problem_of(
            [
                cand("m1", 30, {"q1": 1.0, "q2": 4.0}, attrs=("a", "b")),
                cand("m2", 40, {"q2": 2.0, "q3": 2.5}, attrs=("a", "b", "x")),
                cand("m3", 50, {"q1": 0.5, "q3": 6.0}, attrs=("a", "b", "y")),
            ],
            queries,
            {"q1": 10.0, "q2": 9.0, "q3": 8.0},
            75,
        )
        design = choose_candidates(p)
        total = sum(design.expected_seconds.values())
        assert design.objective == pytest.approx(total)

    def test_frequencies_weight_objective(self):
        q_hot = Query("hot", "f", [EqPredicate("a", 1)], frequency=10.0)
        q_cold = Query("cold", "f", [EqPredicate("a", 2)], frequency=1.0)
        p = problem_of(
            [
                cand("m_hot", 50, {"hot": 1.0}, attrs=("a", "b")),
                cand("m_cold", 50, {"cold": 1.0}, attrs=("a", "b", "x")),
            ],
            [q_hot, q_cold],
            {"hot": 5.0, "cold": 5.0},
            50,
        )
        design = choose_candidates(p)
        assert design.chosen_ids == ["m_hot"]

    def test_one_clustering_per_fact(self):
        queries = make_queries(["q1", "q2"])
        p = problem_of(
            [
                cand("fr1", 10, {"q1": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b")),
                cand("fr2", 10, {"q2": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b", "x")),
            ],
            queries,
            {"q1": 10.0, "q2": 10.0},
            1000,
        )
        design = choose_candidates(p)
        assert len(design.chosen_ids) == 1  # condition (4)

    def test_dense_and_prefix_encodings_agree(self):
        """The prefix-sum encoding must give the same optimum as the paper's
        literal constraint rows."""
        import repro.design.ilp_formulation as f

        p = long_chain_problem()
        old = f._DENSE_CHAIN_LIMIT
        try:
            f._DENSE_CHAIN_LIMIT = 64
            dense = choose_candidates(p)
            f._DENSE_CHAIN_LIMIT = 2
            prefix = choose_candidates(p)
        finally:
            f._DENSE_CHAIN_LIMIT = old
        assert dense.objective == pytest.approx(prefix.objective)
        assert dense.chosen_ids == prefix.chosen_ids

    def test_model_statistics_exposed(self):
        queries = make_queries(["q1"])
        p = problem_of(
            [cand("m1", 10, {"q1": 1.0}, attrs=("a", "b"))], queries, {"q1": 5.0}, 100
        )
        model = build_design_ilp(p)
        assert model.num_variables >= 2  # y + at least one x
        design = choose_candidates(p)
        assert design.num_variables == model.num_variables
        assert design.solve_seconds >= 0


class TestGreedyMK:
    def test_greedy_never_beats_ilp(self):
        p = shared_problem()
        ilp = choose_candidates(p)
        greedy = greedy_mk(p, m=2)
        assert greedy.objective >= ilp.objective - 1e-9

    def test_greedy_respects_budget(self):
        p = shared_problem()
        greedy = greedy_mk(p, m=2)
        used = sum(
            p.candidates.candidate(cid).size_bytes for cid in greedy.chosen_ids
        )
        assert used <= p.budget_bytes

    def test_greedy_respects_one_clustering_per_fact(self):
        queries = make_queries(["q1", "q2"])
        p = problem_of(
            [
                cand("fr1", 10, {"q1": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b")),
                cand("fr2", 10, {"q2": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b", "x")),
            ],
            queries,
            {"q1": 10.0, "q2": 10.0},
            1000,
        )
        greedy = greedy_mk(p, m=2)
        assert len(greedy.chosen_ids) <= 1

    def test_greedy_empty_pool(self):
        p = problem_of([], make_queries(["q1"]), {"q1": 3.0}, 10)
        greedy = greedy_mk(p)
        assert greedy.chosen_ids == []
        assert greedy.objective == pytest.approx(3.0)

    def test_greedy_m1_still_seeds(self):
        p = shared_problem()
        greedy = greedy_mk(p, m=1)
        assert greedy.objective < sum(p.base_seconds.values())

    def test_greedy_k_caps_candidates(self):
        p = shared_problem()
        greedy = greedy_mk(p, m=1, k=1)
        assert len(greedy.chosen_ids) <= 1
