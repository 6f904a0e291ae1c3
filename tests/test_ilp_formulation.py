"""The Section 5.1 design ILP: correctness of the formulation itself."""

import itertools

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
from repro.obs import observed
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

    @pytest.mark.parametrize("make_problem", [shared_problem, long_chain_problem])
    def test_precomputed_chains_change_nothing(self, make_problem):
        """Model, extracted design and incumbent are the same whether each
        function derives the chains itself or is handed them; without twins
        the one-pass chains are :meth:`DesignProblem.chain_for`'s."""
        p = make_problem()
        chains = p.chains()
        assert chains.by_query == {q.name: p.chain_for(q) for q in p.queries}
        assert all(cid == rep for cid, rep in chains.representative.items())
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


def twin_problem(order=("slow", "other", "pad")) -> DesignProblem:
    """``mv9`` and ``mv10`` are twins serving q1 best; ``slow`` serves q1
    worse at the same size, ``other`` serves q2, ``pad`` helps nobody.
    ``mv9`` is enumerated first but sorts after ``mv10`` by id; the budget
    holds two objects.  ``order`` permutes the non-twin candidates around
    the twins."""
    queries = make_queries(["q1", "q2"])
    by_id = {
        "mv9": cand("mv9", 50, {"q1": 1.0}, attrs=("a", "b", "k1")),
        "mv10": cand("mv10", 50, {"q1": 1.0}, attrs=("a", "b", "k2")),
        "slow": cand("slow", 50, {"q1": 4.0}, attrs=("a", "b", "x")),
        "other": cand("other", 50, {"q2": 2.0}, attrs=("a", "b", "y")),
        "pad": cand("pad", 10, {"q1": 30.0}, attrs=("a", "b", "z")),
    }
    head, tail = order[:1], order[1:]
    ids = [*head, "mv9", *tail[:1], "mv10", *tail[1:]]
    return problem_of(
        [by_id[cid] for cid in ids], queries, {"q1": 10.0, "q2": 10.0}, 100
    )


def recluster_problem() -> DesignProblem:
    """Three re-clusterings of one fact (``fr2`` is ``fr1``'s twin) and an
    MV."""
    queries = make_queries(["q1", "q2"])
    return problem_of(
        [
            cand("fr1", 10, {"q1": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b")),
            cand("fr2", 10, {"q1": 1.0}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b", "x")),
            cand("fr3", 10, {"q2": 1.5}, kind=KIND_FACT_RECLUSTER, attrs=("a", "b", "y")),
            cand("mv", 30, {"q1": 2.0, "q2": 2.0}, attrs=("a", "b", "z")),
        ],
        queries,
        {"q1": 10.0, "q2": 10.0},
        1000,
    )


def one_query_chain_of_300() -> DesignProblem:
    queries = make_queries(["q1"])
    return problem_of(
        [
            cand(f"m{i}", 10 + i, {"q1": 1.0 + i * 0.01},
                 attrs=("a", "b", f"x{i}"))
            for i in range(300)
        ],
        queries,
        {"q1": 100.0},
        50,
    )


class TestModelSize:
    @pytest.mark.parametrize(
        "make_problem",
        [
            shared_problem, long_chain_problem, one_query_chain_of_300,
            twin_problem, recluster_problem,
        ],
    )
    def test_model_size_is_linear_in_chain_entries(self, make_problem):
        """One binary per representative, one continuous share per chain
        entry, and three nonzeros per entry plus the budget and
        one-clustering rows: a quadratic penalty encoding cannot come back
        unnoticed."""
        p = make_problem()
        chains = p.chains()
        columns = chains.columns()
        entries = sum(len(chain) for chain in chains.by_query.values())
        served = sum(1 for chain in chains.by_query.values() if chain)
        reclusterings = [
            c for c in columns.values() if c.kind == KIND_FACT_RECLUSTER
        ]
        facts = {c.fact for c in reclusterings}
        model = build_design_ilp(p, chains)
        assert model.num_integer_variables == len(columns)
        assert model.num_variables - model.num_integer_variables == entries
        assert model.num_constraints == 1 + len(facts) + entries + served
        nonzeros = sum(len(con.coeffs) for con in model.constraints)
        assert nonzeros == 3 * entries + len(columns) + len(reclusterings)

    def test_one_clustering_row_holds_representatives(self):
        p = recluster_problem()
        model = build_design_ilp(p)
        [row] = [c for c in model.constraints if c.name == "one_clustering[f]"]
        assert set(row.coeffs) == {"y[fr1]", "y[fr3]"}
        design = choose_candidates(p)
        assert design.chosen_ids == ["fr1", "mv"]
        assert design.objective == pytest.approx(3.0)


class TestTwins:
    def test_chains_merge_twins_into_the_first_enumerated(self):
        p = twin_problem()
        chains = p.chains()
        assert chains.representative["mv10"] == "mv9"
        assert chains.representative["mv9"] == "mv9"
        assert [c.cand_id for _, c in chains["q1"]] == ["mv9", "slow"]
        # chain_for still lists every candidate, ties broken by id.
        assert [c.cand_id for _, c in p.chain_for(p.queries[0])] == [
            "mv10", "mv9", "slow"
        ]
        assert "y[mv10]" not in build_design_ilp(p, chains).variables

    def test_twins_differ_in_any_key_field(self):
        queries = make_queries(["q1"])
        variants = [
            cand("b", 51, {"q1": 1.0}, attrs=("a", "b", "k2")),
            cand("b", 50, {"q1": 1.5}, attrs=("a", "b", "k2")),
            cand("b", 50, {"q1": 1.0}, kind=KIND_FACT_RECLUSTER,
                 attrs=("a", "b", "k2")),
        ]
        for other in variants:
            p = problem_of(
                [cand("a", 50, {"q1": 1.0}, attrs=("a", "b", "k1")), other],
                queries, {"q1": 10.0}, 100,
            )
            assert p.chains().representative["b"] == "b"

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("slow", "other", "pad")))
    )
    def test_first_enumerated_twin_is_chosen_in_any_order(self, order):
        design = choose_candidates(twin_problem(order))
        assert design.chosen_ids == ["mv9", "other"]
        assert design.assignment == {"q1": "mv9", "q2": "other"}
        assert design.objective == pytest.approx(3.0)

    def test_warm_start_naming_the_later_twin_maps_to_the_first(self):
        p = twin_problem()
        chains = p.chains()
        model = build_design_ilp(p, chains)
        later = incumbent_from_chosen(p, model, ["mv10", "other"], chains)
        assert later == incumbent_from_chosen(p, model, ["mv9", "other"], chains)
        assert model.is_feasible(later)
        cold = choose_candidates(p)
        with observed("twins") as obs:
            warm = choose_candidates(p, warm_start=["mv10", "other"])
            # Pinned at the incumbent except the free later twin's column.
            freed = choose_candidates(
                p, warm_start=["other"], free_ids=["mv10"]
            )
        outcomes = [
            s.attrs["warm_outcome"]
            for s in obs.tracer.spans
            if s.name == "ilp.solve"
        ]
        assert outcomes == ["polish-certified", "polish-certified"]
        for design in (warm, freed):
            assert design.chosen_ids == cold.chosen_ids == ["mv9", "other"]
            assert design.objective == pytest.approx(cold.objective, abs=1e-12)
            assert design.backend == "scipy-polish"


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

    def test_model_statistics_exposed(self):
        queries = make_queries(["q1"])
        p = problem_of(
            [cand("m1", 10, {"q1": 1.0}, attrs=("a", "b"))], queries, {"q1": 5.0}, 100
        )
        model = build_design_ilp(p)
        assert model.num_variables == 2  # y[m1] + z for its one chain entry
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
