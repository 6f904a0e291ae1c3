"""MILP substrate: model building and the HiGHS solver facade."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp.model import MILPModel
from repro.ilp.solver import solve


class TestModelBuilding:
    def test_duplicate_variable_rejected(self):
        m = MILPModel()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_var("x")

    def test_unknown_variable_in_constraint(self):
        m = MILPModel()
        m.add_var("x")
        with pytest.raises(KeyError):
            m.add_constraint({"y": 1.0}, "<=", 1.0)

    def test_bad_sense_rejected(self):
        m = MILPModel()
        m.add_var("x")
        with pytest.raises(ValueError):
            m.add_constraint({"x": 1.0}, "<", 1.0)

    def test_bad_bounds_rejected(self):
        m = MILPModel()
        with pytest.raises(ValueError):
            m.add_var("x", lb=2.0, ub=1.0)

    def test_counts(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_var("x", ub=1.0)
        m.add_constraint({"y": 1, "x": 1}, "<=", 1)
        assert m.num_variables == 2
        assert m.num_integer_variables == 1
        assert m.num_constraints == 1

    def test_evaluate_and_feasible(self):
        m = MILPModel()
        m.add_binary("y", obj=2.0)
        m.add_objective_constant(1.0)
        m.add_constraint({"y": 1.0}, "<=", 1.0)
        assert m.evaluate({"y": 1.0}) == 3.0
        assert m.is_feasible({"y": 1.0})
        assert not m.is_feasible({"y": 0.5})  # integrality
        assert not m.is_feasible({"y": 2.0})  # bound

    def test_to_arrays_shapes(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_var("x", ub=3.0, obj=1.5)
        m.add_constraint({"y": 2.0, "x": -1.0}, ">=", 0.5)
        arrays = m.to_arrays()
        assert arrays.c.tolist() == [0.0, 1.5]
        assert arrays.A.shape == (1, 2)
        assert arrays.senses == [">="]
        assert arrays.integrality.tolist() == [1, 0]


def knapsack_model(values, weights, capacity) -> MILPModel:
    m = MILPModel()
    for i, v in enumerate(values):
        m.add_binary(f"y{i}", obj=-float(v))
    m.add_constraint(
        {f"y{i}": float(w) for i, w in enumerate(weights)}, "<=", float(capacity)
    )
    return m


def brute_force(model: MILPModel) -> float:
    """Best objective over every 0/1 point of an all-binary model (``inf``
    when none is feasible) — shares nothing with the solver but the model."""
    names = list(model.variables)
    best = float("inf")
    for bits in itertools.product((0.0, 1.0), repeat=len(names)):
        point = dict(zip(names, bits))
        if model.is_feasible(point):
            best = min(best, model.evaluate(point))
    return best


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-5, 20), min_size=1, max_size=7),
    n_rows=st.integers(0, 3),
    data=st.data(),
)
def test_milp_matches_brute_force_on_random_knapsacks(values, n_rows, data):
    """Random small multi-row knapsacks against enumeration: ``<=``, ``>=``
    and ``==`` rows, no row at all, and right-hand sides no 0/1 point can
    meet (infeasible models must be reported, not solved)."""
    n = len(values)
    model = MILPModel()
    for i, v in enumerate(values):
        model.add_binary(f"y{i}", obj=-float(v))
    model.add_objective_constant(float(data.draw(st.integers(-3, 3))))
    for _ in range(n_rows):
        weights = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
        coeffs = {f"y{i}": float(w) for i, w in enumerate(weights) if w}
        if not coeffs:  # all-zero rows carry no constraint
            continue
        sense = data.draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = data.draw(st.integers(0, sum(weights) + 2))
        model.add_constraint(coeffs, sense, float(rhs))
    want = brute_force(model)
    got = solve(model)
    if want == float("inf"):
        assert got.status == "infeasible"
    else:
        assert got.status == "optimal"
        assert got.objective == pytest.approx(want, abs=1e-6)
        assert model.is_feasible(got.values)


class TestSolverFacade:
    def test_knapsack_optimal(self):
        m = knapsack_model([6, 5, 4], [3, 2, 2], 4)
        sol = solve(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-9.0)
        assert sol.backend == "scipy"

    def test_chosen_helper(self):
        m = knapsack_model([6, 5, 4], [3, 2, 2], 4)
        sol = solve(m)
        assert sorted(sol.chosen("y")) == ["y1", "y2"]

    def test_objective_constant_included(self):
        m = knapsack_model([6, 5, 4], [3, 2, 2], 4)
        m.add_objective_constant(100.0)
        assert solve(m).objective == pytest.approx(91.0)

    def test_infeasible_reported(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_constraint({"y": 1.0}, ">=", 2.0)
        assert solve(m).status == "infeasible"

    def test_infeasible_integer_program(self):
        m = MILPModel()
        m.add_binary("y")
        m.add_constraint({"y": 2.0}, "==", 1.0)  # y = 0.5 required
        assert solve(m).status == "infeasible"

    def test_infeasible_row_that_breaks_presolve(self):
        """The random-knapsack property test found this one: HiGHS's
        presolve gives up with a solve error on it (scipy 1.17)."""
        m = MILPModel()
        for i in range(5):
            m.add_binary(f"y{i}")
        m.add_constraint({"y2": 3.0, "y3": 2.0, "y4": 3.0}, "==", 4.0)
        assert solve(m).status == "infeasible"

    def test_empty_model_is_its_own_answer(self):
        m = MILPModel()
        m.add_objective_constant(7.5)
        sol = solve(m)
        assert sol.status == "optimal"
        assert sol.objective == 7.5
        assert sol.values == {}
