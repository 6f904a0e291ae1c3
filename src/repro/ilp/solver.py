"""Solver facade: every model goes to HiGHS through ``scipy.optimize.milp``.

One cold path (:func:`_solve_scipy`) and, on top of it, the piece HiGHS's
scipy binding lacks: warm starts (:func:`fix_and_polish` plus an LP-bound
certificate, :func:`_solve_scipy_warm`).  ``Solution.backend`` says which
of them produced the answer: ``"scipy"`` or ``"scipy-polish"``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.model import MILPModel
from repro.obs.trace import annotate, span

_INF = float("inf")


@dataclass
class Solution:
    """A solved model: status, objective (with constant), variable values."""

    status: str
    objective: float
    values: dict[str, float]
    solve_seconds: float = 0.0
    backend: str = ""

    def value(self, name: str) -> float:
        return self.values.get(name, 0.0)

    def chosen(self, prefix: str = "", threshold: float = 0.5) -> list[str]:
        """Names of (binary) variables set above ``threshold``."""
        return [
            name
            for name, val in self.values.items()
            if name.startswith(prefix) and val > threshold
        ]


def _solve_scipy(
    model: MILPModel,
    bounds_override: dict[str, tuple[float, float]] | None = None,
    relax_integrality: bool = False,
) -> Solution:
    arrays = model.to_arrays()
    senses = np.array(arrays.senses)
    lo = np.where(senses == "<=", -np.inf, arrays.rhs)
    hi = np.where(senses == ">=", np.inf, arrays.rhs)
    constraints = (
        LinearConstraint(sparse.csr_matrix(arrays.A), lo, hi)
        if arrays.A.shape[0]
        else ()
    )
    lb = arrays.lb.copy()
    ub = arrays.ub.copy()
    if bounds_override:
        index = {name: i for i, name in enumerate(arrays.names)}
        for name, (vlo, vhi) in bounds_override.items():
            i = index[name]
            lb[i] = max(lb[i], vlo)
            ub[i] = min(ub[i], vhi)
            if lb[i] > ub[i]:
                return Solution("infeasible", _INF, {})
    integrality = (
        np.zeros_like(arrays.integrality) if relax_integrality
        else arrays.integrality
    )
    # HiGHS's optimality tolerance is absolute (1e-7) and design objectives
    # are model-seconds: a whole workload can total 0.1 s, and a share's
    # saving f * (base - t) is anything above 1e-9, which it would leave
    # slack: hand it the objective scaled by a power of two (exact in
    # floating point) that puts the largest coefficient near 2**13.
    largest = float(np.abs(arrays.c).max(initial=0.0))
    scale = 2.0 ** (13 - math.frexp(largest)[1]) if largest else 1.0
    problem = dict(
        c=arrays.c * scale,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
    )
    res = milp(**problem)
    if res.status == 4:
        # HiGHS's presolve aborts with "Solve error" on some tiny models
        # (seen: one infeasible equality row, zero objective) that the
        # solver proper decides at once.
        res = milp(**problem, options={"presolve": False})
    if res.status == 2:
        return Solution("infeasible", _INF, {})
    if res.status != 0:
        return Solution("failed", _INF, {})
    values = {name: float(v) for name, v in zip(arrays.names, res.x)}
    return Solution(
        "optimal", float(res.fun) / scale + arrays.obj_constant, values
    )


def fix_and_polish(
    model: MILPModel,
    incumbent: dict[str, float],
    free_vars: set[str] | None = None,
) -> Solution:
    """Polish a feasible point by re-optimizing only around it.

    Every integer variable *not* in ``free_vars`` is pinned to its incumbent
    value (rounded); the free integers — typically the variables a workload
    delta introduced — and all continuous variables re-optimize.  The result
    is feasible-by-construction with objective <= the incumbent's: an
    incumbent-quality bound at a tiny fraction of a full solve, which is
    how warm starts reach scipy's HiGHS MILP despite it having no incumbent
    API.
    """
    free = free_vars or set()
    override: dict[str, tuple[float, float]] = {}
    for name, var in model.variables.items():
        if var.integer and name not in free:
            value = float(round(incumbent.get(name, 0.0)))
            override[name] = (value, value)
    return _solve_scipy(model, bounds_override=override)


def _solve_scipy_warm(
    model: MILPModel,
    warm_start: dict[str, float],
    free_vars: set[str] | None,
) -> Solution:
    """HiGHS solve with a fix-and-polish warm start.

    The polished solution gives an upper bound U; the LP relaxation gives a
    lower bound L.  When the gap closes (U <= L + tol) the polished point is
    *provably optimal* and the full MILP is skipped entirely — the common
    case for incremental re-solves, where the previous optimum plus a small
    polish already is the answer.  Otherwise the full (cold) solve runs; the
    returned optimum is therefore identical to a cold solve either way.
    """
    if not model.is_feasible(warm_start):
        annotate(warm_outcome="infeasible-start")
        return _solve_scipy(model)
    polished = fix_and_polish(model, warm_start, free_vars)
    if polished.status != "optimal":
        annotate(warm_outcome="polish-failed")
        return _solve_scipy(model)
    polished.backend = "scipy-polish"
    relaxed = _solve_scipy(model, relax_integrality=True)
    if relaxed.status == "optimal":
        annotate(incumbent=polished.objective, lp_bound=relaxed.objective)
        gap_tol = 1e-9 * (1.0 + abs(relaxed.objective))
        if polished.objective <= relaxed.objective + gap_tol:
            annotate(warm_outcome="polish-certified")
            return polished
    annotate(warm_outcome="cold-fallback")
    return _solve_scipy(model)


def solve(
    model: MILPModel,
    warm_start: dict[str, float] | None = None,
    free_vars: set[str] | None = None,
) -> Solution:
    """Solve ``model`` (minimization) with HiGHS.

    ``warm_start`` is a feasible point (variable name -> value).  scipy's
    ``milp`` has no incumbent API, so the facade runs a *fix-and-polish*
    pass around the point instead (integer variables outside ``free_vars``
    pinned, the rest polished) and accepts the polished point outright when
    the LP relaxation certifies it optimal, falling back to a cold solve
    otherwise.  The returned optimum is unchanged either way; an infeasible
    warm start is ignored.

    A model without variables is its own answer: ``"optimal"`` at the
    objective constant.
    """
    start = time.monotonic()
    with span(
        "ilp.solve",
        variables=model.num_variables,
        constraints=model.num_constraints,
        warm=warm_start is not None,
    ):
        if model.num_variables == 0:
            solution = Solution("optimal", model.obj_constant, {})
        elif warm_start is not None:
            solution = _solve_scipy_warm(model, warm_start, free_vars)
        else:
            solution = _solve_scipy(model)
        solution.solve_seconds = time.monotonic() - start
        if not solution.backend:
            solution.backend = "scipy"
        annotate(
            status=solution.status,
            objective=solution.objective,
            backend=solution.backend,
        )
    return solution
