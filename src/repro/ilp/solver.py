"""Solver facade: every model goes to HiGHS through ``scipy.optimize.milp``.

One cold path (:func:`_solve_scipy`) and, on top of it, the pieces HiGHS's
scipy binding lacks: warm starts (:func:`fix_and_polish` plus an LP-bound
certificate, :func:`_solve_scipy_warm`) and soft deadlines
(:func:`_degraded_solution`).  ``Solution.backend`` says which of them
produced the answer: ``"scipy"``, ``"scipy-polish"`` or ``"degraded-*"``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.engine import faults
from repro.ilp.model import MILPModel
from repro.obs import metrics as obs_metrics
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
    time_limit_s: float | None = None,
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
    options = {"time_limit": time_limit_s} if time_limit_s is not None else {}
    res = milp(**problem, options=options)
    if res.status == 4:
        # HiGHS's presolve aborts with "Solve error" on some tiny models
        # (seen: one infeasible equality row, zero objective) that the
        # solver proper decides at once.
        res = milp(**problem, options={**options, "presolve": False})
    if res.status == 2:
        return Solution("infeasible", _INF, {})
    if res.x is None:
        return Solution(
            "time_limit" if res.status == 1 else "failed", _INF, {}
        )
    values = {name: float(v) for name, v in zip(arrays.names, res.x)}
    status = "time_limit" if res.status == 1 else "optimal"
    return Solution(status, float(res.fun) / scale + arrays.obj_constant, values)


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


def _degraded_solution(
    model: MILPModel, warm_start: dict[str, float] | None
) -> Solution:
    """Deadline fallback: a feasible answer *now* instead of an optimal
    answer eventually.  Prefers the warm incumbent (already feasible, already
    good for incremental re-solves); otherwise repairs the LP relaxation by
    rounding its integers and re-optimizing everything else around them
    (fix-and-polish).  Only when both fail does it report
    ``"deadline-failed"`` — it never hangs."""
    obs_metrics.count("ilp.deadline_degraded")
    if warm_start is not None and model.is_feasible(warm_start):
        values = {name: float(v) for name, v in warm_start.items()}
        annotate(deadline_outcome="incumbent")
        return Solution(
            "deadline", model.evaluate(values), values,
            backend="degraded-incumbent",
        )
    relaxed = _solve_scipy(model, relax_integrality=True)
    if relaxed.status == "optimal":
        rounded = {
            name: (round(v) if model.variables[name].integer else v)
            for name, v in relaxed.values.items()
        }
        polished = fix_and_polish(model, rounded)
        if polished.status == "optimal" and model.is_feasible(polished.values):
            annotate(deadline_outcome="lp-round-polish")
            polished.status = "deadline"
            polished.backend = "degraded-greedy"
            return polished
    annotate(deadline_outcome="failed")
    return Solution("deadline-failed", _INF, {}, backend="degraded")


def _solve_scipy_warm(
    model: MILPModel,
    warm_start: dict[str, float],
    free_vars: set[str] | None,
    time_limit_s: float | None = None,
) -> Solution:
    """HiGHS solve with a fix-and-polish warm start.

    The polished solution gives an upper bound U; the LP relaxation gives a
    lower bound L.  When the gap closes (U <= L + tol) the polished point is
    *provably optimal* and the full MILP is skipped entirely — the common
    case for incremental re-solves, where the previous optimum plus a small
    polish already is the answer.  Otherwise the full (cold) solve runs; the
    returned optimum is therefore identical to a cold solve either way.  A
    cold solve that runs out of time without beating the polished point
    hands that point back (status ``"time_limit"``) instead of nothing.
    """
    if not model.is_feasible(warm_start):
        annotate(warm_outcome="infeasible-start")
        return _solve_scipy(model, time_limit_s=time_limit_s)
    polished = fix_and_polish(model, warm_start, free_vars)
    if polished.status != "optimal":
        annotate(warm_outcome="polish-failed")
        return _solve_scipy(model, time_limit_s=time_limit_s)
    polished.backend = "scipy-polish"
    relaxed = _solve_scipy(model, relax_integrality=True)
    if relaxed.status == "optimal":
        annotate(incumbent=polished.objective, lp_bound=relaxed.objective)
        gap_tol = 1e-9 * (1.0 + abs(relaxed.objective))
        if polished.objective <= relaxed.objective + gap_tol:
            annotate(warm_outcome="polish-certified")
            obs_metrics.count("ilp.polish_certified")
            return polished
    annotate(warm_outcome="cold-fallback")
    full = _solve_scipy(model, time_limit_s=time_limit_s)
    if full.status == "time_limit" and full.objective >= polished.objective:
        polished.status = "time_limit"
        return polished
    return full


def solve(
    model: MILPModel,
    time_limit_s: float | None = None,
    warm_start: dict[str, float] | None = None,
    free_vars: set[str] | None = None,
    deadline_s: float | None = None,
) -> Solution:
    """Solve ``model`` (minimization) with HiGHS.

    ``warm_start`` is a feasible point (variable name -> value).  scipy's
    ``milp`` has no incumbent API, so the facade runs a *fix-and-polish*
    pass around the point instead (integer variables outside ``free_vars``
    pinned, the rest polished) and accepts the polished point outright when
    the LP relaxation certifies it optimal, falling back to a cold solve
    otherwise.  The returned optimum is unchanged either way; an infeasible
    warm start is ignored.

    ``deadline_s`` makes the call *soft real-time*: HiGHS gets at most that
    long, and instead of surfacing a bare time-limit status the facade
    degrades — best point found in time (HiGHS's own, or the polished warm
    start), else the warm start, else an LP-rounding repair (see
    :func:`_degraded_solution`) — returning status ``"deadline"`` so a
    continuous-tuning caller can keep serving with a good-enough design
    rather than block on optimality.  ``time_limit_s`` alone keeps the raw
    semantics: status ``"time_limit"`` with whatever point was in hand.

    A model without variables is its own answer: ``"optimal"`` at the
    objective constant.
    """
    start = time.monotonic()
    limit = time_limit_s
    if deadline_s is not None:
        limit = deadline_s if limit is None else min(limit, deadline_s)
    with span(
        "ilp.solve",
        variables=model.num_variables,
        constraints=model.num_constraints,
        warm=warm_start is not None,
    ):
        spec = faults.fire("ilp.solve")
        forced_timeout = spec is not None and spec.kind == "timeout"
        if model.num_variables == 0:
            solution = Solution("optimal", model.obj_constant, {})
        elif forced_timeout and deadline_s is not None:
            # Injected solver timeout: HiGHS "ran out of time" without
            # burning any — straight to the degraded path.
            solution = _degraded_solution(model, warm_start)
        elif warm_start is not None:
            solution = _solve_scipy_warm(model, warm_start, free_vars, limit)
        else:
            solution = _solve_scipy(model, time_limit_s=limit)
        if (
            deadline_s is not None
            and solution.status not in ("optimal", "infeasible")
        ):
            if solution.status == "time_limit" and solution.values:
                # Some point beat the deadline: take it.
                obs_metrics.count("ilp.deadline_degraded")
                annotate(deadline_outcome="backend-incumbent")
                solution.status = "deadline"
            elif solution.status not in ("deadline", "deadline-failed"):
                solution = _degraded_solution(model, warm_start)
        solution.solve_seconds = time.monotonic() - start
        if not solution.backend:
            solution.backend = "scipy"
        annotate(
            status=solution.status,
            objective=solution.objective,
            backend=solution.backend,
        )
        obs_metrics.count("ilp.solves")
        obs_metrics.count(f"ilp.solves.{solution.backend}")
        if warm_start is not None:
            obs_metrics.count("ilp.warm_starts")
        obs_metrics.observe("ilp.solve_seconds", solution.solve_seconds)
        obs_metrics.observe("ilp.model_variables", model.num_variables)
    return solution
