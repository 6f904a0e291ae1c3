"""The candidate-selection ILP (Section 5.1, Table 3).

For each query ``q`` the candidates covering it are ordered fastest-first
(``p_{q,1}, p_{q,2}, ...``), terminated by the *base design* — the runtime
``q`` achieves with no extra objects.  The objective charges each query its
fastest runtime plus "penalties" for every faster candidate not chosen:

    min  sum_q  freq_q * [ t_{q,p1} + sum_{r>=2} x_{q,r} (t_r - t_{r-1}) ]

    s.t. (1) y_m binary
         (2) x_{q,r} >= 1 - sum_{k<r} y_{p_k}      (0 <= x <= 1)
         (3) sum_m s_m y_m <= S
         (4) per fact table f: sum_{m in R_f} y_m <= 1

The telescoping makes the objective exactly the runtime of the best *chosen*
candidate (or the base design): if nothing is chosen all penalties fire and
the sum collapses to the base runtime.  Because the model minimizes and each
``(t_r - t_{r-1})`` is positive, the continuous ``x`` settle at their integral
lower bounds on their own — the paper's "no relaxation needed" structure.

Encoding note: constraint (2) written literally puts r-1 coefficients in the
r-th row — quadratic nonzeros in the chain length, which is fine at SSB
scale (the paper's 2,080-variable ILP) but explodes for the 20,000-candidate
scaling study (Figure 6).  For chains longer than ``_DENSE_CHAIN_LIMIT`` we
switch to an equivalent prefix-sum encoding: auxiliary ``s_{q,r} =
sum_{k<=r} y_{p_k}`` built by one 3-coefficient equality per level, with
``x_{q,r} + s_{q,r-1} >= 1``.  Same feasible set projected onto (x, y), same
optimum, linear nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.design.mv import KIND_FACT_RECLUSTER, CandidateSet, MVCandidate
from repro.ilp.model import MILPModel
from repro.ilp.solver import Solution, solve
from repro.relational.query import Query

if TYPE_CHECKING:
    from repro.design.maintenance import MaintenanceTable

_EPS = 1e-9

# Chains longer than this switch from the paper's literal constraint (2)
# rows to the equivalent prefix-sum encoding (see module docstring).
_DENSE_CHAIN_LIMIT = 64

# query name -> penalty chain: the candidates covering the query that beat
# its base runtime, fastest first (the ``p_{q,r}`` ordering).
Chains = dict[str, list[tuple[float, MVCandidate]]]


@dataclass
class DesignProblem:
    """Inputs to candidate selection.

    ``maintenance`` (a :class:`~repro.design.maintenance.MaintenanceTable`)
    prices each candidate's insert-maintenance bill; when present, choosing
    a candidate costs its maintenance seconds on top of the query-time
    objective — the update/query-mix-aware formulation.  ``None`` (the
    default) reproduces the paper's query-only model exactly.
    """

    candidates: CandidateSet
    queries: list[Query]
    base_seconds: dict[str, float]
    budget_bytes: int
    maintenance: "MaintenanceTable | None" = None

    def maintenance_seconds(self, cand: MVCandidate) -> float:
        if self.maintenance is None:
            return 0.0
        return self.maintenance.seconds(cand)

    def chain_for(self, query: Query) -> list[tuple[float, MVCandidate]]:
        """Candidates covering ``query`` that beat its base runtime, fastest
        first (the ``p_{q,r}`` ordering)."""
        base = self.base_seconds[query.name]
        entries = [
            (cand.runtimes[query.name], cand)
            for cand in self.candidates.covering(query)
            if query.name in cand.runtimes
            and cand.runtimes[query.name] < base - _EPS
        ]
        entries.sort(key=lambda item: (item[0], item[1].cand_id))
        return entries

    def chains(self) -> Chains:
        """Every query's penalty chain.  Each one scans the whole pool, so
        :func:`choose_candidates` computes them once and shares them."""
        return {q.name: self.chain_for(q) for q in self.queries}


@dataclass
class ChosenDesign:
    """A solved selection: which candidates, and what the model expects."""

    chosen_ids: list[str]
    objective: float
    assignment: dict[str, str | None]  # query -> cand_id (None = base design)
    expected_seconds: dict[str, float]
    status: str
    solve_seconds: float = 0.0
    num_variables: int = 0
    num_constraints: int = 0
    backend: str = ""
    # Insert-maintenance seconds of the chosen set under the problem's
    # update mix (0.0 for query-only problems); already included in
    # ``objective`` when nonzero.
    maintenance_seconds: float = 0.0

    @property
    def expected_total(self) -> float:
        return self.objective

    def chosen(self, candidates: CandidateSet) -> list[MVCandidate]:
        return [candidates.candidate(cid) for cid in self.chosen_ids]


def build_design_ilp(
    problem: DesignProblem, chains: Chains | None = None
) -> MILPModel:
    """Construct the Section 5.1 model.  Candidates that beat no query's
    base runtime get no variable (they could never improve the objective).
    ``chains`` are ``problem.chains()`` when the caller already has them."""
    model = MILPModel("coradd_design")
    if chains is None:
        chains = problem.chains()
    used: dict[str, MVCandidate] = {}
    for chain in chains.values():
        for _, cand in chain:
            used.setdefault(cand.cand_id, cand)
    for cand_id, cand in used.items():
        # A candidate's maintenance bill is a linear per-object charge, so
        # it rides directly on the choice variable.
        model.add_binary(
            f"y[{cand_id}]", obj=problem.maintenance_seconds(cand)
        )
    if used:
        model.add_constraint(
            {f"y[{cid}]": float(cand.size_bytes) for cid, cand in used.items()},
            "<=",
            float(problem.budget_bytes),
            name="space_budget",
        )
    # Condition (4): at most one clustering per fact table.
    by_fact: dict[str, list[str]] = {}
    for cid, cand in used.items():
        if cand.kind == KIND_FACT_RECLUSTER:
            by_fact.setdefault(cand.fact, []).append(cid)
    for fact, ids in by_fact.items():
        model.add_constraint(
            {f"y[{cid}]": 1.0 for cid in ids}, "<=", 1.0, name=f"one_clustering[{fact}]"
        )
    # Objective + penalty chains.
    for q in problem.queries:
        chain = chains[q.name]
        base = problem.base_seconds[q.name]
        times = [t for t, _ in chain] + [base]
        ids = [cand.cand_id for _, cand in chain]
        model.add_objective_constant(q.frequency * times[0])
        dense = len(ids) <= _DENSE_CHAIN_LIMIT
        prev_s: str | None = None
        for r in range(1, len(times)):
            delta = times[r] - times[r - 1]
            if not dense:
                # Maintain s_{q,r-1} = sum of the first r-1 y's.
                s_name = f"s[{q.name},{r}]"
                model.add_var(s_name, lb=0.0, ub=float(r))
                coeffs_s = {s_name: 1.0, f"y[{ids[r - 1]}]": -1.0}
                if prev_s is not None:
                    coeffs_s[prev_s] = -1.0
                model.add_constraint(coeffs_s, "==", 0.0, name=f"prefix[{q.name},{r}]")
                prev_s = s_name
            if delta <= 0:
                continue
            x_name = model.add_var(
                f"x[{q.name},{r}]", lb=0.0, ub=1.0, obj=q.frequency * delta
            )
            if dense:
                coeffs = {x_name: 1.0}
                for cid in ids[:r]:
                    coeffs[f"y[{cid}]"] = 1.0
            else:
                coeffs = {x_name: 1.0, prev_s: 1.0}
            model.add_constraint(coeffs, ">=", 1.0, name=f"penalty[{q.name},{r}]")
    return model


def extract_design(
    problem: DesignProblem,
    solution: Solution,
    model: MILPModel,
    chains: Chains | None = None,
) -> ChosenDesign:
    if chains is None:
        chains = problem.chains()
    chosen_ids = sorted(
        name[2:-1] for name in solution.chosen("y[")
    )
    chosen_set = set(chosen_ids)
    assignment: dict[str, str | None] = {}
    expected: dict[str, float] = {}
    for q in problem.queries:
        best_t = problem.base_seconds[q.name]
        best_id: str | None = None
        for t, cand in chains[q.name]:
            if cand.cand_id in chosen_set and t < best_t:
                best_t = t
                best_id = cand.cand_id
                break  # chain is sorted: first chosen is the best chosen
        assignment[q.name] = best_id
        expected[q.name] = best_t
    maintenance = sum(
        problem.maintenance_seconds(problem.candidates.candidate(cid))
        for cid in chosen_ids
    )
    return ChosenDesign(
        chosen_ids=chosen_ids,
        objective=solution.objective,
        assignment=assignment,
        expected_seconds=expected,
        status=solution.status,
        solve_seconds=solution.solve_seconds,
        num_variables=model.num_variables,
        num_constraints=model.num_constraints,
        backend=solution.backend,
        maintenance_seconds=maintenance,
    )


def incumbent_from_chosen(
    problem: DesignProblem,
    model: MILPModel,
    chosen_ids: list[str],
    chains: Chains | None = None,
) -> dict[str, float]:
    """A feasible warm-start point of :func:`build_design_ilp`'s model from a
    previously chosen candidate set.

    Mirrors the model construction exactly: ``y`` variables are set from
    ``chosen_ids`` (ids without a variable — candidates that no longer beat
    any base runtime — are dropped), prefix-sum ``s`` variables get their
    implied counts, and every penalty ``x`` settles at its integral lower
    bound given the ``y``.  Feasibility under the *current* budget is not
    checked here; the solver facade verifies it and ignores infeasible
    incumbents.
    """
    if chains is None:
        chains = problem.chains()
    chosen = {cid for cid in chosen_ids if f"y[{cid}]" in model.variables}
    values: dict[str, float] = {
        name: (1.0 if name[2:-1] in chosen else 0.0)
        for name in model.variables
        if name.startswith("y[")
    }
    for q in problem.queries:
        chain = chains[q.name]
        base = problem.base_seconds[q.name]
        times = [t for t, _ in chain] + [base]
        ids = [cand.cand_id for _, cand in chain]
        prefix = 0
        for r in range(1, len(times)):
            if ids[r - 1] in chosen:
                prefix += 1
            s_name = f"s[{q.name},{r}]"
            if s_name in model.variables:
                values[s_name] = float(prefix)
            x_name = f"x[{q.name},{r}]"
            if x_name in model.variables:
                values[x_name] = 0.0 if prefix else 1.0
    return values


def choose_candidates(
    problem: DesignProblem,
    warm_start: list[str] | None = None,
    free_ids: list[str] | None = None,
) -> ChosenDesign:
    """Build and solve the ILP; returns the chosen design.

    ``warm_start`` — candidate ids of a previous solution — seeds the
    solver's fix-and-polish pass; ``free_ids`` names the candidates a
    workload delta touched, whose choice variables stay free during the
    polish.  The returned optimum is the same either way; a warm point the
    LP bound certifies is returned as it stands.  When no candidate helps
    any query the model is empty and the answer is the base design.
    """
    chains = problem.chains()
    model = build_design_ilp(problem, chains)
    incumbent = (
        incumbent_from_chosen(problem, model, warm_start, chains)
        if warm_start
        else None
    )
    free_vars = (
        {f"y[{cid}]" for cid in free_ids if f"y[{cid}]" in model.variables}
        if free_ids
        else None
    )
    solution = solve(model, warm_start=incumbent, free_vars=free_vars)
    return extract_design(problem, solution, model, chains)
