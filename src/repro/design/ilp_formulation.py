"""The candidate-selection ILP (Section 5.1, Table 3).

For each query ``q`` the candidates covering it that beat its *base design*
— the runtime ``q`` achieves with no extra objects — form its chain, ordered
fastest-first (``p_{q,1}, p_{q,2}, ...``).  Table 3 charges each query its
fastest runtime plus a "penalty" for every faster candidate not chosen,
with one row per chain entry that names every faster candidate:
``x_{q,r} >= 1 - sum_{k<r} y_{p_k}``.  Row ``r`` has ``r - 1`` coefficients,
so that encoding grows with the square of the chain length.

HiGHS gets the equivalent *assignment* (facility-location) form instead,
where ``z_{q,r}`` is the share of ``q`` served by its ``r``-th candidate:

    min  sum_q f_q base_q  -  sum_{q,r} f_q (base_q - t_{q,r}) z_{q,r}
           + sum_m maint_m y_m

    s.t. (1) y_m binary
         (2) z_{q,r} - y_{p_{q,r}} <= 0          (0 <= z <= 1)
         (3) per query q: sum_r z_{q,r} <= 1
         (4) sum_m s_m y_m <= S
         (5) per fact table f: sum_{m in R_f} y_m <= 1

For integral ``y`` the optimum sets ``z = 1`` at the first chosen entry of
each chain, so every query is charged the runtime of its best chosen
candidate, or its base runtime when no candidate is chosen.  For fractional
``y`` the relaxation fills each query fastest-first, ``z_{q,r} = min(y_r,
1 - sum_{k<r} z_{q,k})``, which telescopes to exactly Table 3's charge
``t_{q,1} + sum_r (t_{q,r+1} - t_{q,r}) max(0, 1 - sum_{k<=r} y_{p_k})``
(the entry past the chain's end is ``base_q``): the LP bound, and with it
HiGHS's pruning, is the paper's.  Each chain entry costs three nonzeros —
``z`` and ``y`` in row (2), ``z`` in row (3) — at any chain length.

*Twins* — candidates with the same kind, fact, size, maintenance charge and
chain entries, typically two clusterings of one query group that price every
query alike — are interchangeable in any design.  The model carries one
column per set of twins, the twin enumerated first in ``CandidateSet``
order, so HiGHS neither branches over them nor picks one arbitrarily; warm
starts and free ids that name a later twin are mapped onto it.
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


@dataclass
class Chains:
    """Every query's chain over twin representatives, fastest first, and
    which representative stands for each candidate that reaches a chain."""

    by_query: dict[str, list[tuple[float, MVCandidate]]]
    # cand_id -> the id of the first of its twins in CandidateSet order
    # (its own id when it has no earlier twin).
    representative: dict[str, str]

    def __getitem__(self, query_name: str) -> list[tuple[float, MVCandidate]]:
        return self.by_query[query_name]

    def columns(self) -> dict[str, MVCandidate]:
        """The representatives, in order of first appearance over the
        chains: the model's ``y`` columns."""
        used: dict[str, MVCandidate] = {}
        for chain in self.by_query.values():
            for _, cand in chain:
                used.setdefault(cand.cand_id, cand)
        return used


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
        first (the ``p_{q,r}`` ordering), twins included."""
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
        """Every query's :meth:`chain_for` with twins merged into their
        representative, from one pass over the pool, which
        :func:`choose_candidates` shares between its steps."""
        by_query: dict[str, list[tuple[float, MVCandidate]]] = {
            q.name: [] for q in self.queries
        }
        first_of: dict[tuple, str] = {}
        representative: dict[str, str] = {}
        for cand in self.candidates:
            have = frozenset(cand.attrs)
            entries = tuple(
                (q.name, t)
                for q in self.queries
                if (t := cand.runtimes.get(q.name)) is not None
                and t < self.base_seconds[q.name] - _EPS
                and q.fact_table == cand.fact
                and have.issuperset(q.attributes())
            )
            if not entries:
                continue
            twin_key = (
                cand.kind, cand.fact, cand.size_bytes,
                self.maintenance_seconds(cand), entries,
            )
            rep = first_of.setdefault(twin_key, cand.cand_id)
            representative[cand.cand_id] = rep
            if rep == cand.cand_id:
                for name, t in entries:
                    by_query[name].append((t, cand))
        for chain in by_query.values():
            chain.sort(key=lambda item: (item[0], item[1].cand_id))
        return Chains(by_query, representative)


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


def _z(query_name: str, cand_id: str) -> str:
    return f"z[{query_name},{cand_id}]"


def build_design_ilp(
    problem: DesignProblem, chains: Chains | None = None
) -> MILPModel:
    """Construct the Section 5.1 model in its assignment form.  Candidates
    that beat no query's base runtime, and twins after the first, get no
    column.  ``chains`` are ``problem.chains()`` when the caller already
    has them."""
    model = MILPModel("coradd_design")
    if chains is None:
        chains = problem.chains()
    used = chains.columns()
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
    # Condition (5): at most one clustering per fact table.
    by_fact: dict[str, list[str]] = {}
    for cid, cand in used.items():
        if cand.kind == KIND_FACT_RECLUSTER:
            by_fact.setdefault(cand.fact, []).append(cid)
    for fact, ids in by_fact.items():
        model.add_constraint(
            {f"y[{cid}]": 1.0 for cid in ids}, "<=", 1.0, name=f"one_clustering[{fact}]"
        )
    # Objective: every query at its base runtime, less what its assignment
    # saves.
    for q in problem.queries:
        base = problem.base_seconds[q.name]
        model.add_objective_constant(q.frequency * base)
        shares: dict[str, float] = {}
        for t, cand in chains[q.name]:
            z_name = model.add_var(
                _z(q.name, cand.cand_id), lb=0.0, ub=1.0,
                obj=-q.frequency * (base - t),
            )
            model.add_constraint(
                {z_name: 1.0, f"y[{cand.cand_id}]": -1.0}, "<=", 0.0,
                name=f"serve[{q.name},{cand.cand_id}]",
            )
            shares[z_name] = 1.0
        if shares:
            model.add_constraint(shares, "<=", 1.0, name=f"assign[{q.name}]")
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

    Mirrors the model construction exactly: each id is mapped to its twin
    representative, ``y`` variables are set from the result (ids without a
    variable — candidates that no longer beat any base runtime — are
    dropped), and each query is assigned whole to the first chosen entry of
    its chain.  Feasibility under the *current* budget is not checked here;
    the solver facade verifies it and ignores infeasible incumbents.
    """
    if chains is None:
        chains = problem.chains()
    chosen = {chains.representative.get(cid, cid) for cid in chosen_ids}
    values: dict[str, float] = {
        name: (1.0 if name[2:-1] in chosen else 0.0)
        for name in model.variables
        if name.startswith("y[")
    }
    for q in problem.queries:
        served = False
        for _, cand in chains[q.name]:
            take = not served and cand.cand_id in chosen
            values[_z(q.name, cand.cand_id)] = 1.0 if take else 0.0
            served = served or take
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
    polish.  Both are mapped onto twin representatives.  The returned
    optimum is the same either way; a warm point the LP bound certifies is
    returned as it stands.  When no candidate helps any query the model is
    empty and the answer is the base design.
    """
    chains = problem.chains()
    model = build_design_ilp(problem, chains)
    incumbent = (
        incumbent_from_chosen(problem, model, warm_start, chains)
        if warm_start
        else None
    )
    free_vars = (
        {
            f"y[{chains.representative.get(cid, cid)}]" for cid in free_ids
        } & model.variables.keys()
        if free_ids
        else None
    )
    solution = solve(model, warm_start=incumbent, free_vars=free_vars)
    return extract_design(problem, solution, model, chains)
