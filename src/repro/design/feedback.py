"""ILP Feedback (Section 6) — column-generation-inspired refinement.

A comprehensive ILP over all 2^|Q| query groups and 2^|Attr| clusterings is
intractable, so the initial pool is heuristic.  Feedback explores outward
from the *previous solution* instead of enumerating blindly:

* **expand**: for each chosen MV, try adding each absent query to its group
  (helps tight budgets, where one MV covering one more query beats adding a
  second MV), as long as the expanded MV alone fits the budget;
* **shrink**: when a chosen MV covers queries that ended up assigned to a
  faster object, drop them from its group — a smaller MV frees budget;
* **recluster**: re-run the clustered-index designer on chosen groups with a
  doubled *t*, hunting for a better key (helps large budgets, where coverage
  is solved and clustering quality is the remaining lever).

New candidates join the pool and the ILP is re-solved, until an iteration
adds nothing, the solution stops improving, or the iteration cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.design.enumerate import CandidateEnumerator
from repro.design.ilp_formulation import (
    ChosenDesign,
    DesignProblem,
    choose_candidates,
)
from repro.design.mv import KIND_MV, CandidateSet

if TYPE_CHECKING:
    from repro.design.maintenance import MaintenanceTable


@dataclass
class FeedbackConfig:
    max_iterations: int = 3
    t_multiplier: int = 2


@dataclass
class FeedbackOutcome:
    design: ChosenDesign
    iterations: int
    candidates_added: int
    objective_history: list[float]


def _feedback_round(
    enumerator: CandidateEnumerator,
    candidates: CandidateSet,
    design: ChosenDesign,
    budget_bytes: int,
    t: int,
    skip_designed: bool = False,
) -> list[str]:
    """One round of expand/shrink/recluster for one fact table's chosen MVs;
    returns the added candidates' ids."""
    added: list[str] = []
    fact_queries = {q.name for q in enumerator.queries}
    chosen = [
        candidates.candidate(cid)
        for cid in design.chosen_ids
        if candidates.candidate(cid).fact == enumerator.fact
    ]
    assigned: dict[str, set[str]] = {}
    for qname, cid in design.assignment.items():
        if cid is not None:
            assigned.setdefault(cid, set()).add(qname)
    for mv in chosen:
        if mv.kind != KIND_MV:
            continue
        # Expansion: group + one absent query, while the MV alone still fits.
        for qname in sorted(fact_queries - mv.group):
            expanded = mv.group | {qname}
            new = enumerator.add_mv_candidates(
                candidates, expanded, t=1, skip_designed=skip_designed
            )
            oversize = {c.cand_id for c in new if c.size_bytes > budget_bytes}
            for cand_id in oversize:
                candidates.remove(cand_id)
            added += [c.cand_id for c in new if c.cand_id not in oversize]
        # Shrink: keep only the queries actually served by this MV.
        served = assigned.get(mv.cand_id, set())
        if served and served < mv.group:
            added += [
                c.cand_id
                for c in enumerator.add_mv_candidates(
                    candidates, frozenset(served), t=1, skip_designed=skip_designed
                )
            ]
        # Recluster: more clusterings for the same group.
        added += [
            c.cand_id
            for c in enumerator.add_mv_candidates(
                candidates, mv.group, t=t, skip_designed=skip_designed
            )
        ]
    return added


def run_ilp_feedback(
    enumerators: list[CandidateEnumerator],
    candidates: CandidateSet,
    queries: list,
    base_seconds: dict[str, float],
    budget_bytes: int,
    config: FeedbackConfig | None = None,
    warm_start: list[str] | None = None,
    maintenance: "MaintenanceTable | None" = None,
    free_ids: list[str] | None = None,
) -> FeedbackOutcome:
    """Solve, feed back, re-solve (Section 6.1).

    ``warm_start`` (previous chosen candidate ids, from an incremental
    update) seeds the first solve's fix-and-polish pass; once
    warm-started, every re-solve after a feedback round is seeded from the
    current best solution, and feedback rounds skip groups whose keys were
    already designed in an earlier solve (the enumerator's designed-group
    log).  With ``warm_start=None`` (the from-scratch path) all solves are
    cold and no group is skipped — bit-identical to the original pipeline.
    """
    config = config or FeedbackConfig()
    problem = DesignProblem(
        candidates, queries, base_seconds, budget_bytes,
        maintenance=maintenance,
    )
    design = choose_candidates(
        problem, warm_start=warm_start, free_ids=free_ids
    )
    history = [design.objective]
    total_added = 0
    iterations = 0
    t = 0
    for enumerator in enumerators:
        t = max(t, enumerator.t0)
    for iteration in range(1, config.max_iterations + 1):
        t *= config.t_multiplier
        added: list[str] = []
        for enumerator in enumerators:
            added += _feedback_round(
                enumerator, candidates, design, budget_bytes, t,
                skip_designed=warm_start is not None,
            )
        iterations = iteration
        if not added:
            break
        total_added += len(added)
        new_design = choose_candidates(
            problem,
            warm_start=design.chosen_ids if warm_start is not None else None,
            free_ids=added if warm_start is not None else None,
        )
        improved = new_design.objective < design.objective - 1e-9
        design = new_design
        history.append(design.objective)
        if not improved:
            break
    return FeedbackOutcome(
        design=design,
        iterations=iterations,
        candidates_added=total_added,
        objective_history=history,
    )
