"""Property test: the Section 5.1 ILP equals brute-force enumeration.

On small random design problems, the ILP's optimum must match the best
objective over *every* feasible subset of candidates — the strongest
correctness statement available for the formulation + solver stack.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.ilp_formulation import DesignProblem, choose_candidates
from repro.design.mv import KIND_FACT_RECLUSTER, KIND_MV, CandidateSet, MVCandidate
from repro.relational.query import Aggregate, EqPredicate, Query


def brute_force_optimum(problem: DesignProblem) -> float:
    cands = list(problem.candidates)
    best = float("inf")
    recluster_facts = {
        c.cand_id: c.fact for c in cands if c.kind == KIND_FACT_RECLUSTER
    }
    for r in range(len(cands) + 1):
        for subset in itertools.combinations(cands, r):
            if sum(c.size_bytes for c in subset) > problem.budget_bytes:
                continue
            facts = [recluster_facts[c.cand_id] for c in subset if c.cand_id in recluster_facts]
            if len(facts) != len(set(facts)):
                continue
            total = 0.0
            for q in problem.queries:
                t = problem.base_seconds[q.name]
                for c in subset:
                    rt = c.runtimes.get(q.name)
                    if rt is not None and rt < t:
                        t = rt
                total += q.frequency * t
            best = min(best, total)
    return best


@settings(max_examples=25, deadline=None)
@given(
    n_cands=st.integers(1, 7),
    n_queries=st.integers(1, 4),
    seed=st.integers(0, 1_000),
)
def test_ilp_matches_brute_force(n_cands, n_queries, seed):
    rng = np.random.default_rng(seed)
    queries = [
        Query(
            f"q{i}",
            "f",
            [EqPredicate("a", float(i))],
            [Aggregate("sum", ("m",))],
            frequency=float(rng.integers(1, 4)),
        )
        for i in range(n_queries)
    ]
    base = {q.name: float(rng.uniform(5, 20)) for q in queries}
    candidates = CandidateSet()
    drawn: list[MVCandidate] = []
    for i in range(n_cands):
        # Ids count down, so an earlier-enumerated twin sorts after a later
        # one: the representative rule cannot pass by id order alone.
        cand_id = f"c{n_cands - i}"
        if drawn and rng.random() < 0.3:
            # A twin: another clustering of an earlier candidate, priced
            # and sized exactly like it.
            of = drawn[int(rng.integers(len(drawn)))]
            cand = MVCandidate(
                cand_id=cand_id,
                fact="f",
                group=frozenset(),
                attrs=("a", "m", f"pad{i}"),
                cluster_key=("m", "a"),
                size_bytes=of.size_bytes,
                kind=of.kind,
                runtimes=dict(of.runtimes),
            )
        else:
            kind = KIND_FACT_RECLUSTER if rng.random() < 0.25 else KIND_MV
            cand = MVCandidate(
                cand_id=cand_id,
                fact="f",
                group=frozenset(),
                attrs=("a", "m", f"pad{i}"),
                cluster_key=("a",),
                size_bytes=int(rng.integers(1, 50)),
                kind=kind,
            )
            for q in queries:
                if rng.random() < 0.7:
                    cand.runtimes[q.name] = float(
                        base[q.name] * rng.uniform(0.1, 1.3)
                    )
        candidates.add(cand)
        drawn.append(cand)
    budget = int(rng.integers(1, 120))
    problem = DesignProblem(candidates, queries, base, budget)
    ilp = choose_candidates(problem)
    brute = brute_force_optimum(problem)
    assert ilp.objective == pytest.approx(brute, abs=1e-6)
    # The reported assignment must recompute to the same objective.
    total = sum(q.frequency * ilp.expected_seconds[q.name] for q in queries)
    assert total == pytest.approx(ilp.objective, abs=1e-6)
    # Only representatives are chosen: no chosen candidate has an earlier
    # twin (same kind, size and improving runtimes) in enumeration order.
    def twin_key(c):
        beats = tuple(
            (q.name, c.runtimes[q.name])
            for q in queries
            if c.runtimes.get(q.name, float("inf")) < base[q.name]
        )
        return c.kind, c.size_bytes, beats

    position = {c.cand_id: i for i, c in enumerate(drawn)}
    for cid in ilp.chosen_ids:
        chosen = candidates.candidate(cid)
        assert not any(
            twin_key(c) == twin_key(chosen)
            for c in drawn[: position[cid]]
        ), cid
