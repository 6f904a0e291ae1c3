"""Staged, persistent designer state — what makes redesign incremental.

The original ``CoraddDesigner`` was a one-shot pipeline: statistics,
enumeration, domination pruning and ILP selection all lived in transient
locals and monolithic method bodies, so any workload change meant starting
over.  :class:`DesignerState` reifies every stage's output:

* **profiled** — per-fact :class:`~repro.stats.collector.TableStatistics`
  and cost models (the single most expensive input, and one that does not
  depend on the workload at all).  Each cost model carries its own price
  memo, keyed by object shape and query content, so nothing priced in one
  phase is priced again in a later one;
* **enumerated** — the candidate pool with stable ids, the enumerators'
  designed-group logs, per-query base seconds, and the domination
  *archive*: candidates pruned off the frontier are parked, not forgotten,
  because a workload delta can make them non-dominated again;
* **solved** — the last ILP solution and assembled
  :class:`~repro.design.designer.Design` per budget, which seed warm
  starts and design diffs on the next update.

:meth:`stage` reports how far the pipeline has progressed, and every stage
method on ``CoraddDesigner`` is resumable: calling it again is a no-op when
its output is already present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily to keep layering acyclic
    from repro.costmodel.correlation_aware import CorrelationAwareCostModel
    from repro.design.designer import Design
    from repro.design.enumerate import CandidateEnumerator
    from repro.design.ilp_formulation import ChosenDesign
    from repro.design.mv import CandidateSet, MVCandidate
    from repro.stats.collector import TableStatistics


@dataclass
class DesignerState:
    """Everything a :class:`~repro.design.designer.CoraddDesigner` knows,
    staged for resumption and incremental update."""

    # -- profiled (workload-independent; survives every update) ------------
    stats: dict[str, "TableStatistics"] = field(default_factory=dict)
    cost_models: dict[str, "CorrelationAwareCostModel"] = field(
        default_factory=dict
    )
    # Per-fact insert-maintenance pricers (populated lazily when the config
    # sets a nonzero update weight; workload-independent like the stats).
    maintenance_models: dict = field(default_factory=dict)
    # Per-fact k-means grouping memos: the previous sweep's assignments seed
    # the next update's clustering, and the key designer's 2-means splits
    # are looked up by their points (see repro.design.grouping.GroupingMemo).
    grouping_memos: dict = field(default_factory=dict)
    # -- enumerated (updated incrementally per workload delta) -------------
    enumerators: list["CandidateEnumerator"] = field(default_factory=list)
    candidates: "CandidateSet | None" = None
    archive: dict[str, "MVCandidate"] = field(default_factory=dict)
    base_seconds: dict[str, float] | None = None
    enumeration_stats: dict[str, int] = field(default_factory=dict)
    # -- solved (per budget; seeds warm starts and design diffs) -----------
    # After a workload delta these entries describe the *previous* problem:
    # they are kept deliberately, because their only consumers are warm
    # starts and design diffs — both of which want exactly the pre-delta
    # answer.  ``design()``/``update()`` always re-solve and overwrite.
    solutions: dict[int, "ChosenDesign"] = field(default_factory=dict)
    designs: dict[int, "Design"] = field(default_factory=dict)
    last_budget: int | None = None
    updates: int = 0

    @property
    def stage(self) -> str:
        """How far the pipeline has run: created -> profiled -> enumerated
        -> solved."""
        if self.solutions:
            return "solved"
        if self.candidates is not None:
            return "enumerated"
        if self.stats:
            return "profiled"
        return "created"

    def enumerator_for(self, fact: str) -> "CandidateEnumerator | None":
        for enumerator in self.enumerators:
            if enumerator.fact == fact:
                return enumerator
        return None

    def replace_enumerator(self, enumerator: "CandidateEnumerator") -> None:
        """Swap in a rebuilt enumerator for its fact (appending when the
        fact is new), preserving the per-fact order."""
        for i, existing in enumerate(self.enumerators):
            if existing.fact == enumerator.fact:
                self.enumerators[i] = enumerator
                return
        self.enumerators.append(enumerator)

    def drop_enumerator(self, fact: str) -> None:
        self.enumerators = [e for e in self.enumerators if e.fact != fact]

    def fact_candidates(self, fact: str) -> list["MVCandidate"]:
        if self.candidates is None:
            return []
        return [c for c in self.candidates if c.fact == fact]

    def __repr__(self) -> str:
        pool = len(self.candidates) if self.candidates is not None else 0
        return (
            f"DesignerState(stage={self.stage!r}, facts={sorted(self.stats)}, "
            f"pool={pool}, archived={len(self.archive)}, "
            f"solved_budgets={sorted(self.solutions)}, updates={self.updates})"
        )
