"""CoraddDesigner: the staged design pipeline, and Design materialization.

``CoraddDesigner`` owns, per fact table: the flattened relation, its
statistics, the correlation-aware cost model and a candidate enumerator —
all staged in a persistent :class:`~repro.design.state.DesignerState` so the
pipeline is resumable and *incremental*:

* :meth:`CoraddDesigner.profile` collects workload-independent statistics;
* :meth:`CoraddDesigner.enumerate` builds the domination-pruned candidate
  pool (pruned candidates are archived, not forgotten);
* :meth:`CoraddDesigner.solve` runs ILP (+ feedback) for one budget, with
  optional warm starts;
* :meth:`CoraddDesigner.design` assembles the :class:`Design` for a budget,
  and :meth:`CoraddDesigner.design_ladder` sweeps a whole budget ladder —
  sharding the per-budget ILP solves across processes in feedback-free mode;
* :meth:`CoraddDesigner.update` applies a :class:`~repro.relational.query.
  WorkloadDelta`: only affected facts re-enumerate (and only groups not
  already designed), the domination frontier is re-pruned incrementally,
  and the ILP re-solve is warm-started from the previous solution.

A :class:`Design` can ``materialize()`` itself into a
:class:`~repro.storage.executor.PhysicalDatabase` — from scratch, or (given
``existing``/``previous``) by migrating an already-materialized database
through :class:`~repro.design.migration.DesignDiff` instead of rebuilding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.cm.designer import DEFAULT_CM_BUDGET_BYTES, CMDesigner
from repro.engine import EvalSession, ambient_scope, get_session
from repro.costmodel.correlation_aware import CorrelationAwareCostModel
from repro.design.dominate import prune_dominated, reprune_incremental
from repro.design.enumerate import CandidateEnumerator
from repro.design.feedback import FeedbackConfig, run_ilp_feedback
from repro.design.fk_clustering import enumerate_fact_reclusterings
from repro.design.grouping import (
    DEFAULT_ALPHAS,
    GroupingMemo,
    enumerate_query_groups,
)
from repro.design.ilp_formulation import (
    ChosenDesign,
    DesignProblem,
    choose_candidates,
)
from repro.design.maintenance import MaintenanceModel, MaintenanceTable
from repro.storage.bufferpool import DEFAULT_POOL_PAGES
from repro.design.mv import KIND_FACT_RECLUSTER, KIND_MV, CandidateSet, MVCandidate
from repro.design.state import DesignerState
from repro.obs.trace import annotate, span
from repro.relational.query import Query, Workload, WorkloadDelta
from repro.relational.table import Table
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel
from repro.storage.executor import PhysicalDatabase, PhysicalObject
from repro.storage.layout import HeapFile


@dataclass
class DesignerConfig:
    """Tunables of the CORADD pipeline (paper defaults).

    ``update_weight`` sets the update/query mix the design optimizes for:
    inserts per existing base row per workload execution.  0 (the default)
    is the paper's read-only setting — the ILP model is then *identical* to
    the query-only formulation.  Positive weights charge every candidate its
    insert-maintenance seconds (:mod:`repro.design.maintenance`) in the ILP
    objective, priced against a buffer pool of ``maintenance_pool_pages``.
    """

    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    t0: int = 2
    max_k: int | None = None
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    use_feedback: bool = True
    synopsis_rows: int = 4096
    seed: int = 0
    cm_budget_bytes: int = DEFAULT_CM_BUDGET_BYTES
    use_cms: bool = True
    update_weight: float = 0.0
    maintenance_pool_pages: int = DEFAULT_POOL_PAGES


@dataclass(frozen=True)
class ObjectSpec:
    """What one physical object of a design should look like — the unit
    design diffs compare and migrations build."""

    name: str
    fact: str
    kind: str  # "base" | KIND_MV
    attrs: tuple[str, ...] | None  # None = every column of the flat table
    cluster_key: tuple[str, ...]
    btree_keys: tuple[tuple[str, ...], ...]
    query_names: tuple[str, ...]  # assigned queries, workload order
    cand_id: str | None  # chosen candidate behind this object, if any

    def structure_key(self) -> tuple:
        """Identity of the heap file + dense indexes (everything *except*
        which queries the object serves, which only affects its CMs)."""
        return (self.name, self.fact, self.kind, self.attrs, self.cluster_key,
                self.btree_keys)


@dataclass
class Design:
    """A complete design for one budget, plus everything needed to build it."""

    budget_bytes: int
    chosen: list[MVCandidate]
    ilp: ChosenDesign
    base_cluster_keys: dict[str, tuple[str, ...]]
    expected_seconds: dict[str, float]
    workload: Workload
    flat_tables: dict[str, Table]
    disk: DiskModel
    cm_budget_bytes: int = DEFAULT_CM_BUDGET_BYTES
    use_cms: bool = True
    pk_index_facts: tuple[str, ...] = ()

    @property
    def total_expected_seconds(self) -> float:
        return sum(
            q.frequency * self.expected_seconds[q.name] for q in self.workload
        )

    @property
    def size_bytes(self) -> int:
        """Budget-charged bytes of the chosen objects."""
        return sum(c.size_bytes for c in self.chosen)

    def fingerprint(self) -> str:
        """Content identity of the chosen objects: a blake2b digest of their
        sorted ``(kind, fact, attrs, cluster_key, btree_keys)``.  Candidate
        ids and choice order do not enter it, so two runs that build the
        same objects share it, and any moved object changes it."""
        objects = sorted(
            (c.kind, c.fact, c.attrs, c.cluster_key, c.btree_keys)
            for c in self.chosen
        )
        return hashlib.blake2b(
            repr(objects).encode(), digest_size=8
        ).hexdigest()

    def materialize(
        self,
        session: EvalSession | None = None,
        existing: PhysicalDatabase | None = None,
        previous: "Design | None" = None,
    ) -> PhysicalDatabase:
        """Build the physical database: base facts (re-clustered when a
        re-clustering won), MV heap files, CMs / B+Trees per object.

        With an evaluation session (explicit or ambient), already-sorted
        heap files and already-designed CMs are reused across
        ``materialize()`` calls — the sweep-wide reuse that makes budget
        ladders cheap.  The produced database is identical either way.

        With ``existing`` (a database materialized from ``previous``), the
        build is a *migration*: only the objects that changed are dropped,
        rebuilt or re-indexed, in benefit-per-byte deployment order — see
        :class:`~repro.design.migration.DesignDiff`.
        """
        if existing is not None:
            if previous is None:
                raise ValueError(
                    "materialize(existing=...) needs previous= (the design "
                    "the existing database was materialized from)"
                )
            from repro.design.migration import DesignDiff

            return DesignDiff(previous, self).apply(existing, session=session)
        session = session if session is not None else get_session()
        with span("designer.materialize", budget_bytes=self.budget_bytes):
            with ambient_scope(session):
                return self._materialize(session)

    def _heapfile(
        self,
        session: EvalSession | None,
        source: Table,
        attrs: tuple[str, ...] | None,
        cluster_key: tuple[str, ...],
        name: str,
    ) -> HeapFile:
        if session is not None:
            return session.heapfile(source, attrs, cluster_key, self.disk, name)
        table = (
            source.project(list(attrs), new_name=name) if attrs is not None else source
        )
        return HeapFile(table, cluster_key, self.disk, name=name)

    # ------------------------------------------------------------ object specs

    def object_specs(self) -> list[ObjectSpec]:
        """The physical objects this design implies, in materialization
        order: base facts first (flat-table order), then chosen MVs."""
        assigned: dict[str, list[str]] = {}
        for q in self.workload:
            cid = self.ilp.assignment.get(q.name)
            assigned.setdefault(
                cid if cid is not None else f"__base__{q.fact_table}", []
            ).append(q.name)

        recluster_by_fact = {
            c.fact: c for c in self.chosen if c.kind == KIND_FACT_RECLUSTER
        }
        specs: list[ObjectSpec] = []
        for fact in self.flat_tables:
            recluster = recluster_by_fact.get(fact)
            key = (
                recluster.cluster_key
                if recluster is not None
                else self.base_cluster_keys[fact]
            )
            btree_keys: tuple[tuple[str, ...], ...] = ()
            queries = list(assigned.get(f"__base__{fact}", []))
            if recluster is not None:
                # PK uniqueness needs a secondary index once re-clustered.
                if self.base_cluster_keys[fact]:
                    btree_keys = (self.base_cluster_keys[fact],)
                queries += assigned.get(recluster.cand_id, [])
            specs.append(
                ObjectSpec(
                    name=fact,
                    fact=fact,
                    kind="base",
                    attrs=None,
                    cluster_key=tuple(key),
                    btree_keys=btree_keys,
                    query_names=tuple(queries),
                    cand_id=recluster.cand_id if recluster is not None else None,
                )
            )
        for cand in self.chosen:
            if cand.kind != KIND_MV:
                continue
            specs.append(
                ObjectSpec(
                    name=cand.cand_id,
                    fact=cand.fact,
                    kind=KIND_MV,
                    attrs=tuple(cand.attrs),
                    cluster_key=tuple(cand.cluster_key),
                    btree_keys=tuple(tuple(k) for k in cand.btree_keys),
                    query_names=tuple(assigned.get(cand.cand_id, [])),
                    cand_id=cand.cand_id,
                )
            )
        return specs

    def spec_queries(self, spec: ObjectSpec) -> list[Query]:
        return [self.workload.query(name) for name in spec.query_names]

    def design_cms_for(self, heapfile: HeapFile, spec: ObjectSpec) -> list:
        """The Correlation Maps ``spec``'s object should carry, given the
        queries assigned to it (designed under the ambient session, when
        there is one).  CMs are built for the base fact whether or not it
        was re-clustered: the paper budgets CM space separately from the MV
        knapsack (Section 5.4, "set aside some small amount of space
        (i.e. 1 MB*|Q|) for secondary indexes"), and the cost model prices
        base-design plans accordingly."""
        queries = self.spec_queries(spec)
        if not (self.use_cms and spec.cluster_key and queries):
            return []
        return CMDesigner(budget_bytes=self.cm_budget_bytes).design(
            heapfile, queries
        )

    def build_object(
        self, spec: ObjectSpec, session: EvalSession | None = None
    ) -> PhysicalObject:
        """Materialize one object spec: heap file, B+Trees, CMs."""
        flat = self.flat_tables[spec.fact]
        heapfile = self._heapfile(
            session, flat, spec.attrs, spec.cluster_key, spec.name
        )
        obj = PhysicalObject(
            heapfile, btree_keys=[tuple(k) for k in spec.btree_keys],
            fact=spec.fact,
        )
        obj.cms = self.design_cms_for(heapfile, spec)
        return obj

    def _materialize(self, session: EvalSession | None) -> PhysicalDatabase:
        db = PhysicalDatabase()
        for spec in self.object_specs():
            db.add(self.build_object(spec, session))
        return db

    def summary(self) -> str:
        lines = [
            f"Design @ {self.budget_bytes / (1 << 20):.0f} MB budget: "
            f"{len(self.chosen)} objects, {self.size_bytes / (1 << 20):.1f} MB used, "
            f"expected {self.total_expected_seconds:.2f}s"
        ]
        for cand in self.chosen:
            served = sum(1 for v in self.ilp.assignment.values() if v == cand.cand_id)
            lines.append(
                f"  {cand.cand_id:>6} [{cand.kind}] key=({','.join(cand.cluster_key)}) "
                f"{cand.size_bytes / (1 << 20):6.1f} MB, serves {served} queries"
            )
        return "\n".join(lines)


class CoraddDesigner:
    """The correlation-aware database designer (Figure 1), staged and
    incrementally updatable."""

    def __init__(
        self,
        flat_tables: dict[str, Table],
        workload: Workload,
        primary_keys: dict[str, tuple[str, ...]],
        fk_attrs: dict[str, tuple[str, ...]] | None = None,
        disk: DiskModel | None = None,
        config: DesignerConfig | None = None,
    ) -> None:
        self.flat_tables = dict(flat_tables)
        self.workload = workload
        self.primary_keys = dict(primary_keys)
        self.fk_attrs = dict(fk_attrs or {})
        self.disk = disk or DiskModel()
        self.config = config or DesignerConfig()
        self.state = DesignerState()

        missing = set(workload.fact_tables()) - set(self.flat_tables)
        if missing:
            raise KeyError(f"workload references unknown fact tables {sorted(missing)}")
        self.profile()

    # -------------------------------------------------- back-compat accessors

    @property
    def stats(self) -> dict[str, TableStatistics]:
        return self.state.stats

    @property
    def cost_models(self) -> dict[str, CorrelationAwareCostModel]:
        return self.state.cost_models

    @property
    def enumerators(self) -> list[CandidateEnumerator]:
        return self.state.enumerators

    @enumerators.setter
    def enumerators(self, value: list[CandidateEnumerator]) -> None:
        self.state.enumerators = list(value)

    @property
    def enumeration_stats(self) -> dict[str, int]:
        return self.state.enumeration_stats

    # ------------------------------------------------------------- pipeline

    def profile(self) -> DesignerState:
        """Stage 1 (resumable): per-fact statistics, cost models and
        enumerators.  Statistics are workload-independent — the stage only
        profiles facts it has not seen, so repeated calls (and incremental
        updates) never re-collect."""
        with span("designer.profile"):
            for fact, flat in self.flat_tables.items():
                queries = self.workload.queries_for_fact(fact)
                if not queries:
                    continue
                self._profile_fact(fact, flat)
                if self.state.enumerator_for(fact) is None:
                    self.state.replace_enumerator(
                        self._make_enumerator(fact, queries)
                    )
        return self.state

    def _profile_fact(self, fact: str, flat: Table) -> None:
        if fact in self.state.stats:
            return
        stats = TableStatistics(
            flat, synopsis_rows=self.config.synopsis_rows, seed=self.config.seed
        )
        self.state.stats[fact] = stats
        self.state.cost_models[fact] = CorrelationAwareCostModel(
            stats, self.disk, use_cm=self.config.use_cms
        )

    def _make_enumerator(
        self, fact: str, queries: list[Query]
    ) -> CandidateEnumerator:
        return CandidateEnumerator(
            fact=fact,
            queries=queries,
            stats=self.state.stats[fact],
            disk=self.disk,
            cost_model=self.state.cost_models[fact],
            primary_key=self.primary_keys.get(fact, ()),
            fk_attrs=self.fk_attrs.get(fact, ()),
            alphas=self.config.alphas,
            t0=self.config.t0,
            seed=self.config.seed,
            max_k=self.config.max_k,
            grouping_memo=self.state.grouping_memos.setdefault(
                fact, GroupingMemo()
            ),
        )

    def enumerate(self) -> CandidateSet:
        """Stage 2 (resumable): the domination-pruned candidate pool."""
        if self.state.candidates is None:
            with span("designer.enumerate"):
                self._enumerate()
        return self.state.candidates

    def _enumerate(self) -> None:
        candidates = CandidateSet()
        for enumerator in self.enumerators:
            enumerator.enumerate(candidates)
        before, after = prune_dominated(candidates, archive=self.state.archive)
        self.state.enumeration_stats = {
            "enumerated": before,
            "after_domination": after,
        }
        annotate(enumerated=before, after_domination=after)
        self.state.candidates = candidates

    def base_seconds(self) -> dict[str, float]:
        if self.state.base_seconds is None:
            out: dict[str, float] = {}
            for enumerator in self.enumerators:
                out.update(enumerator.base_seconds())
            self.state.base_seconds = out
        return self.state.base_seconds

    def maintenance_table(self) -> MaintenanceTable | None:
        """The per-candidate maintenance pricer for the configured update
        mix, or None in the read-only setting (``update_weight == 0``) —
        which keeps the ILP model bit-identical to the query-only pipeline.
        """
        if self.config.update_weight <= 0:
            return None
        models = {
            fact: self.state.maintenance_models.setdefault(
                fact,
                MaintenanceModel(
                    stats, self.disk,
                    pool_pages=self.config.maintenance_pool_pages,
                ),
            )
            for fact, stats in self.state.stats.items()
        }
        return MaintenanceTable(models, self.config.update_weight)

    def problem(self, budget_bytes: int) -> DesignProblem:
        return DesignProblem(
            self.enumerate(), list(self.workload), self.base_seconds(),
            budget_bytes, maintenance=self.maintenance_table(),
        )

    def solve(
        self,
        budget_bytes: int,
        feedback: bool | None = None,
        warm_start: list[str] | None = None,
        free_ids: list[str] | None = None,
    ) -> ChosenDesign:
        """Stage 3: candidate selection for one budget.  ``warm_start``
        (previous chosen ids) seeds the solver's fix-and-polish pass, with
        ``free_ids`` (delta-touched candidates) left free; the solution is
        recorded in the state for future warm starts."""
        use_feedback = self.config.use_feedback if feedback is None else feedback
        candidates = self.enumerate()
        with span(
            "designer.solve",
            budget_bytes=budget_bytes,
            feedback=use_feedback,
            warm=warm_start is not None,
        ):
            if use_feedback:
                outcome = run_ilp_feedback(
                    self.enumerators,
                    candidates,
                    list(self.workload),
                    self.base_seconds(),
                    budget_bytes,
                    config=self.config.feedback,
                    warm_start=warm_start,
                    maintenance=self.maintenance_table(),
                    free_ids=free_ids,
                )
                solution = outcome.design
            else:
                solution = choose_candidates(
                    self.problem(budget_bytes),
                    warm_start=warm_start,
                    free_ids=free_ids,
                )
            annotate(chosen=len(solution.chosen_ids))
        self.state.solutions[budget_bytes] = solution
        self.state.last_budget = budget_bytes
        return solution

    def _assemble(self, budget_bytes: int, solution: ChosenDesign) -> Design:
        candidates = self.enumerate()
        chosen = [candidates.candidate(cid) for cid in solution.chosen_ids]
        design = Design(
            budget_bytes=budget_bytes,
            chosen=chosen,
            ilp=solution,
            base_cluster_keys=dict(self.primary_keys),
            expected_seconds=dict(solution.expected_seconds),
            workload=self.workload,
            flat_tables=self.flat_tables,
            disk=self.disk,
            cm_budget_bytes=self.config.cm_budget_bytes,
            use_cms=self.config.use_cms,
        )
        self.state.designs[budget_bytes] = design
        return design

    def design(self, budget_bytes: int, feedback: bool | None = None) -> Design:
        """Produce the design for one space budget (cold solve)."""
        return self._assemble(budget_bytes, self.solve(budget_bytes, feedback))

    def design_ladder(
        self, budgets: list[int], feedback: bool | None = None
    ) -> list[Design]:
        """Designs for a whole budget ladder, in budget order.  With feedback
        each solve's feedback rounds grow the candidate pool the next budget
        sees; without it the pool is frozen after enumeration."""
        return [self.design(b, feedback=feedback) for b in budgets]

    # ------------------------------------------------------------ incremental

    def update(
        self,
        delta: WorkloadDelta | Workload,
        budget_bytes: int | None = None,
        feedback: bool | None = None,
    ) -> Design:
        """Apply a workload delta and re-design incrementally.

        ``delta`` is a :class:`WorkloadDelta` (or a plain new
        :class:`Workload`, from which the delta is computed).  Only the
        facts touched by added/removed/changed/*reweighted* queries
        re-enumerate — and only query groups not already in their
        enumerator's designed-group log; existing candidates get runtimes
        for the new queries and lose entries for the dropped ones; the
        domination frontier is re-pruned incrementally against the archive;
        and the ILP re-solve is warm-started from the previous solution.
        Reweighting alone refreshes the fact's enumerator over the new
        query objects (weight-sensitive candidate generation — cluster-key
        interleaving, feedback — must see current frequencies) and the
        warm-started ILP re-solve prices the new weights; the warm start is
        only accepted when the LP bound certifies it, so a reweighted
        optimum is never missed.  An empty delta therefore re-solves the
        identical problem with the previous optimum as the warm start and
        returns a bit-identical design.

        ``budget_bytes`` defaults to the most recently designed budget.
        """
        if isinstance(delta, Workload):
            delta = WorkloadDelta.between(self.workload, delta)
        else:
            # Re-derive against *our* current workload: the caller's delta
            # may have been computed against a stale phase.
            delta = WorkloadDelta.between(self.workload, delta.workload)
        if budget_bytes is None:
            if self.state.last_budget is None:
                raise ValueError(
                    "update() without budget_bytes needs a prior design(); "
                    "none has been produced yet"
                )
            budget_bytes = self.state.last_budget

        new_workload = delta.workload
        missing = set(new_workload.fact_tables()) - set(self.flat_tables)
        if missing:
            raise KeyError(f"workload references unknown fact tables {sorted(missing)}")

        old_workload = self.workload
        self.workload = new_workload
        if self.state.candidates is None:
            # Never enumerated: nothing to update incrementally — rebuild
            # the enumerators over the new workload and run the plain path.
            self.state.enumerators = []
            self.profile()
            return self.design(budget_bytes, feedback=feedback)

        # Changed queries (same name, different content) are a remove + add.
        added = list(delta.added) + [
            new_workload.query(name) for name in delta.changed
        ]
        removed_names = set(delta.removed) | set(delta.changed)
        removed_by_fact: dict[str, set[str]] = {}
        for name in removed_names:
            fact = old_workload.query(name).fact_table
            removed_by_fact.setdefault(fact, set()).add(name)
        added_by_fact: dict[str, list[Query]] = {}
        for q in added:
            added_by_fact.setdefault(q.fact_table, []).append(q)
        # Reweighted facts are affected too: a weight change is a delta, not
        # a no-op.  Frequencies feed candidate *generation* (cluster-key
        # interleaving, feedback rounds), so the fact's enumerator must be
        # rebuilt over the reweighted query objects — cheap, since grouping
        # vectors are frequency-independent (the memo replays every cell)
        # and already-designed groups are skipped.
        reweighted_facts = {
            new_workload.query(name).fact_table
            for name, _ in delta.reweighted
        }
        affected = sorted(
            set(removed_by_fact) | set(added_by_fact) | reweighted_facts
        )

        newcomers: list[MVCandidate] = []
        base = dict(self.base_seconds())
        for name in removed_names:
            base.pop(name, None)
        with span(
            "designer.update",
            budget_bytes=budget_bytes,
            added=len(added),
            removed=len(removed_names),
            affected_facts=len(affected),
        ):
            for fact in affected:
                newcomers += self._update_fact(
                    fact,
                    added_by_fact.get(fact, []),
                    removed_by_fact.get(fact, set()),
                    base,
                )
            annotate(newcomers=len(newcomers))
        self.state.base_seconds = base

        # Added queries matter even when no candidate was newly enumerated
        # (their groups were designed in an earlier phase): they extend
        # runtimes, which can break existing dominations and resurrect
        # archived candidates.
        if newcomers or removed_names or added:
            reprune_incremental(self.state.candidates, self.state.archive)
        stats = self.state.enumeration_stats
        stats["enumerated"] = stats.get("enumerated", 0) + len(newcomers)
        stats["after_domination"] = len(self.state.candidates)
        self.state.updates += 1

        previous = self.state.solutions.get(budget_bytes)
        warm = None
        if previous is not None:
            live = self.state.candidates
            warm = [
                cid for cid in previous.chosen_ids
                if cid in {c.cand_id for c in live}
            ]
        return self._assemble(
            budget_bytes,
            self.solve(
                budget_bytes, feedback, warm_start=warm,
                free_ids=[c.cand_id for c in newcomers],
            ),
        )

    def _update_fact(
        self,
        fact: str,
        added: list[Query],
        removed: set[str],
        base: dict[str, float],
    ) -> list[MVCandidate]:
        """Incrementally refresh one affected fact: rebuild its enumerator
        over the new query list (reusing statistics), maintain candidate
        runtimes, and enumerate only the groups not designed before.
        Returns the newly added candidates."""
        queries = self.workload.queries_for_fact(fact)
        old_enum = self.state.enumerator_for(fact)

        # Strip dropped queries' runtimes from live and archived candidates
        # so domination and the ILP's chains never see stale entries.
        if removed:
            for cand in self.state.fact_candidates(fact):
                for name in removed:
                    cand.runtimes.pop(name, None)
            for cand in self.state.archive.values():
                if cand.fact == fact:
                    for name in removed:
                        cand.runtimes.pop(name, None)

        if not queries:
            self.state.drop_enumerator(fact)
            return []

        if old_enum is None:
            self._profile_fact(fact, self.flat_tables[fact])
            enumerator = self._make_enumerator(fact, queries)
        else:
            enumerator = old_enum.with_queries(queries)
        self.state.replace_enumerator(enumerator)

        if added:
            for cand in self.state.fact_candidates(fact):
                enumerator.compute_runtimes(cand, added)
            for cand in self.state.archive.values():
                if cand.fact == fact:
                    enumerator.compute_runtimes(cand, added)
            base.update(enumerator.base_seconds(added))

        candidates = self.state.candidates
        newcomers: list[MVCandidate] = []
        # The per-fact memo makes this sweep incremental: cells whose
        # queries/vectors the delta did not move reuse their previous
        # clustering outright; moved cells warm-seed Lloyd from it.
        groups = enumerate_query_groups(
            enumerator.queries,
            enumerator.vectors,
            enumerator.stats,
            alphas=self.config.alphas,
            seed=self.config.seed,
            max_k=self.config.max_k,
            memo=self.state.grouping_memos.setdefault(fact, GroupingMemo()),
        )
        for group in groups:
            if enumerator.has_designed(group):
                continue
            newcomers += enumerator.add_mv_candidates(candidates, group)
        reclusterings = enumerate_fact_reclusterings(
            candidates,
            fact,
            enumerator.queries,
            enumerator.stats,
            self.disk,
            enumerator.fk_attrs,
            enumerator.primary_key,
        )
        for cand in reclusterings:
            enumerator.compute_runtimes(cand)
            newcomers.append(cand)
        return newcomers
