"""End-to-end candidate enumeration for one fact table (Section 4).

Ties the pieces together: selectivity vectors -> query groups -> clustered
keys per group -> sized :class:`MVCandidate`s with model runtimes for every
query they cover -> fact-table re-clusterings.  The output
:class:`~repro.design.mv.CandidateSet` feeds domination pruning and the ILP;
ILP feedback calls back into the same enumerator to add expanded / shrunk /
re-clustered candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.costmodel.base import CostModel, ObjectGeometry
from repro.design.clustering import ClusteredIndexDesigner
from repro.design.fk_clustering import enumerate_fact_reclusterings
from repro.design.grouping import (
    DEFAULT_ALPHAS,
    GroupingMemo,
    enumerate_query_groups,
)
from repro.design.mv import (
    KIND_MV,
    CandidateSet,
    MVCandidate,
    mv_size_bytes,
    ordered_mv_attrs,
)
from repro.design.selectivity import SelectivityVectors, build_selectivity_vectors
from repro.relational.query import Query
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel


@dataclass
class CandidateEnumerator:
    """Generates and maintains the candidate pool for one fact table."""

    fact: str
    queries: list[Query]
    stats: TableStatistics
    disk: DiskModel
    cost_model: CostModel
    primary_key: tuple[str, ...]
    fk_attrs: tuple[str, ...] = ()
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    t0: int = 2
    seed: int = 0
    max_k: int | None = None
    propagate: bool = True
    # Optional per-fact k-means memo: the incremental designer threads one
    # through so sweep cells untouched by a workload delta skip clustering
    # and changed cells warm-seed from the previous assignment; the key
    # designer's recursive splits share it.
    grouping_memo: GroupingMemo | None = None
    vectors: SelectivityVectors = field(init=False)
    designer: ClusteredIndexDesigner = field(init=False)
    _query_by_name: dict[str, Query] = field(init=False)
    # Log of groups whose clustered keys were already designed, keyed by
    # the member queries' (name, fingerprint) pairs and t — the incremental
    # update path consults this to skip re-designing groups that survived a
    # workload delta unchanged.  Fingerprints make the key content-aware: a
    # query whose predicates changed under the same name invalidates every
    # group it belongs to.
    designed_groups: set[tuple[frozenset, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.vectors = build_selectivity_vectors(
            self.queries, self.stats, propagate=self.propagate
        )
        self.designer = ClusteredIndexDesigner(
            stats=self.stats,
            disk=self.disk,
            cost_model=self.cost_model,
            vectors=self.vectors,
            seed=self.seed,
            grouping_memo=self.grouping_memo,
        )
        self._query_by_name = {q.name: q for q in self.queries}
        self.designed_groups = set()

    def with_queries(self, queries: list[Query]) -> "CandidateEnumerator":
        """A new enumerator over a changed query list that reuses the
        expensive per-fact inputs (table statistics, the cost model and
        with it every price already computed) and carries over the
        designed-group log — the incremental-update rebuild.
        ``dataclasses.replace`` keeps every other field (including ones
        added later) in sync by construction; ``__post_init__`` re-derives
        the selectivity vectors for the new query list."""
        clone = replace(self, queries=queries)
        clone.designed_groups = set(self.designed_groups)
        return clone

    # ------------------------------------------------------------- runtimes

    def compute_runtimes(
        self, candidate: MVCandidate, queries: list[Query] | None = None
    ) -> None:
        """Fill model runtimes for every workload query the candidate
        covers (coverage is attribute-based, not group-based).  ``queries``
        restricts the computation to a subset — how incremental updates add
        runtimes for newly arrived queries.  A (shape, query content) pair
        priced before costs one lookup in the cost model's memo."""
        geometry = ObjectGeometry.from_attrs(
            self.stats, self.disk, candidate.attrs, candidate.cluster_key
        )
        for q in self.queries if queries is None else queries:
            if candidate.covers(q):
                candidate.runtimes[q.name] = self.cost_model.query_seconds(
                    geometry, q
                )

    def base_seconds(self, queries: list[Query] | None = None) -> dict[str, float]:
        """Per-query model runtime on the base design: the fact table
        clustered by its primary key, no additional objects.  ``queries``
        restricts to a subset (incremental updates price only arrivals)."""
        geometry = ObjectGeometry.from_attrs(
            self.stats, self.disk, tuple(self.stats.table.column_names),
            self.primary_key,
        )
        return {
            q.name: self.cost_model.query_seconds(geometry, q)
            for q in (self.queries if queries is None else queries)
        }

    # ------------------------------------------------------------ candidates

    def group_queries(self, group: frozenset[str]) -> list[Query]:
        return [q for q in self.queries if q.name in group]

    def _group_log_key(self, members: list[Query], t: int | None) -> tuple:
        return (
            frozenset((q.name, q.fingerprint()) for q in members),
            t if t is not None else self.t0,
        )

    def has_designed(self, group: frozenset[str], t: int | None = None) -> bool:
        """Whether clustered keys were already designed for ``group`` (as
        its members currently read) at level ``t`` (default ``t0``)."""
        members = self.group_queries(group)
        return (
            bool(members)
            and self._group_log_key(members, t) in self.designed_groups
        )

    def add_mv_candidates(
        self,
        candidates: CandidateSet,
        group: frozenset[str],
        t: int | None = None,
        skip_designed: bool = False,
    ) -> list[MVCandidate]:
        """Design clustered keys for ``group`` and add one candidate per
        key; returns the (non-duplicate) additions.

        ``skip_designed`` short-circuits groups already in the designed log
        *before* the (expensive) key design runs — the incremental-update
        fast path.  It is an approximation only when a previously designed
        candidate was since evicted (feedback's oversize removal at a
        smaller budget); the from-scratch pipeline never sets it.
        """
        members = self.group_queries(group)
        if not members:
            return []
        log_key = self._group_log_key(members, t)
        if skip_designed and log_key in self.designed_groups:
            return []
        self.designed_groups.add(log_key)
        attrs = ordered_mv_attrs((), members)
        added: list[MVCandidate] = []
        for key, _score in self.designer.design_for_group(
            members, attrs, t=t if t is not None else self.t0
        ):
            full_attrs = ordered_mv_attrs(key, members)
            if candidates.has_signature(self.fact, full_attrs, key, KIND_MV):
                continue
            candidate = MVCandidate(
                cand_id=candidates.next_id("mv"),
                fact=self.fact,
                group=group,
                attrs=full_attrs,
                cluster_key=key,
                size_bytes=mv_size_bytes(self.stats, self.disk, full_attrs, key),
                kind=KIND_MV,
            )
            self.compute_runtimes(candidate)
            stored = candidates.add(candidate)
            if stored is not None:
                added.append(stored)
        return added

    def add_shard_candidates(
        self,
        candidates: CandidateSet,
        sharded,
        synopsis_rows: int = 2048,
        max_per_query: int | None = None,
    ):
        """Per-shard vs global candidates: add shard-local MVs for a
        :class:`~repro.storage.sharded.ShardedHeapFile` of this fact
        (delegates to :class:`~repro.design.shard_candidates.
        ShardCandidateEnumerator`); returns the enumerator so callers can
        reuse its sharded base-runtime pricing."""
        from repro.design.shard_candidates import ShardCandidateEnumerator

        enumerator = ShardCandidateEnumerator(
            fact=self.fact,
            sharded=sharded,
            queries=self.queries,
            disk=self.disk,
            synopsis_rows=synopsis_rows,
            seed=self.seed,
        )
        enumerator.add_shard_candidates(
            candidates, max_per_query=max_per_query
        )
        return enumerator

    def enumerate(self, candidates: CandidateSet | None = None) -> CandidateSet:
        """The initial pool: k-means groups (alpha x k sweep, singletons and
        the full group always included) plus fact re-clusterings."""
        if candidates is None:
            candidates = CandidateSet()
        groups = enumerate_query_groups(
            self.queries,
            self.vectors,
            self.stats,
            alphas=self.alphas,
            seed=self.seed,
            max_k=self.max_k,
            memo=self.grouping_memo,
        )
        for group in groups:
            self.add_mv_candidates(candidates, group)
        reclusterings = enumerate_fact_reclusterings(
            candidates,
            self.fact,
            self.queries,
            self.stats,
            self.disk,
            self.fk_attrs,
            self.primary_key,
        )
        for candidate in reclusterings:
            self.compute_runtimes(candidate)
        return candidates
