"""Shard-local design candidates: the ILP prices per-shard objects.

A global MV pays its size over the whole fact; a *shard-local* MV
materializes only one shard's rows, so it is ``~shards`` times smaller and —
because a query only ever scans its surviving shards — replacing one
surviving shard's scan is all it has to do to win.  Under a tight budget
that granularity matters: the ILP can spend bytes exactly where the workload
concentrates (hot shards) instead of buying all-or-nothing global objects.

:class:`ShardCandidateEnumerator` prices everything with the sharded
system's own cost structure: a query's base runtime is the *sum over its
surviving shards* of each shard's best base scan, and a shard-local
candidate's runtime for a query substitutes its (shard-statistics-priced)
scan for that one shard's term, leaving the other survivors' terms intact.
Candidates are tagged ``kind="shard_mv[s<i>]"`` so two shards' candidates
with identical attrs/key never collide in :meth:`MVCandidate.signature`,
and — not being ``KIND_FACT_RECLUSTER`` — they are exempt from the
one-clustering-per-fact constraint, exactly like global MVs.

Adding shard-local candidates only ever *grows* the ILP's feasible set, so
the optimum at any budget is no worse than global-only; on skewed mixes it
is strictly better (``tests/test_sharded.py::
test_ilp_shard_candidates_no_worse_and_strictly_better``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.base import ObjectGeometry
from repro.costmodel.correlation_aware import CorrelationAwareCostModel
from repro.design.mv import CandidateSet, MVCandidate, mv_size_bytes
from repro.relational.query import Query
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel
from repro.storage.sharded import ShardedHeapFile


def shard_cluster_key(query: Query) -> tuple[str, ...]:
    """Cluster key for a query-local candidate: predicate attributes,
    equality first (Section 4.2's kind ordering, stable within a kind)."""
    preds = sorted(query.predicates, key=lambda p: p.kind)
    return tuple(p.attr for p in preds)


@dataclass
class ShardCandidateEnumerator:
    """Enumerates and prices shard-local MV candidates for one fact."""

    fact: str
    sharded: ShardedHeapFile
    queries: list[Query]
    disk: DiskModel
    synopsis_rows: int = 2048
    seed: int = 0
    _shard_stats: dict[int, TableStatistics] = field(default_factory=dict)
    _shard_models: dict[int, CorrelationAwareCostModel] = field(
        default_factory=dict
    )
    _survivors: dict[str, tuple[int, ...]] = field(default_factory=dict)
    _shard_base: dict[str, dict[int, float]] = field(default_factory=dict)

    def stats_for(self, s: int) -> TableStatistics:
        stats = self._shard_stats.get(s)
        if stats is None:
            stats = TableStatistics(
                self.sharded.shards[s].table,
                synopsis_rows=self.synopsis_rows,
                seed=self.seed,
            )
            self._shard_stats[s] = stats
        return stats

    def model_for(self, s: int) -> CorrelationAwareCostModel:
        model = self._shard_models.get(s)
        if model is None:
            model = CorrelationAwareCostModel(self.stats_for(s), self.disk)
            self._shard_models[s] = model
        return model

    def survivors(self, query: Query) -> tuple[int, ...]:
        surv = self._survivors.get(query.name)
        if surv is None:
            surv = tuple(
                int(s) for s in self.sharded.shards_for_query(query)
            )
            self._survivors[query.name] = surv
        return surv

    def shard_base_seconds(self, query: Query) -> dict[int, float]:
        """Each surviving shard's base-scan term for ``query`` (the
        shard-geometry cost of reading the shard without extra objects)."""
        per = self._shard_base.get(query.name)
        if per is None:
            per = {}
            for s in self.survivors(query):
                geometry = ObjectGeometry.from_heapfile(self.sharded.shards[s])
                per[s] = self.model_for(s).query_seconds(geometry, query)
            self._shard_base[query.name] = per
        return per

    def base_seconds(self) -> dict[str, float]:
        """The sharded system's base runtime per query: sum of its surviving
        shards' base terms (pruned shards cost nothing — already the win the
        design starts from)."""
        return {
            q.name: sum(self.shard_base_seconds(q).values())
            for q in self.queries
        }

    def add_shard_candidates(
        self, candidates: CandidateSet, max_per_query: int | None = None
    ) -> list[MVCandidate]:
        """One candidate per (query, surviving non-empty shard): the
        query's attributes clustered by its predicate key, materialized for
        that shard only.  Runtimes are filled for *every* query the
        candidate covers whose survivor set includes the shard."""
        added: list[MVCandidate] = []
        for q in self.queries:
            key = shard_cluster_key(q)
            if not key:
                continue
            attrs = key + tuple(
                a for a in q.attributes() if a not in key
            )
            shards = [
                s for s in self.survivors(q)
                if self.sharded.shards[s].nrows > 0
            ]
            if max_per_query is not None:
                shards = shards[:max_per_query]
            for s in shards:
                kind = f"shard_mv[s{s}]"
                if candidates.has_signature(self.fact, attrs, key, kind):
                    continue
                stats = self.stats_for(s)
                model = self.model_for(s)
                geometry = ObjectGeometry.from_attrs(
                    stats, self.disk, attrs, key
                )
                cand = MVCandidate(
                    cand_id=candidates.next_id(f"s{s}mv"),
                    fact=self.fact,
                    group=frozenset([q.name]),
                    attrs=attrs,
                    cluster_key=key,
                    size_bytes=mv_size_bytes(stats, self.disk, attrs, key),
                    kind=kind,
                )
                for q2 in self.queries:
                    if not cand.covers(q2):
                        continue
                    base_terms = self.shard_base_seconds(q2)
                    if s not in base_terms:
                        continue  # shard pruned for q2: candidate useless
                    local = model.query_seconds(geometry, q2)
                    others = sum(
                        t for s2, t in base_terms.items() if s2 != s
                    )
                    cand.runtimes[q2.name] = local + others
                stored = candidates.add(cand)
                if stored is not None:
                    added.append(stored)
        return added
