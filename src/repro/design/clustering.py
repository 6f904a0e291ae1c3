"""Clustered-index design: dedicated keys + recursive merge (Section 4.2).

For a single query the optimal key is direct: predicated attributes ordered
by predicate type (equality, then range, then IN — equality keeps the access
contiguous, IN fragments it) and, within a type, by ascending selectivity.

For a query group, the designer follows Figure 3: split the group in two
(k-means, k=2, over the selectivity vectors), recurse to get the top-*t*
keys of each side, then merge every pair of keys — exploring *both
concatenation and order-preserving interleaving* (Figure 4; the paper
measured concatenation-only merging up to 90% slower) — score every merged
key with the correlation-aware cost model over the whole group, and keep the
top *t*.

Attribute dropping bounds key length: once the leading attributes' joint
distinct count exceeds a multiple of the MV's page count, further attributes
cannot change which page a row lands on, so they are dropped (the paper: "in
practice, this limits the number of attributes in the clustered index to 7
or 8").

What no candidate key changes about a group's MV — row bytes, pages,
full-scan seconds, and with the pages the attribute-dropping ceiling — is
sized once per attribute set; a key only sets the B+Tree height.  Prices
come from the cost model, which memoises them by content (so a score
survives this designer), and a split already clustered for the same points
and seed is looked up in the enumerator's
:class:`~repro.design.grouping.GroupingMemo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.costmodel.base import CostModel, ObjectGeometry
from repro.design.kmeans import kmeans
from repro.design.selectivity import SelectivityVectors
from repro.relational.query import Query
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel

if TYPE_CHECKING:  # the enumerator hands its own memo over
    from repro.design.grouping import GroupingMemo


def order_preserving_merges(
    a: tuple[str, ...],
    b: tuple[str, ...],
    max_results: int = 64,
) -> list[tuple[str, ...]]:
    """All interleavings of ``a`` and ``b`` preserving both internal orders.

    Attributes appearing in both keys are removed from ``b`` first (their
    position in ``a`` wins).  Pure concatenations ``a+b`` and ``b+a`` are the
    first and last interleavings, so they are always present; when the count
    exceeds ``max_results``, an evenly spaced subset is kept (concatenations
    included).
    """
    b = tuple(x for x in b if x not in set(a))
    if not a:
        return [b]
    if not b:
        return [a]
    results: list[tuple[str, ...]] = []

    def recurse(prefix: tuple[str, ...], i: int, j: int) -> None:
        if i == len(a) and j == len(b):
            results.append(prefix)
            return
        if i < len(a):
            recurse(prefix + (a[i],), i + 1, j)
        if j < len(b):
            recurse(prefix + (b[j],), i, j + 1)

    recurse((), 0, 0)
    if len(results) <= max_results:
        return results
    idx = np.linspace(0, len(results) - 1, max_results).astype(int)
    kept = [results[i] for i in sorted(set(idx))]
    if results[0] not in kept:
        kept.insert(0, results[0])
    if results[-1] not in kept:
        kept.append(results[-1])
    return kept


@dataclass
class ClusteredIndexDesigner:
    """Enumerates the top-*t* clustered keys for a query group."""

    stats: TableStatistics
    disk: DiskModel
    cost_model: CostModel
    vectors: SelectivityVectors | None = None
    max_key_attrs: int = 8
    max_interleavings: int = 64
    # Concatenation-only merging, the prior-work behaviour the paper
    # measured as up to 90% slower (Section 4.2 / Figure 4).  Used by the
    # commercial-designer emulation and the merge ablation bench.
    concat_only: bool = False
    distinct_page_factor: float = 4.0
    seed: int = 0
    # The enumerator's per-fact k-means memo: a subgroup re-split under
    # another parent group is a lookup.  Without one (baselines, ablation
    # benches) every split clusters.
    grouping_memo: GroupingMemo | None = None
    # design_for_group answers per (members as (name, fingerprint,
    # frequency) in order, mv_attrs, t): feedback re-requests the same
    # group at the same t across rounds and budgets.  Valid while
    # ``vectors`` are — the enumerator builds a new designer with them.
    _group_memo: dict = field(default_factory=dict, repr=False)
    # mv_attrs -> unclustered geometry: everything about a group's MV that
    # no candidate key changes (row bytes, pages, full-scan seconds).
    _shapes: dict[tuple[str, ...], ObjectGeometry] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------- dedicated keys

    def predicate_order(self, query: Query) -> tuple[str, ...]:
        """Predicated attributes by (kind, ascending selectivity)."""
        ranked = sorted(
            query.predicates,
            key=lambda p: (p.kind, self.stats.predicate_selectivity(query, p.attr), p.attr),
        )
        return tuple(p.attr for p in ranked)

    def dedicated_key(
        self, query: Query, mv_attrs: tuple[str, ...] | None = None
    ) -> tuple[str, ...]:
        """The paper's dedicated-MV clustering for one query."""
        attrs = mv_attrs if mv_attrs is not None else query.attributes()
        key = self.predicate_order(query)
        return self.drop_useless(key, attrs)

    def dedicated_variants(self, query: Query, attrs: tuple[str, ...]) -> list[tuple[str, ...]]:
        """A few plausible single-query keys: the paper ordering plus a pure
        selectivity ordering (ignoring predicate kind) — cheap diversity for
        the merge step."""
        primary = self.dedicated_key(query, attrs)
        by_sel = tuple(
            p.attr
            for p in sorted(
                query.predicates,
                key=lambda p: (self.stats.predicate_selectivity(query, p.attr), p.attr),
            )
        )
        variants = [primary, self.drop_useless(by_sel, attrs)]
        out: dict[tuple[str, ...], None] = {}
        for v in variants:
            if v:
                out.setdefault(v)
        return list(out)

    # ------------------------------------------------------ attribute drop

    def drop_useless(
        self, key: tuple[str, ...], mv_attrs: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Truncate ``key`` once leading distinct counts exceed the useful
        ceiling (``distinct_page_factor x`` the MV's page count), and cap
        length at ``max_key_attrs``."""
        if not key:
            return key
        cap = self.distinct_page_factor * max(1, self._shape(mv_attrs).npages)
        kept: list[str] = []
        for attr in key[: self.max_key_attrs]:
            kept.append(attr)
            if self.stats.distinct(tuple(kept)) > cap:
                break
        return tuple(kept)

    # --------------------------------------------------------------- scoring

    def score_key(
        self,
        key: tuple[str, ...],
        mv_attrs: tuple[str, ...],
        queries: list[Query],
    ) -> float:
        """Frequency-weighted total model runtime of the group on an MV with
        this clustering."""
        total = 0.0
        geometry = self._shape(mv_attrs).clustered_by(self.stats, self.disk, key)
        for q in queries:
            total += q.frequency * self.cost_model.query_seconds(geometry, q)
        return total

    def _shape(self, mv_attrs: tuple[str, ...]) -> ObjectGeometry:
        shape = self._shapes.get(mv_attrs)
        if shape is None:
            shape = self._shapes[mv_attrs] = ObjectGeometry.from_attrs(
                self.stats, self.disk, mv_attrs, ()
            )
        return shape

    # ------------------------------------------------------------ the merge

    def _split(self, queries: list[Query]) -> tuple[list[Query], list[Query]]:
        """Figure 3's split: 2-means over the selectivity vectors, with a
        balanced fallback when k-means degenerates."""
        if self.vectors is not None:
            points = np.array(
                [self.vectors.as_point(q.name) for q in queries], dtype=np.float64
            )
            if self.grouping_memo is not None:
                labels = self.grouping_memo.split_labels(points, self.seed)
            else:
                labels = kmeans(points, 2, seed=self.seed).labels
            left = [q for q, lab in zip(queries, labels) if lab == 0]
            right = [q for q, lab in zip(queries, labels) if lab == 1]
            if left and right:
                return left, right
        half = len(queries) // 2
        return queries[:half], queries[half:]

    def design_for_group(
        self,
        queries: list[Query],
        mv_attrs: tuple[str, ...],
        t: int = 2,
    ) -> list[tuple[tuple[str, ...], float]]:
        """Top-``t`` clustered keys (with scores) for the group, best first."""
        if not queries:
            raise ValueError("empty query group")
        if t <= 0:
            raise ValueError("t must be positive")
        memo_key = (
            tuple((q.name, q.fingerprint(), q.frequency) for q in queries),
            mv_attrs,
            t,
        )
        ranked = self._group_memo.get(memo_key)
        if ranked is None:
            ranked = self._design_recursive(queries, mv_attrs, t)[:t]
            self._group_memo[memo_key] = ranked
        return list(ranked)

    def _rank(
        self,
        keys: list[tuple[str, ...]],
        mv_attrs: tuple[str, ...],
        queries: list[Query],
        t: int,
    ) -> list[tuple[tuple[str, ...], float]]:
        unique: dict[tuple[str, ...], None] = {}
        for key in keys:
            if key:
                unique.setdefault(key)
        scored = [
            (key, self.score_key(key, mv_attrs, queries)) for key in unique
        ]
        scored.sort(key=lambda item: (item[1], item[0]))
        return scored[:t]

    def _design_recursive(
        self,
        queries: list[Query],
        mv_attrs: tuple[str, ...],
        t: int,
    ) -> list[tuple[tuple[str, ...], float]]:
        if len(queries) == 1:
            return self._rank(
                self.dedicated_variants(queries[0], mv_attrs), mv_attrs, queries, t
            )
        left, right = self._split(queries)
        left_keys = self._design_recursive(left, mv_attrs, t)
        right_keys = self._design_recursive(right, mv_attrs, t)
        merged: list[tuple[str, ...]] = []
        limit = 2 if self.concat_only else self.max_interleavings
        for lk, _ in left_keys:
            for rk, _ in right_keys:
                for combo in order_preserving_merges(lk, rk, limit):
                    merged.append(self.drop_useless(combo, mv_attrs))
        # Each side's own best keys stay in the running: when one subgroup
        # dominates the group's runtime its undiluted key can win.
        merged.extend(k for k, _ in left_keys)
        merged.extend(k for k, _ in right_keys)
        return self._rank(merged, mv_attrs, queries, t)
