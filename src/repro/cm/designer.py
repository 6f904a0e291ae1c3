"""The CM Designer (Appendix A-1.2).

Given a materialized MV (a clustered heap file) and the queries it serves,
the designer picks, per query, the fastest Correlation Map within a per-CM
space limit (1 MB in the paper): it enumerates candidate key attributes
(predicated attributes not already served by the clustered prefix, plus
two-attribute composites), a ladder of key-side bucket widths, and a fixed
clustered-side width, prices the scan through each candidate on the
simulated disk, and keeps the winner.  Identical winners across queries are
deduplicated.

A CM is a function of two column sets and nothing else, so what a candidate
*would* return is read off the heap file's own columns
(:class:`CandidatePricer`) and a :class:`~repro.cm.correlation_map.
CorrelationMap` is built only for a candidate that beats the best so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import EvalContext, get_session
from repro.relational.query import Query
from repro.storage.access import (
    SimulatedCost,
    clustered_scan,
    cm_scan_plan,
    full_scan,
    guided_scan_cost,
    usable_cluster_prefix,
)
from repro.storage.layout import HeapFile
from repro.cm.bucketing import bucket_codes, candidate_widths, entries_match
from repro.cm.correlation_map import CorrelationMap

DEFAULT_CM_BUDGET_BYTES = 1 << 20  # 1 MB per CM, as in the paper.


class CandidatePricer:
    """What scanning one (heap file, query) through a candidate CM would
    cost, priced from the file's columns instead of from a built CM.

    A CM entry is one distinct bucketed key value and holds the clustered
    buckets of the sorted-region rows carrying it, so ``CorrelationMap.
    lookup`` returns exactly the distinct clustered buckets of the rows whose
    *bucketed* key values pass ``entries_match`` — the CM's conservative
    bucket test, not ``Predicate.mask``, over the rows ``_build`` reads,
    tombstoned ones included.  Ranks are non-decreasing in heap order, so
    the buckets gathered under that row mask come out sorted; from there
    the fragments (:meth:`~repro.storage.layout.HeapFile.
    page_fragments_for_prefix_buckets`) and the charge are the kernel
    :func:`~repro.storage.access.cm_scan` runs.  One row mask per (key
    attribute, width) serves every candidate of the query.

    Candidates use the full cluster key as their prefix depth, and every
    key attribute must be predicated by the query — what
    :meth:`CMDesigner.candidate_keys` enumerates.
    """

    def __init__(self, heapfile: HeapFile, query: Query, cluster_width: int) -> None:
        self.heapfile = heapfile
        self.query = query
        self.cluster_width = cluster_width
        self.depth = len(heapfile.cluster_key)
        self._row_masks: dict[tuple[str, int], np.ndarray] = {}

    def _row_mask(self, attr: str, width: int) -> np.ndarray:
        mask = self._row_masks.get((attr, width))
        if mask is None:
            hf = self.heapfile
            buckets = bucket_codes(hf.table.column(attr)[: hf.sorted_rows], width)
            mask = entries_match(self.query.predicate_on(attr), buckets, width)
            self._row_masks[(attr, width)] = mask
        return mask

    def buckets(
        self, key_attrs: tuple[str, ...], key_widths: tuple[int, ...]
    ) -> np.ndarray:
        """The sorted distinct clustered buckets the candidate's lookup
        would return."""
        mask = self._row_mask(key_attrs[0], key_widths[0])
        for attr, width in zip(key_attrs[1:], key_widths[1:]):
            mask = mask & self._row_mask(attr, width)
        hit = bucket_codes(
            self.heapfile.prefix_ranks(self.depth)[mask], self.cluster_width
        )
        if len(hit) < 2:
            return hit
        first = np.ones(len(hit), dtype=bool)
        first[1:] = hit[1:] != hit[:-1]
        return hit[first]

    def cost(
        self, key_attrs: tuple[str, ...], key_widths: tuple[int, ...]
    ) -> SimulatedCost:
        """What :func:`~repro.storage.access.cm_scan` would charge."""
        fragments = self.heapfile.page_fragments_for_prefix_buckets(
            self.depth, self.cluster_width, self.buckets(key_attrs, key_widths)
        )
        return guided_scan_cost(self.heapfile, fragments)


@dataclass
class CMDesigner:
    """Enumerates and selects CMs for one heap file."""

    budget_bytes: int = DEFAULT_CM_BUDGET_BYTES
    max_composite: int = 2
    cluster_width: int = 4
    max_widths: int = 4

    def candidate_keys(self, heapfile: HeapFile, query: Query) -> list[tuple[str, ...]]:
        """Key attribute sets worth trying for this query on this heap file:
        predicated attributes outside the usable clustered prefix, singly and
        in pairs.  None on an unclustered file — a CM maps to clustered
        ranks, and there are none."""
        if not heapfile.cluster_key:
            return []
        prefix_depth = usable_cluster_prefix(heapfile, query)
        served = set(heapfile.cluster_key[:prefix_depth])
        attrs = [
            a for a in query.predicate_attrs()
            if a not in served and heapfile.table.has_column(a)
        ]
        keys: list[tuple[str, ...]] = [(a,) for a in attrs]
        if self.max_composite >= 2:
            for i, a in enumerate(attrs):
                for b in attrs[i + 1:]:
                    keys.append((a, b))
        return keys

    def best_cm_for_query(
        self, heapfile: HeapFile, query: Query
    ) -> tuple[CorrelationMap | None, float]:
        """(winning CM, its measured scan seconds); (None, baseline seconds)
        when no CM beats the plans already available on the heap file."""
        # One evaluation context across the baseline plans: the query mask
        # is computed once.
        ctx = EvalContext(heapfile, query)
        baseline = full_scan(heapfile, query, ctx).seconds
        cscan = clustered_scan(heapfile, query, ctx)
        if cscan is not None:
            baseline = min(baseline, cscan.seconds)
        best_cm: CorrelationMap | None = None
        best_seconds = baseline
        session = get_session()
        pricer = CandidatePricer(heapfile, query, self.cluster_width)
        for key in self.candidate_keys(heapfile, query):
            if session is not None:
                ndistinct = session.distinct_count(heapfile, key)
            else:
                ndistinct = heapfile.table.distinct_count(key)
            for width in candidate_widths(ndistinct, self.max_widths):
                widths = (width,) + tuple(1 for _ in key[1:])
                cost = pricer.cost(key, widths)
                if not cost.seconds < best_seconds:
                    continue
                # Only a candidate that would win is worth a build — and
                # its size is known only once it is built.
                if session is not None:
                    # CM construction is query-independent; the session
                    # builds each (file, key, widths) candidate once.
                    cm = session.correlation_map(
                        heapfile, key, widths, self.cluster_width
                    )
                else:
                    cm = CorrelationMap(
                        heapfile,
                        key,
                        key_widths=widths,
                        cluster_width=self.cluster_width,
                    )
                if cm.size_bytes > self.budget_bytes:
                    continue
                best_seconds = cost.seconds
                best_cm = cm
                if session is not None:
                    # The executor's later scan through the winner is this
                    # scan: leave it the (plan, cost) it would compute.
                    session.store_scan_cost(
                        heapfile, cm, query, cm_scan_plan(cm), cost
                    )
        return best_cm, best_seconds

    def design(self, heapfile: HeapFile, queries: list[Query]) -> list[CorrelationMap]:
        """The deduplicated set of winning CMs across ``queries``."""
        session = get_session()
        chosen: dict[str, CorrelationMap] = {}
        for query in queries:
            if session is not None:
                # The winner for one (object, query) pair is independent of
                # the other queries, so it is shared across budgets even
                # when the object's assigned-query set changes.
                cm, _ = session.best_cm_for_query(self, heapfile, query)
            else:
                cm, _ = self.best_cm_for_query(heapfile, query)
            if cm is not None and cm.name not in chosen:
                chosen[cm.name] = cm
        return list(chosen.values())


def design_cms_for_object(
    heapfile: HeapFile,
    queries: list[Query],
    budget_bytes: int = DEFAULT_CM_BUDGET_BYTES,
) -> list[CorrelationMap]:
    """Convenience wrapper: default-configured designer over one object."""
    designer = CMDesigner(budget_bytes=budget_bytes)
    return designer.design(heapfile, [q for q in queries])
