"""The paper's correlation-aware cost model (Appendix A-2.2).

    cost      = cost_read + cost_seek
    cost_read = fullscancost x selectivity          (fraction of table read)
    cost_seek = seek_cost x fragments x btree_height

with ``fragments`` = the number of contiguous clustered-key groups the
query's predicates co-occur with — estimated, as in the paper, by running
the Adaptive Estimator over the table synopsis ("we run AE over random
samples on the fly to estimate fragments and selectivity for a given MV
design and query").

The model prices three plan families on a hypothetical MV and returns the
cheapest: a full scan, a clustered-prefix scan, and a CM-assisted scan
(predicates on unclustered attributes resolved through a Correlation Map).
One core (:meth:`CorrelationAwareCostModel._best_plan`) does the pricing, in
scalars; ``explain`` formats its answer as a :class:`PlanEstimate`,
``query_seconds`` memoises the seconds on the model by content.  The
``PlanEstimate``-per-plan chain it replaced is the oracle in
``tests/reference_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.base import ObjectGeometry, PlanEstimate
from repro.relational.query import KIND_EQ, Query
from repro.stats.collector import TableStatistics
from repro.storage.disk import DiskModel


def expected_runs(groups_hit: float, groups_total: float) -> float:
    """Expected number of maximal runs when ``groups_hit`` of
    ``groups_total`` ordered groups are selected (uniformly at random):
    ``k (D - k + 1) / D``.  Captures both regimes — hitting nearly all
    groups yields one big run; hitting few yields one run each."""
    k, d = groups_hit, groups_total
    if d <= 0 or k <= 0:
        return 0.0
    k = min(k, d)
    return max(1.0, k * (d - k + 1.0) / d)


# Plan families, in the order ties are broken (``explain`` names them).
_FULL_SCAN, _CLUSTERED, _CM = range(3)


@dataclass
class CorrelationAwareCostModel:
    """CORADD's cost model, bound to one fact table's statistics.

    Prices are memoised on the model, by content: given that the object
    covers the query, the best plan's seconds follow from the object's row
    width, page count, B+Tree height, full-scan time and clustered key, and
    from the query's predicates — never from a name or a frequency.  The
    designer keeps one model per fact for its whole life, so a price
    survives ``with_queries``, ``update()`` and feedback rounds.  Like the
    statistics' own caches, the memo assumes an immutable synopsis.
    """

    stats: TableStatistics
    disk: DiskModel
    use_cm: bool = True
    # (row bytes, pages, height, full-scan s, cluster key, fingerprint) -> s
    _prices: dict[tuple, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------ internals

    def _max_fragments(self, geometry: ObjectGeometry) -> float:
        """Physical ceiling on fragments after readahead coalescing: runs
        must be separated by more than the readahead gap."""
        return max(1.0, geometry.npages / (self.disk.fragment_gap_pages + 1.0))

    def _usable_prefix(self, geometry: ObjectGeometry, query: Query) -> int:
        depth = 0
        for attr in geometry.cluster_key:
            pred = query.predicate_on(attr)
            if pred is None:
                break
            depth += 1
            if pred.kind != KIND_EQ:
                break
        return depth

    def _gap_rows(self, geometry: ObjectGeometry) -> int:
        rows_per_page = self.disk.rows_per_page(max(geometry.row_bytes, 1))
        return self.disk.fragment_gap_pages * rows_per_page

    def _scan_terms(
        self,
        query: Query,
        group_attrs: tuple[str, ...],
        pred_attrs: tuple[str, ...],
        gap_rows: int,
    ) -> tuple[float, float]:
        """(fragments, scanned fraction) of a scan that reads every
        clustered group of ``group_attrs`` co-occurring with the predicates
        on ``pred_attrs``, before the physical fragment ceiling.

        Primary estimator: layout simulation on the synopsis (fragments and
        scanned fraction read off the sorted sample).  Fallback when the
        synopsis has too few matching rows: AE-scaled distinct counts of the
        co-occurring groups, with the expected-runs adjacency correction —
        the paper's "AE over random samples on the fly" path.
        """
        layout = self.stats.estimate_layout(
            group_attrs, query, gap_rows, pred_attrs=pred_attrs
        )
        if layout is not None:
            return layout
        mask = self.stats.sample_mask(query, attrs=pred_attrs)
        groups_total = max(1.0, self.stats.distinct(group_attrs))
        groups_hit = self.stats.distinct_among(mask, group_attrs)
        if groups_hit <= 0.0:
            sel = max(
                self.stats.query_selectivity(query),
                1.0 / max(self.stats.nrows, 1),
            )
            groups_hit = max(1.0, sel * groups_total)
        return (
            expected_runs(groups_hit, groups_total),
            min(1.0, groups_hit / groups_total),
        )

    def _best_plan(
        self, geometry: ObjectGeometry, query: Query
    ) -> tuple[float, int, float, float]:
        """The one pricing core: (seconds, plan family, fragments, scanned
        fraction) of the cheapest plan for a *covered* query, as scalars.
        Ties go full scan, then clustered, then CM."""
        full_scan_s = geometry.full_scan_s
        seek_cost_s = self.disk.seek_cost_s
        best = (full_scan_s + seek_cost_s, _FULL_SCAN, 1.0, 1.0)
        cluster_key = geometry.cluster_key
        if not cluster_key:
            return best
        depth = self._usable_prefix(geometry, query)
        scans = []
        if depth:
            prefix = cluster_key[:depth]
            scans.append((_CLUSTERED, prefix, prefix))
        if self.use_cm and query.predicates:
            # Coverage puts every predicated attribute in the object.
            scans.append((_CM, cluster_key, query.predicate_attrs()))
        if not scans:
            return best
        gap_rows = self._gap_rows(geometry)
        max_fragments = self._max_fragments(geometry)
        height = geometry.btree_height
        for family, group_attrs, pred_attrs in scans:
            fragments, fraction = self._scan_terms(
                query, group_attrs, pred_attrs, gap_rows
            )
            fragments = min(fragments, max_fragments)
            read_s = full_scan_s * fraction
            seek_s = seek_cost_s * fragments * height
            seconds = read_s + seek_s
            if seconds < best[0]:
                best = (seconds, family, fragments, fraction)
        return best

    def secondary_btree_plan(
        self, geometry: ObjectGeometry, query: Query, key_attrs: tuple[str, ...]
    ) -> PlanEstimate:
        """Price a sorted scan through a dense secondary B+Tree on
        ``key_attrs`` — the plan Figure 10 measures.  Same layout machinery
        as the CM plan but without group expansion: only pages holding
        matching rows are read, and each fragment costs a descent."""
        layout = self.stats.estimate_layout(
            geometry.cluster_key,
            query,
            self._gap_rows(geometry),
            pred_attrs=key_attrs,
            expand_groups=False,
        )
        if layout is not None:
            fragments, fraction = layout
        else:
            sel = 1.0
            for attr in key_attrs:
                sel *= self.stats.predicate_selectivity(query, attr)
            matching = sel * self.stats.nrows
            rows_per_page = self.disk.rows_per_page(max(geometry.row_bytes, 1))
            fragments = min(matching, geometry.npages)
            fraction = min(1.0, matching / max(rows_per_page, 1) / max(geometry.npages, 1))
        fragments = min(fragments, self._max_fragments(geometry))
        # Each fragment spans at least one page.
        fraction = max(fraction, fragments / max(geometry.npages, 1))
        read_s = geometry.full_scan_s * fraction
        seek_s = self.disk.seek_cost_s * fragments * geometry.btree_height
        return PlanEstimate(
            plan=f"secondary_btree[{','.join(key_attrs)}]",
            seconds=read_s + seek_s,
            read_s=read_s,
            seek_s=seek_s,
            fragments=fragments,
            scanned_fraction=fraction,
        )

    # -------------------------------------------------------------- surface

    def explain(self, geometry: ObjectGeometry, query: Query) -> PlanEstimate:
        if not geometry.covers(query):
            return PlanEstimate(plan="not_covered", seconds=float("inf"))
        seconds, family, fragments, fraction = self._best_plan(geometry, query)
        if family == _FULL_SCAN:
            plan = "full_scan"
            read_s, seek_s = geometry.full_scan_s, self.disk.seek_cost_s
        else:
            if family == _CLUSTERED:
                depth = self._usable_prefix(geometry, query)
                plan = f"clustered[{','.join(geometry.cluster_key[:depth])}]"
            else:
                plan = f"cm[{','.join(query.predicate_attrs())}]"
            read_s = geometry.full_scan_s * fraction
            seek_s = self.disk.seek_cost_s * fragments * geometry.btree_height
        return PlanEstimate(
            plan=plan,
            seconds=seconds,
            read_s=read_s,
            seek_s=seek_s,
            fragments=fragments,
            scanned_fraction=fraction,
        )

    def query_seconds(self, geometry: ObjectGeometry, query: Query) -> float:
        if not geometry.covers(query):
            return float("inf")
        key = (
            geometry.row_bytes,
            geometry.npages,
            geometry.btree_height,
            geometry.full_scan_s,
            geometry.cluster_key,
            query.fingerprint(),
        )
        seconds = self._prices.get(key)
        if seconds is None:
            seconds = self._prices[key] = self._best_plan(geometry, query)[0]
        return seconds
