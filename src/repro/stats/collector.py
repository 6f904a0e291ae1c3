"""Statistics facade: everything the designer knows about one fact table.

Mirrors the paper's startup pass (Appendix A-2.2): one scan of the database
collects (1) attribute cardinalities, (2) FD strengths, (3) workload
predicate selectivities, and (4) a random synopsis over which the Adaptive
Estimator runs "on the fly to estimate fragments and selectivity for a given
MV design and query".

A :class:`TableStatistics` is bound to one *flattened* fact table (fact
columns + reachable dimension columns) because that is the attribute
universe MV candidates draw from.

Everything derived from the synopsis is memoised on the object, keyed by
content: the order and group counts of every key asked for, refined from its
parent prefix's over columns dense-coded once (``corr.index``, the
:class:`~repro.stats.keyindex.KeyIndex` shared with the strengths), masks per
predicate and per predicate *set* (``_pred_mask_cache``,
``_conj_mask_cache``), and the layout simulation per (cluster key, predicate
set) (``_scan_memo``, see :meth:`TableStatistics.estimate_layout`).  A
predicate is named by itself — a frozen, value-compared dataclass — and a
predicate set by the frozenset the :class:`~repro.relational.query.Query`
derives once at construction, never by display text.  The
caches are sound because the synopsis is immutable today; the change that
folds refresh samples into it (ROADMAP 1(c), stale statistics) must replace
the key index (with it the correlation model's distinct counts and
strengths) and clear the other three — and, one layer up, the price memo of
every :class:`~repro.costmodel.correlation_aware.CorrelationAwareCostModel`
bound to these statistics, which stores what the layout estimates added up
to.
"""

from __future__ import annotations

import numpy as np

from repro.relational.query import Predicate, Query
from repro.relational.table import Table
from repro.stats.correlation import CorrelationModel
from repro.stats.distinct import scale_counts
from repro.stats.histogram import EquiWidthHistogram
from repro.stats.sampling import reservoir_sample_indices


class TableStatistics:
    """Cardinalities, strengths, selectivities and a synopsis for one table."""

    def __init__(
        self,
        table: Table,
        synopsis_rows: int = 4096,
        seed: int = 0,
        estimator: str = "ae",
    ) -> None:
        self.table = table
        self.nrows = table.nrows
        self.estimator = estimator
        idx = reservoir_sample_indices(table.nrows, synopsis_rows, seed)
        self.synopsis = table.select(idx, new_name=f"{table.schema.name}_synopsis")
        # Strengths and cardinalities come from the synopsis with estimator
        # scale-up — the paper's sampling-based discovery — except when the
        # table is small enough that the synopsis *is* the table (sample
        # indices are sorted, so it then holds the table's rows in order).
        sample_is_table = self.synopsis.nrows >= table.nrows
        self.corr = CorrelationModel(
            self.synopsis,
            n_total=table.nrows,
            estimator="exact" if sample_is_table else estimator,
        )
        self._histograms: dict[str, EquiWidthHistogram] = {}
        self._query_sel: dict[frozenset[Predicate], float] = {}
        self._pred_sel: dict[Predicate, float] = {}
        self._pred_mask_cache: dict[Predicate, np.ndarray] = {}
        self._conj_mask_cache: dict[frozenset[Predicate], np.ndarray] = {}
        self._scan_memo: dict[
            tuple[tuple[str, ...], frozenset[Predicate]],
            tuple[int, float, np.ndarray],
        ] = {}

    # ----------------------------------------------------------- primitives

    def histogram(self, attr: str, nbuckets: int = 64) -> EquiWidthHistogram:
        hist = self._histograms.get(attr)
        if hist is None:
            hist = EquiWidthHistogram(self.table.column(attr), nbuckets)
            self._histograms[attr] = hist
        return hist

    def distinct(self, attrs: tuple[str, ...]) -> float:
        """(Estimated) distinct count of a joint key."""
        return self.corr.distinct(tuple(attrs))

    def strength(self, determinant: tuple[str, ...], dependent: tuple[str, ...]) -> float:
        return self.corr.strength(tuple(determinant), tuple(dependent))

    # --------------------------------------------------------- selectivities

    def predicate_selectivity(self, query: Query, attr: str) -> float:
        """Exact selectivity of the query's predicate on ``attr`` (1.0 when
        unpredicated), memoized.  The paper computes these by scanning.

        The cache is keyed by the predicate itself, not the query name —
        distinct Query objects may reuse a name (common in tests and ad-hoc
        exploration) and must never see each other's entries.
        """
        pred = query.predicate_on(attr)
        if pred is None:
            return 1.0
        cached = self._pred_sel.get(pred)
        if cached is not None:
            return cached
        value = pred.selectivity(self.table)
        self._pred_sel[pred] = value
        return value

    def query_selectivity(self, query: Query) -> float:
        """Exact conjunctive selectivity of the whole query, memoized."""
        key = query.predicate_keys()
        cached = self._query_sel.get(key)
        if cached is not None:
            return cached
        value = query.selectivity(self.table)
        self._query_sel[key] = value
        return value

    # --------------------------------------- synopsis-driven fragment inputs

    def sample_mask(self, query: Query, attrs: tuple[str, ...] | None = None) -> np.ndarray:
        """Read-only boolean mask of synopsis rows matching the query's
        predicates (restricted to ``attrs`` when given), cached per
        predicate set."""
        return self._conjunction_mask(query.predicate_keys(attrs))

    def _conjunction_mask(self, preds: frozenset[Predicate]) -> np.ndarray:
        """Cached read-only mask of the (unsorted) synopsis under the AND of
        ``preds``; the empty set is the all-true mask.  Single-predicate
        masks are cached too, shared by every conjunction they appear in."""
        mask = self._conj_mask_cache.get(preds)
        if mask is None:
            mask = np.ones(self.synopsis.nrows, dtype=bool)
            for pred in preds:
                single = self._pred_mask_cache.get(pred)
                if single is None:
                    single = pred.mask(self.synopsis.column(pred.attr))
                    self._pred_mask_cache[pred] = single
                mask &= single
            mask.flags.writeable = False
            self._conj_mask_cache[preds] = mask
        return mask

    def _simulate_scan(
        self, cluster_key: tuple[str, ...], mask: np.ndarray
    ) -> tuple[int, float, np.ndarray]:
        """(matching rows, scanned fraction, sorted gaps) of a group-expanded
        scan for the synopsis rows in ``mask``: every row of a cluster-key
        group that holds a match is read.  A group is a run of the sorted
        synopsis, so the scan is read off the hit groups' bounds alone and
        positions can only jump between two hit groups.  Only gaps of two or
        more rows between consecutive scanned positions are kept — a
        readahead gap is at least one sample row, so adjacent rows never
        split a fragment — in the key index's narrow unsigned type."""
        order = self.corr.index.order(cluster_key)
        hit_groups = np.zeros(order.ngroups, dtype=bool)
        hit_groups[order.row_codes[mask]] = True
        hit = np.flatnonzero(hit_groups)
        first, end = order.bounds[hit], order.bounds[hit + 1]
        gaps = first[1:] - end[:-1] + 1
        return (
            int(np.count_nonzero(mask)),
            int((end - first).sum()) / len(mask),
            np.sort(gaps[gaps > 1]),
        )

    def estimate_layout(
        self,
        cluster_key: tuple[str, ...],
        query: Query,
        gap_rows: int,
        pred_attrs: tuple[str, ...] | None = None,
        min_sample_matches: int = 8,
        expand_groups: bool = True,
    ) -> tuple[float, float] | None:
        """(fragments, scanned fraction) a CM-guided scan would see on a
        heap clustered by ``cluster_key`` — estimated by *simulating the
        layout on the synopsis*.

        The synopsis is a uniform thinning of the table, so sorting it by
        the cluster key mirrors the heap order: population runs map to
        sample runs, and a population readahead gap of ``gap_rows`` rows
        maps to ``gap_rows x (sample/population)`` sample rows.  The scan
        reads every row whose cluster-key group co-occurs with a matching
        row (CM false positives included), so fragments/fraction are
        measured over those group-expanded rows.

        The simulation is memoised per (cluster key, set of predicates on
        ``pred_attrs``): which rows are scanned depends on nothing else.
        The readahead gap is deliberately *outside* the key — it varies with
        the row width of every candidate object — so the memo stores the
        sorted gaps between scanned positions and a call answers its own
        ``gap_rows`` with one binary search.

        Returns None when fewer than ``min_sample_matches`` sample rows
        match — the caller should fall back to the distinct-value estimate
        (:meth:`distinct_among`), as the paper's AE-based path does.
        """
        sample_rows = self.synopsis.nrows
        if not cluster_key or sample_rows == 0:
            return None
        cluster_key = tuple(cluster_key)
        pred_keys = query.predicate_keys(pred_attrs)
        ratio = sample_rows / max(self.nrows, 1)
        sample_gap = max(1.0, gap_rows * ratio)
        if expand_groups:
            # CM semantics: every row of a co-occurring clustered group is
            # read (bucketing false positives are part of the plan).
            key = (cluster_key, pred_keys)
            memo = self._scan_memo.get(key)
            if memo is None:
                memo = self._simulate_scan(
                    cluster_key, self._conjunction_mask(pred_keys)
                )
                self._scan_memo[key] = memo
            n_match, fraction, gaps = memo
            if n_match < min_sample_matches:
                return None
            # Gaps are whole rows: ``gap > sample_gap`` is ``gap > floor``,
            # and no gap spans the whole synopsis.
            floor = min(int(sample_gap), sample_rows - 1)
            wider = len(gaps) - int(gaps.searchsorted(gaps.dtype.type(floor), "right"))
            return 1.0 + float(wider), fraction
        perm = self.corr.index.order(cluster_key).perm
        mask = self._conjunction_mask(pred_keys)[perm]
        n_match = int(mask.sum())
        if n_match < min_sample_matches:
            return None
        # Sorted secondary-B+Tree semantics: only pages holding matching
        # rows (plus readahead-bridged holes) are read.  Sampling thins
        # matches, so run counts cannot be read off the sample directly;
        # instead, group the seen matches into generous *regions*, estimate
        # each region's population match density d, and treat the matches
        # as a Poisson scatter within the region:
        #   fragments ~ M (1-d)^gap        (a match starts a fragment iff no
        #                                   neighbour within the gap window)
        #   rows swept ~ M [min(1/d, gap) p_link + (1 - p_link)]
        #     with p_link = 1 - (1-d)^gap: a linked match drags in its mean
        #     spacing of hole rows (readahead reads them); an isolated match
        #     sweeps just itself.
        # Dense regions collapse to ~1 fragment spanning ~M/d rows; sparse
        # regions approach one fragment and one row per match — both limits
        # of the real coalescing behaviour.
        match_fraction = float(mask.mean())
        positions = np.nonzero(mask)[0]
        pop_matches = max(float(n_match), match_fraction * self.nrows)
        per_seen = pop_matches / n_match
        global_density = pop_matches / max(self.nrows, 1)
        span_all = float(positions[-1] - positions[0] + 1)
        tol = max(sample_gap, 4.0 * span_all / n_match)
        breaks = np.nonzero(np.diff(positions) > tol)[0]
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [len(positions) - 1]))
        fragments = 0.0
        swept_rows = 0.0
        gap = float(max(gap_rows, 1))
        for s, e in zip(starts, ends):
            k = float(e - s + 1)
            if k <= 1.0:
                density = global_density
            else:
                span_pop = (positions[e] - positions[s] + 1) / ratio
                density = min(0.99, k * per_seen / max(span_pop, 1.0))
            density = max(density, 1.0 / max(self.nrows, 1))
            m_region = k * per_seen
            p_link = 1.0 - (1.0 - density) ** gap
            fragments += max(1.0, m_region * (1.0 - density) ** gap)
            swept_rows += m_region * (
                min(1.0 / density, gap) * p_link + (1.0 - p_link)
            )
        fraction = min(1.0, max(match_fraction, swept_rows / max(self.nrows, 1)))
        return max(1.0, fragments), fraction

    def distinct_among(self, mask: np.ndarray, attrs: tuple[str, ...]) -> float:
        """Estimated population distinct count of ``attrs`` among rows
        matching ``mask`` — the quantity behind the cost model's
        ``fragments`` ("the number of distinct values of the clustered index
        to be scanned", Section 2.1).

        The matching sample rows are a uniform sample of the matching
        population rows, so the distinct estimator applies with the matching
        population size as ``n_total``.
        """
        matched = int(np.count_nonzero(mask))
        if matched == 0:
            return 0.0
        d, f = self.corr.index.counts(tuple(attrs), mask)
        matched_fraction = matched / max(1, self.synopsis.nrows)
        n_matching = max(matched, int(round(matched_fraction * self.nrows)))
        est = scale_counts(d, f, matched, n_matching, self.estimator)
        # Never more groups than the key has distinct values overall.
        return float(min(est, self.distinct(attrs)))

    def __repr__(self) -> str:
        return (
            f"TableStatistics({self.table.schema.name!r}, rows={self.nrows}, "
            f"synopsis={self.synopsis.nrows})"
        )
