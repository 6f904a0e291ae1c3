"""Reference implementations the fast kernels in ``src/`` are checked against.

These are the forms the production code used before it was made faster (one
sorted pass instead of a loop of ``np.unique``; one strength lookup per
attribute pair instead of one per query and step, then all queries at once
on arrays instead of a scalar triple loop; one scalar pricing core instead
of a ``PlanEstimate`` per plan family; CM candidates priced from the file's
columns instead of each built and scanned; a synopsis key ordered by
refining its parent prefix and counted from its group sizes instead of one
``lexsort`` and one min/max re-pack + ``np.unique`` per key; a CM scan's
fragments by expanding its cluster buckets into rank codes and binary
searching each instead of two gathers from the rank bounds), moved here
verbatim: they exist *only* as test oracles (``test_reference_kernels.py``)
and share no state with the code under test — no cache, no memo, no packed
array.
"""

from __future__ import annotations

import numpy as np

from repro.cm.bucketing import bucket_codes, candidate_widths, entries_match
from repro.cm.correlation_map import CorrelationMap
from repro.cm.designer import CMDesigner
from repro.costmodel.base import ObjectGeometry, PlanEstimate
from repro.costmodel.correlation_aware import (
    CorrelationAwareCostModel,
    expected_runs,
)
from repro.design.selectivity import SelectivityVectors, VectorKey
from repro.engine import EvalContext, get_session
from repro.relational.query import KIND_EQ, Query
from repro.relational.table import Table
from repro.stats.collector import TableStatistics
from repro.stats.distinct import _frequency_of_frequencies, scale_distinct
from repro.storage.access import clustered_scan, cm_scan, full_scan
from repro.storage.layout import HeapFile

_CLUSTER_ID_BYTES = 4
_EPSILON = 1e-9  # repro.design.selectivity's change threshold


def reference_sorted_synopsis_codes(
    synopsis: Table, cluster_key: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(sort permutation, dense group code of every sorted position) of a
    table under a key: one ``np.lexsort`` from scratch, one change flag per
    attribute."""
    perm = synopsis.sort_permutation(tuple(cluster_key))
    changed = np.zeros(synopsis.nrows, dtype=bool)
    if synopsis.nrows:
        for attr in cluster_key:
            arr = synopsis.column(attr)[perm]
            changed[1:] |= arr[1:] != arr[:-1]
    return perm, np.cumsum(changed).astype(np.int64)


def reference_key_counts(
    table: Table, key: tuple[str, ...], mask: np.ndarray | None = None
) -> tuple[int, np.ndarray]:
    """``(d, f)`` of a joint key over the rows in ``mask``: the key re-packed
    into one code per row (a min/max scan per column), then ``np.unique``."""
    codes = table._key_codes(tuple(key))
    return _frequency_of_frequencies(codes if mask is None else codes[mask])


def reference_distinct(stats: TableStatistics, key: tuple[str, ...]) -> float:
    """``TableStatistics.distinct`` from the re-packed key codes."""
    return scale_distinct(
        stats.synopsis._key_codes(tuple(key)), stats.nrows, stats.corr.estimator
    )


def reference_strength(
    stats: TableStatistics, determinant: tuple[str, ...], dependent: tuple[str, ...]
) -> float:
    d_det = reference_distinct(stats, determinant)
    d_joint = reference_distinct(
        stats, tuple(dict.fromkeys(tuple(determinant) + tuple(dependent)))
    )
    return 1.0 if d_joint <= 0 else min(1.0, d_det / d_joint)


def reference_distinct_among(
    stats: TableStatistics, mask: np.ndarray, attrs: tuple[str, ...]
) -> float:
    """``TableStatistics.distinct_among`` from the re-packed key codes."""
    sub = stats.synopsis._key_codes(tuple(attrs))[mask]
    if len(sub) == 0:
        return 0.0
    matched_fraction = len(sub) / max(1, stats.synopsis.nrows)
    n_matching = max(len(sub), int(round(matched_fraction * stats.nrows)))
    est = scale_distinct(sub, n_matching, stats.estimator)
    return float(min(est, reference_distinct(stats, attrs)))


def reference_estimate_layout(
    stats: TableStatistics,
    cluster_key: tuple[str, ...],
    query: Query,
    gap_rows: int,
    pred_attrs: tuple[str, ...] | None = None,
    min_sample_matches: int = 8,
) -> tuple[float, float] | None:
    """The group-expanded layout simulation, recomputed from the synopsis on
    every call: sort, mask, ``np.unique`` + ``np.isin``, diff."""
    synopsis = stats.synopsis
    if not cluster_key or synopsis.nrows == 0:
        return None
    perm, codes = reference_sorted_synopsis_codes(synopsis, cluster_key)
    attrs = query.predicate_attrs() if pred_attrs is None else pred_attrs
    mask = np.ones(synopsis.nrows, dtype=bool)
    for attr in attrs:
        pred = query.predicate_on(attr)
        if pred is not None:
            mask &= pred.mask(synopsis.column(attr))
    mask = mask[perm]
    n_match = int(mask.sum())
    if n_match < min_sample_matches:
        return None
    ratio = synopsis.nrows / max(stats.nrows, 1)
    sample_gap = max(1.0, gap_rows * ratio)
    hit_groups = np.unique(codes[mask])
    scanned = np.isin(codes, hit_groups)
    fraction = float(scanned.mean())
    positions = np.nonzero(scanned)[0]
    fragments = 1.0 + float((np.diff(positions) > sample_gap).sum())
    return fragments, fraction


def reference_propagate_selectivities(
    vectors: SelectivityVectors,
    stats: TableStatistics,
    max_steps: int | None = None,
) -> int:
    """Selectivity Propagation as a scalar loop over (query, attribute,
    source), asking ``stats.strength`` afresh for each of every step."""
    attrs = vectors.attrs
    limit = max_steps if max_steps is not None else max(1, len(attrs))
    steps = 0
    for _ in range(limit):
        changed = False
        for qname, vec in vectors.vectors.items():
            sources: list[tuple[VectorKey, float]] = [
                (key, sel) for key, sel in vec.items() if sel < 1.0 - _EPSILON
            ]
            for attr in attrs:
                current = vec.get(attr, 1.0)
                best = current
                for source, source_sel in sources:
                    if source == attr:
                        continue
                    source_key = source if isinstance(source, tuple) else (source,)
                    if attr in source_key:
                        continue
                    s = stats.strength((attr,), source_key)
                    if s <= 0.0:
                        continue
                    candidate = min(1.0, source_sel / s)
                    if candidate < best - _EPSILON:
                        best = candidate
                if best < current - _EPSILON:
                    vec[attr] = best
                    changed = True
        steps += 1
        if not changed:
            break
    return steps


class ReferenceCorrelationMap:
    """Entry table of a Correlation Map as a Python list of per-entry posting
    arrays: per-entry ``np.unique`` build, per-group ``np.union1d`` merge,
    list-comprehension lookup (cluster buckets, before rank expansion)."""

    def __init__(
        self,
        heapfile: HeapFile,
        key_attrs: tuple[str, ...],
        key_widths: tuple[int, ...],
        depth: int,
        cluster_width: int,
    ) -> None:
        self.heapfile = heapfile
        self.key_attrs = tuple(key_attrs)
        self.key_widths = tuple(key_widths)
        self.depth = depth
        self.cluster_width = cluster_width
        self.build()

    def build(self) -> None:
        hf = self.heapfile
        nsorted = hf.sorted_rows
        bucketed = [
            bucket_codes(hf.table.column(a)[:nsorted], w)
            for a, w in zip(self.key_attrs, self.key_widths)
        ]
        cluster_buckets = bucket_codes(hf.prefix_ranks(self.depth), self.cluster_width)
        if len(bucketed) == 1:
            joint = bucketed[0]
        else:
            joint = np.zeros(nsorted, dtype=np.int64)
            for arr in bucketed:
                lo = int(arr.min()) if len(arr) else 0
                span = (int(arr.max()) - lo + 1) if len(arr) else 1
                joint = joint * span + (arr - lo)
        order = np.argsort(joint, kind="stable")
        sorted_joint = joint[order]
        sorted_clusters = cluster_buckets[order]
        boundaries = np.nonzero(np.diff(sorted_joint))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_joint)]))
        self.entry_keys: dict[str, np.ndarray] = {}
        first_rows = order[starts]
        for attr, arr in zip(self.key_attrs, bucketed):
            self.entry_keys[attr] = arr[first_rows]
        self.postings: list[np.ndarray] = [
            np.unique(sorted_clusters[s:e]) for s, e in zip(starts, ends)
        ]

    def merge_rows(self, start: int) -> None:
        hf = self.heapfile
        nsorted = hf.sorted_rows
        bucketed = [
            bucket_codes(hf.table.column(a)[start:nsorted], w)
            for a, w in zip(self.key_attrs, self.key_widths)
        ]
        clusters = bucket_codes(
            hf.prefix_ranks(self.depth)[start:], self.cluster_width
        )
        pairs = np.unique(np.stack(bucketed + [clusters], axis=1), axis=0)
        keys = pairs[:, :-1]
        buckets = pairs[:, -1]
        is_new_key = np.ones(len(pairs), dtype=bool)
        is_new_key[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        group_starts = np.nonzero(is_new_key)[0]
        group_ends = np.append(group_starts[1:], len(pairs))
        entry_mat = np.stack([self.entry_keys[a] for a in self.key_attrs], axis=1)
        entry_rows = self._pack_rows(entry_mat)
        group_rows = self._pack_rows(keys[group_starts])
        order = np.argsort(entry_rows, kind="stable")
        pos = np.searchsorted(entry_rows[order], group_rows)
        new_keys: list[np.ndarray] = []
        for g, (gs, ge) in enumerate(zip(group_starts, group_ends)):
            group_buckets = buckets[gs:ge]
            p = pos[g]
            if p < len(order) and entry_rows[order[p]] == group_rows[g]:
                e = int(order[p])
                self.postings[e] = np.union1d(self.postings[e], group_buckets)
            else:
                new_keys.append(keys[gs])
                self.postings.append(group_buckets)
        if new_keys:
            added = np.stack(new_keys, axis=0)
            for j, attr in enumerate(self.key_attrs):
                self.entry_keys[attr] = np.concatenate(
                    (self.entry_keys[attr], added[:, j])
                )

    @staticmethod
    def _pack_rows(mat: np.ndarray) -> np.ndarray:
        mat = np.ascontiguousarray(mat, dtype=np.int64)
        return mat.view([("", np.int64)] * mat.shape[1]).ravel()

    @property
    def n_entries(self) -> int:
        return len(self.postings)

    @property
    def total_postings(self) -> int:
        return int(sum(len(p) for p in self.postings))

    @property
    def size_bytes(self) -> int:
        key_bytes = self.heapfile.table.schema.byte_size(self.key_attrs)
        return self.n_entries * key_bytes + self.total_postings * _CLUSTER_ID_BYTES

    def lookup_buckets(self, query: Query) -> np.ndarray | None:
        preds = [query.predicate_on(a) for a in self.key_attrs]
        if all(p is None for p in preds):
            return None
        mask = np.ones(self.n_entries, dtype=bool)
        for pred, attr, width in zip(preds, self.key_attrs, self.key_widths):
            if pred is None:
                continue
            mask &= entries_match(pred, self.entry_keys[attr], width)
        if not mask.any():
            return np.empty(0, dtype=np.int64)
        matched = [p for p, m in zip(self.postings, mask) if m]
        return np.unique(np.concatenate(matched))


def reference_expand_cluster_buckets(
    buckets: np.ndarray, width: int, nranks: int
) -> np.ndarray:
    """Expand clustered bucket ids back into the rank codes they cover.

    Vectorized: each (unique, sorted) bucket covers the disjoint window
    ``[b*w, min((b+1)*w, nranks))``, so the expansion is one ``repeat``
    plus a per-window ramp — no per-bucket Python loop, and the output
    is sorted-unique by construction."""
    if width == 1:
        return buckets
    buckets = np.unique(np.asarray(buckets, dtype=np.int64))
    if len(buckets) == 0:
        return np.empty(0, dtype=np.int64)
    limit = max(nranks, 1)
    starts = buckets * width
    lengths = np.maximum(np.minimum(starts + width, limit) - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    ramp = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    return np.repeat(starts, lengths) + ramp


def reference_prefix_value_ranges(
    heapfile: HeapFile, depth: int, wanted_codes: np.ndarray
) -> list[tuple[int, int]]:
    """Contiguous rowid ranges [start, end) holding the given prefix rank
    codes: two binary searches per code, touching ranges merged."""
    codes = heapfile.prefix_ranks(depth)
    wanted = np.unique(np.asarray(wanted_codes, dtype=np.int64))
    if len(wanted) == 0 or heapfile.nrows == 0:
        return []
    starts = np.searchsorted(codes, wanted, side="left")
    ends = np.searchsorted(codes, wanted, side="right")
    present = ends > starts
    starts = starts[present]
    ends = ends[present]
    if len(starts) == 0:
        return []
    breaks = np.ones(len(starts), dtype=bool)
    breaks[1:] = starts[1:] > ends[:-1]
    run_starts = np.nonzero(breaks)[0]
    run_last = np.concatenate((run_starts[1:] - 1, [len(ends) - 1]))
    return list(zip(starts[run_starts].tolist(), ends[run_last].tolist()))


def reference_cm_fragments(
    heapfile: HeapFile, depth: int, cluster_width: int, buckets: np.ndarray
) -> list[tuple[int, int]]:
    """Page fragments a CM-guided scan reads for the given cluster
    buckets, by the rank-code route: expand the buckets into rank codes,
    find each code's rowid range, then coalesce pages one range at a time
    (runs within the disk's readahead gap merge)."""
    codes = heapfile.prefix_ranks(depth)
    nranks = int(codes[-1]) + 1 if len(codes) else 0
    wanted = reference_expand_cluster_buckets(buckets, cluster_width, nranks)
    rows_per_page = heapfile.rows_per_page
    gap = heapfile.disk.fragment_gap_pages
    fragments: list[list[int]] = []
    for start, end in reference_prefix_value_ranges(heapfile, depth, wanted):
        first, last = start // rows_per_page, (end - 1) // rows_per_page
        if fragments and first <= fragments[-1][1] + gap + 1:
            fragments[-1][1] = max(fragments[-1][1], last)
        else:
            fragments.append([first, last])
    return [(first, last) for first, last in fragments]


def reference_best_cm_for_query(
    designer: CMDesigner, heapfile: HeapFile, query: Query
) -> tuple[CorrelationMap | None, float]:
    """The CM Designer's per-query choice by building every (key, width)
    candidate and executing a scan through each one that fits the budget."""
    ctx = EvalContext(heapfile, query)
    baseline = full_scan(heapfile, query, ctx).seconds
    cscan = clustered_scan(heapfile, query, ctx)
    if cscan is not None:
        baseline = min(baseline, cscan.seconds)
    best_cm: CorrelationMap | None = None
    best_seconds = baseline
    session = get_session()
    for key in designer.candidate_keys(heapfile, query):
        ndistinct = heapfile.table.distinct_count(key)
        for width in candidate_widths(ndistinct, designer.max_widths):
            widths = (width,) + tuple(1 for _ in key[1:])
            if session is not None:
                cm = session.correlation_map(
                    heapfile, key, widths, designer.cluster_width
                )
            else:
                cm = CorrelationMap(
                    heapfile,
                    key,
                    key_widths=widths,
                    cluster_width=designer.cluster_width,
                )
            if cm.size_bytes > designer.budget_bytes:
                continue
            result = cm_scan(heapfile, query, cm, ctx)
            if result is not None and result.seconds < best_seconds:
                best_seconds = result.seconds
                best_cm = cm
    return best_cm, best_seconds


# ------------------------------------------------------------ plan pricing


def _reference_scan_plan(
    model: CorrelationAwareCostModel,
    geometry: ObjectGeometry,
    query: Query,
    group_attrs: tuple[str, ...],
    pred_attrs: tuple[str, ...],
    plan_name: str,
) -> PlanEstimate:
    stats, disk = model.stats, model.disk
    rows_per_page = disk.rows_per_page(max(geometry.row_bytes, 1))
    gap_rows = disk.fragment_gap_pages * rows_per_page
    layout = stats.estimate_layout(
        group_attrs, query, gap_rows, pred_attrs=pred_attrs
    )
    if layout is not None:
        fragments, fraction = layout
    else:
        mask = stats.sample_mask(query, attrs=pred_attrs)
        groups_total = max(1.0, stats.distinct(group_attrs))
        groups_hit = stats.distinct_among(mask, group_attrs)
        if groups_hit <= 0.0:
            sel = max(
                stats.query_selectivity(query),
                1.0 / max(stats.nrows, 1),
            )
            groups_hit = max(1.0, sel * groups_total)
        fraction = min(1.0, groups_hit / groups_total)
        fragments = expected_runs(groups_hit, groups_total)
    max_fragments = max(1.0, geometry.npages / (disk.fragment_gap_pages + 1.0))
    fragments = min(fragments, max_fragments)
    read_s = geometry.full_scan_s * fraction
    seek_s = disk.seek_cost_s * fragments * geometry.btree_height
    return PlanEstimate(
        plan=plan_name,
        seconds=read_s + seek_s,
        read_s=read_s,
        seek_s=seek_s,
        fragments=fragments,
        scanned_fraction=fraction,
    )


def _reference_clustered_plan(
    model: CorrelationAwareCostModel, geometry: ObjectGeometry, query: Query
) -> PlanEstimate | None:
    depth = 0
    for attr in geometry.cluster_key:
        pred = query.predicate_on(attr)
        if pred is None:
            break
        depth += 1
        if pred.kind != KIND_EQ:
            break
    if depth == 0:
        return None
    prefix = geometry.cluster_key[:depth]
    return _reference_scan_plan(
        model, geometry, query, prefix, prefix, f"clustered[{','.join(prefix)}]"
    )


def _reference_cm_plan(
    model: CorrelationAwareCostModel, geometry: ObjectGeometry, query: Query
) -> PlanEstimate | None:
    if not geometry.cluster_key:
        return None
    pred_attrs = tuple(
        a for a in query.predicate_attrs() if a in geometry.attrs
    )
    if not pred_attrs:
        return None
    return _reference_scan_plan(
        model,
        geometry,
        query,
        geometry.cluster_key,
        pred_attrs,
        f"cm[{','.join(pred_attrs)}]",
    )


def reference_explain(
    model: CorrelationAwareCostModel, geometry: ObjectGeometry, query: Query
) -> PlanEstimate:
    """The per-pair plan chain: one ``PlanEstimate`` per plan family (full
    scan, clustered prefix, CM), the cheapest by ``min`` — first wins ties."""
    have = set(geometry.attrs)
    if not all(a in have for a in query.attributes()):
        return PlanEstimate(plan="not_covered", seconds=float("inf"))
    seek_s = model.disk.seek_cost_s
    plans = [
        PlanEstimate(
            plan="full_scan",
            seconds=geometry.full_scan_s + seek_s,
            read_s=geometry.full_scan_s,
            seek_s=seek_s,
            fragments=1.0,
            scanned_fraction=1.0,
        )
    ]
    clustered = _reference_clustered_plan(model, geometry, query)
    if clustered is not None:
        plans.append(clustered)
    if model.use_cm:
        cm = _reference_cm_plan(model, geometry, query)
        if cm is not None:
            plans.append(cm)
    return min(plans, key=lambda p: p.seconds)
