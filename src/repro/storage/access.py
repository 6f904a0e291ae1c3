"""Physical access paths: full scan, clustered scan, secondary scans.

Each plan executes *for real* over the heap file's tuples: it computes the
matching rowids, maps them to pages, coalesces pages into fragments, and
charges the disk model.  Random heap accesses cost one clustered-B+Tree
descent per fragment (``btree_height`` random page touches), which is
exactly the seek term of the paper's cost model
(``cost_seek = seek_cost x fragments x btree_height``, Appendix A-2.2) —
here it *emerges* from the simulated access pattern instead of being
estimated.

Plans also return the exact boolean result mask so tests can verify that
every plan computes the same answer.

Plans share derived state through an :class:`~repro.engine.EvalContext`:
the executor builds one context per (object, query) so predicate masks,
rowids and fragments are computed once and consumed by every plan, and an
active :class:`~repro.engine.EvalSession` extends the sharing across
objects, designs and budgets.  Each plan also accepts ``ctx=None`` and
builds its own context, so standalone calls keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.engine.context import EvalContext
from repro.engine.session import get_session
from repro.relational.query import KIND_EQ, Query
from repro.storage.btree import btree_height, leaf_entries_per_page
from repro.storage.fragments import pages_spanned
from repro.storage.layout import HeapFile


@dataclass(frozen=True)
class SimulatedCost:
    """Outcome of charging the disk model for one plan execution."""

    seconds: float
    pages_read: int
    seeks: int
    fragments: int

    def __add__(self, other: "SimulatedCost") -> "SimulatedCost":
        return SimulatedCost(
            self.seconds + other.seconds,
            self.pages_read + other.pages_read,
            self.seeks + other.seeks,
            self.fragments + other.fragments,
        )


ZERO_COST = SimulatedCost(0.0, 0, 0, 0)


@dataclass(frozen=True)
class AccessResult:
    """A executed plan: its name, what it cost, and the exact result mask."""

    plan: str
    cost: SimulatedCost
    mask: np.ndarray

    @property
    def seconds(self) -> float:
        return self.cost.seconds


class SecondaryStructure(Protocol):
    """What a secondary access structure must expose to be scannable.

    Correlation Maps (:mod:`repro.cm`) implement this; dense secondary
    B+Trees are handled natively by :func:`secondary_btree_scan`.
    """

    name: str
    key_attrs: tuple[str, ...]
    depth: int  # clustered-prefix depth whose ranks the structure maps to
    cluster_width: int  # consecutive ranks per cluster bucket

    def lookup(self, query: Query) -> np.ndarray | None:
        """Sorted distinct cluster buckets to scan, or None if the query
        has no predicate on the structure's key."""
        ...


def _context(heapfile: HeapFile, query: Query, ctx: EvalContext | None) -> EvalContext:
    return ctx if ctx is not None else EvalContext(heapfile, query)


def _result_mask(heapfile: HeapFile, ctx: EvalContext) -> np.ndarray:
    """The exact result mask: the query mask with tombstoned rows removed.
    On a pristine file this *is* the (cached, frozen) query mask — the
    mutation-free path stays bit-identical."""
    mask = ctx.query_mask
    live = heapfile.live
    if live is None:
        return mask
    return mask & live


def _heap_access_cost(heapfile: HeapFile, fragments: list[tuple[int, int]]) -> SimulatedCost:
    """Cost of reading the given page fragments, one index descent each."""
    nfrag = len(fragments)
    pages = pages_spanned(fragments)
    seeks = nfrag * heapfile.btree_height
    seconds = heapfile.disk.scan_seconds(pages, seeks)
    return SimulatedCost(seconds, pages, seeks, nfrag)


def _tail_read_cost(
    heapfile: HeapFile, fragments: list[tuple[int, int]]
) -> SimulatedCost:
    """Cost of reading the unsorted insert tail wholesale: one seek plus a
    sequential sweep — the tail is an append region, so no index descent
    applies.  The page straddling the sorted/tail boundary may already be
    covered by the index-guided ``fragments``; it is then not re-charged."""
    tail = heapfile.tail_page_fragment()
    if tail is None:
        return ZERO_COST
    first, last = tail
    pages = last - first + 1
    if any(f_last >= first for _, f_last in fragments):
        pages -= 1  # boundary page already read by a fragment
    if pages <= 0:
        return ZERO_COST
    return SimulatedCost(heapfile.disk.scan_seconds(pages, 1), pages, 1, 1)


def guided_scan_cost(
    heapfile: HeapFile, fragments: list[tuple[int, int]]
) -> SimulatedCost:
    """Cost of an index-guided scan: its sorted-region ``fragments``, one
    descent each, plus the insert tail read wholesale — tail rows are
    outside the clustered order (and every CM's rank-code space) until
    compaction."""
    return _heap_access_cost(heapfile, fragments) + _tail_read_cost(
        heapfile, fragments
    )


def guided_scan_floor(heapfile: HeapFile, mask: np.ndarray) -> float:
    """A lower bound on the seconds of :func:`guided_scan_cost` for any scan
    whose fragments cover every sorted-region row ``mask`` holds: the
    distinct pages of those rows and one descent, or 0 when there are none.
    Such a scan reads at least those pages and makes at least that descent,
    ``scan_seconds`` is monotone in both integer counts (under IEEE rounding
    too), and the tail read only adds."""
    rowids = np.flatnonzero(mask[: heapfile.sorted_rows])
    if len(rowids) == 0:
        return 0.0
    pages = len(heapfile.pages_for_rowids(rowids))
    return heapfile.disk.scan_seconds(pages, heapfile.btree_height)


def cm_scan_plan(cm: SecondaryStructure) -> str:
    """Plan name of a :func:`cm_scan` through ``cm``."""
    return f"cm_scan[{cm.name}]"


def full_scan(
    heapfile: HeapFile, query: Query, ctx: EvalContext | None = None
) -> AccessResult:
    """Sequential scan of every heap page (tail and tombstoned rows
    included — they occupy pages until compaction)."""
    mask = _result_mask(heapfile, _context(heapfile, query, ctx))
    cost = SimulatedCost(
        heapfile.full_scan_seconds(), heapfile.npages, 1, 1 if heapfile.npages else 0
    )
    return AccessResult("full_scan", cost, mask)


def usable_cluster_prefix(heapfile: HeapFile, query: Query) -> int:
    """How many leading clustered-key attributes the query can exploit.

    The scan can narrow through equality predicates; the first non-equality
    predicate (range / IN) still narrows but ends the prefix, and a
    non-predicated attribute ends it immediately.
    """
    depth = 0
    for attr in heapfile.cluster_key:
        pred = query.predicate_on(attr)
        if pred is None:
            break
        depth += 1
        if pred.kind != KIND_EQ:
            break
    return depth


def clustered_scan(
    heapfile: HeapFile, query: Query, ctx: EvalContext | None = None
) -> AccessResult | None:
    """Scan via the clustered index using the usable key prefix.

    Rows matching the prefix predicates are contiguous runs in the heap
    (possibly several runs for IN predicates or equality groups under a
    range); residual predicates are applied in memory for free — their I/O
    was already paid.  An unsorted insert tail is outside the clustered
    order, so — like a CM-guided scan — the scan reads it wholesale on top
    of its index-guided fragments.
    Returns None when the leading clustered attribute is not predicated.
    """
    depth = usable_cluster_prefix(heapfile, query)
    if depth == 0:
        return None
    ctx = _context(heapfile, query, ctx)
    session = ctx.session
    if session is not None:
        cached = session.scan_cost(heapfile, ("clustered",), query)
        if cached is not None:
            plan, cost = cached
            return AccessResult(plan, cost, _result_mask(heapfile, ctx))
    prefix_preds = []
    for attr in heapfile.cluster_key[:depth]:
        pred = query.predicate_on(attr)
        assert pred is not None
        prefix_preds.append(pred)
    fragments = ctx.sorted_region_fragments(tuple(prefix_preds))
    cost = guided_scan_cost(heapfile, fragments)
    plan = f"clustered_scan[{','.join(heapfile.cluster_key[:depth])}]"
    if session is not None:
        session.store_scan_cost(heapfile, ("clustered",), query, plan, cost)
    return AccessResult(plan, cost, _result_mask(heapfile, ctx))


def secondary_btree_scan(
    heapfile: HeapFile,
    query: Query,
    key_attrs: tuple[str, ...],
    ctx: EvalContext | None = None,
) -> AccessResult | None:
    """Sorted scan through a dense secondary B+Tree on ``key_attrs``.

    The index yields the rowids of rows matching the predicates on its key
    attributes; the engine sorts them and sweeps the heap once.  The index
    itself costs one descent plus a sequential leaf scan sized by the number
    of matching entries.  Residual predicates are free.
    Returns None when no key attribute is predicated.
    """
    indexed_preds = [query.predicate_on(a) for a in key_attrs]
    usable = [p for p in indexed_preds if p is not None]
    if not usable or indexed_preds[0] is None:
        return None
    ctx = _context(heapfile, query, ctx)
    session = ctx.session
    if session is not None:
        cached = session.scan_cost(
            heapfile, ("secondary", tuple(key_attrs)), query
        )
        if cached is not None:
            plan, cost = cached
            return AccessResult(plan, cost, _result_mask(heapfile, ctx))
    rowids = ctx.rowids(tuple(usable))
    fragments = ctx.fragments(tuple(usable))
    heap_cost = _heap_access_cost(heapfile, fragments)

    key_bytes = heapfile.table.schema.byte_size(key_attrs)
    entries_per_leaf = leaf_entries_per_page(key_bytes, heapfile.disk.page_size)
    nleaves = (heapfile.nrows + entries_per_leaf - 1) // entries_per_leaf
    leaf_pages_read = (len(rowids) + entries_per_leaf - 1) // entries_per_leaf
    idx_height = btree_height(max(nleaves, 1), key_bytes, heapfile.disk.page_size)
    index_cost = SimulatedCost(
        heapfile.disk.scan_seconds(leaf_pages_read, idx_height),
        leaf_pages_read,
        idx_height,
        1 if leaf_pages_read else 0,
    )
    plan = f"secondary_btree[{','.join(key_attrs)}]"
    cost = heap_cost + index_cost
    if session is not None:
        session.store_scan_cost(
            heapfile, ("secondary", tuple(key_attrs)), query, plan, cost
        )
    return AccessResult(plan, cost, _result_mask(heapfile, ctx))


def cm_scan(
    heapfile: HeapFile,
    query: Query,
    cm: SecondaryStructure,
    ctx: EvalContext | None = None,
) -> AccessResult | None:
    """Scan guided by a Correlation Map (or any cluster-bucket structure).

    The CM maps predicate values to the clustered-prefix buckets they
    co-occur with; each bucket is one contiguous rowid range of the heap.
    Bucketing introduces false positives — a superset of rows is read — but
    the result mask stays exact because residual filtering happens in
    memory.  The CM itself is assumed memory-resident (the paper's premise:
    CMs are tiny).  Returns None, before any cache is consulted, when the
    query has no predicate on the CM's key.

    With an active :class:`~repro.engine.EvalSession` the executed (plan,
    cost) pair is memoized per (heap-file content, CM content, query
    fingerprint) — the CM Designer leaves each winner's pair there, priced
    from the file's columns, for the executor to find at every budget.  The
    result mask always comes from the (cached) query mask, so memoized and
    fresh results are bit-identical.
    """
    if all(query.predicate_on(a) is None for a in cm.key_attrs):
        return None
    session = ctx.session if ctx is not None else get_session()
    if session is not None:
        cached = session.scan_cost(heapfile, cm, query)
        if cached is not None:
            plan, cost = cached
            context = _context(heapfile, query, ctx)
            return AccessResult(plan, cost, _result_mask(heapfile, context))
    fragments = heapfile.page_fragments_for_prefix_buckets(
        cm.depth, cm.cluster_width, cm.lookup(query)
    )
    cost = guided_scan_cost(heapfile, fragments)
    plan = cm_scan_plan(cm)
    if session is not None:
        session.store_scan_cost(heapfile, cm, query, plan, cost)
    context = _context(heapfile, query, ctx)
    return AccessResult(plan, cost, _result_mask(heapfile, context))
