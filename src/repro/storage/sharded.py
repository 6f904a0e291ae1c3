"""Sharded heap files: partitioned facts with predicate-driven shard pruning.

A :class:`ShardedHeapFile` range- or hash-partitions a fact table on a chosen
*shard key* into per-shard :class:`~repro.storage.layout.HeapFile`s, each
clustered independently on the same key.  Before any access path runs, the
shard map prunes shards the query provably cannot touch:

* **Key pruning** — the routing function is monotone (range scheme) or exact
  (hash scheme on equality/IN values), so a predicate on the shard key maps
  directly to the shards its values can land on.
* **Zone pruning** — every shard keeps a zone map, the ``(min, max)`` of each
  column over its rows.  Partitioning on a key that *determines* other
  attributes (CORADD's correlation machinery scores exactly this) clusters
  those attributes into tight per-shard ranges, so predicates on correlated
  non-key attributes prune too.  Zone bounds only ever widen under inserts
  and are recomputed (tightened) on compaction, so pruning stays sound under
  any mutation schedule.

Pruning is observationally invisible: answers, per-surviving-shard plans and
costs are bit-identical to evaluating each shard unconditionally — only the
touched pages shrink.  :func:`choose_shard_key` picks the key by summing, per
query, the strongest correlation from the key to any predicated attribute —
the shard key is "just another correlated column" (ROADMAP direction 2).

:func:`run_workload_shard_parallel` evaluates a workload under a session
without the executor's plan memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.context import EvalContext
from repro.engine.session import ambient_scope, get_session
from repro.obs.trace import annotate, span
from repro.relational.query import KIND_IN, Query
from repro.relational.table import Table
from repro.storage.access import (
    AccessResult,
    SimulatedCost,
    ZERO_COST,
    clustered_scan,
    cm_scan,
    full_scan,
    secondary_btree_scan,
)
from repro.storage.disk import DiskModel
from repro.storage.fragments import sorted_unique
from repro.storage.layout import HeapFile

RANGE = "range"
HASH = "hash"

# Logical page-id stride separating shard page spaces: page tokens returned
# by sharded insert/delete accounting stay globally unique so the buffer
# pool never aliases two shards' pages.
_PAGE_STRIDE = np.int64(1) << np.int64(40)

# Knuth multiplicative hash over the key's integral value — deterministic
# across processes (never Python's salted hash()).
_HASH_MULT = np.int64(2654435761)
_HASH_MASK = np.int64(0x7FFFFFFF)


def _hash_shard(values: np.ndarray, shards: int) -> np.ndarray:
    v = np.asarray(values).astype(np.int64, copy=False)
    return ((v * _HASH_MULT) & _HASH_MASK) % np.int64(shards)


@dataclass(frozen=True)
class ShardSpec:
    """How to partition a fact: shard count, shard key, scheme."""

    shards: int
    key: str
    scheme: str = RANGE

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.scheme not in (RANGE, HASH):
            raise ValueError(f"unknown shard scheme {self.scheme!r}")


class ShardMap:
    """Routes key values to shards and prunes shards from key predicates.

    Range scheme: ``boundaries`` holds the ``shards - 1`` inner quantile
    boundaries of the build-time key distribution; routing is
    ``searchsorted(boundaries, value, side="right")`` — monotone in the key,
    which is what makes range pruning sound.  Hash scheme: multiplicative
    hashing of the integral key value; only equality/IN predicates prune.
    Boundaries are frozen at build time so rows inserted later route to the
    same shards pruning assumes.
    """

    def __init__(self, spec: ShardSpec, key_values: np.ndarray) -> None:
        self.spec = spec
        if spec.scheme == RANGE:
            values = np.asarray(key_values, dtype=np.float64)
            if len(values) == 0:
                boundaries = np.zeros(spec.shards - 1, dtype=np.float64)
            else:
                qs = np.linspace(0.0, 1.0, spec.shards + 1)[1:-1]
                boundaries = np.quantile(values, qs)
            # Skewed keys can repeat a boundary; the corresponding shards
            # are simply empty, which pruning and routing both handle.
            self.boundaries = np.asarray(boundaries, dtype=np.float64)
        else:
            self.boundaries = np.empty(0, dtype=np.float64)

    def route(self, key_values: np.ndarray) -> np.ndarray:
        """Shard index of each key value (same routing at build and insert
        time — the invariant pruning relies on)."""
        values = np.asarray(key_values)
        if self.spec.scheme == RANGE:
            return np.searchsorted(
                self.boundaries, values.astype(np.float64, copy=False),
                side="right",
            ).astype(np.int64)
        return _hash_shard(values, self.spec.shards)

    def shards_for_query(self, query: Query) -> np.ndarray:
        """Shards that may hold rows matching the query's *shard-key*
        predicate (all shards when the key is unpredicated)."""
        everything = np.arange(self.spec.shards, dtype=np.int64)
        pred = query.predicate_on(self.spec.key)
        if pred is None:
            return everything
        if self.spec.scheme == HASH:
            if pred.kind == KIND_IN:
                return sorted_unique(self.route(np.asarray(pred.values)))
            lo, hi = pred.value_range()
            if lo == hi:  # equality routes exactly
                return sorted_unique(self.route(np.asarray([lo])))
            return everything  # ranges don't localize under hashing
        if pred.kind == KIND_IN:
            return sorted_unique(self.route(np.asarray(pred.values)))
        lo, hi = pred.value_range()
        first = int(np.searchsorted(self.boundaries, lo, side="right"))
        last = int(np.searchsorted(self.boundaries, hi, side="right"))
        return np.arange(first, last + 1, dtype=np.int64)


_SCORE_SAMPLE_ROWS = 4096


def _zone_tightness(
    key_vals: np.ndarray, pred_vals: np.ndarray, shards: int
) -> float:
    """How well range-partitioning on ``key_vals`` localizes ``pred_vals``:
    1 - (mean per-chunk value range / global range) over ``shards``
    quantile chunks of the key order.  1.0 means each shard sees a point
    value of the attribute (every predicate prunes perfectly); 0.0 means
    every shard sees the full range (no predicate ever prunes)."""
    order = np.argsort(key_vals, kind="stable")
    p = pred_vals[order].astype(np.float64, copy=False)
    lo, hi = float(p.min()), float(p.max())
    if hi <= lo:
        return 0.0
    width = sum(
        float(chunk.max()) - float(chunk.min())
        for chunk in np.array_split(p, shards)
        if len(chunk)
    )
    return 1.0 - width / (shards * (hi - lo))


def choose_shard_key(stats, queries, shards: int, candidates=None) -> str:
    """Correlation-scored shard key choice over ``TableStatistics``.

    For each candidate attribute ``a`` with at least ``shards`` distinct
    values, score ``sum_q frequency(q) * max_p tightness(a, p.attr)`` over
    the queries' predicates, where tightness measures (on a deterministic
    row sample) how narrow each predicated attribute's per-shard zone gets
    when the fact is range-partitioned on ``a`` — exactly the signal
    zone-map pruning exploits.  A correlated hierarchy scores high in both
    directions (partitioning on ``orderdate`` localizes ``year`` and vice
    versa); an uncorrelated near-unique column scores ~0 even though it
    functionally "determines" everything.  Deterministic tie-break by name.
    """
    table = stats.table
    universe = list(candidates) if candidates is not None else list(
        table.column_names
    )
    viable = [a for a in universe if stats.distinct((a,)) >= shards]
    if not viable:
        viable = sorted(
            universe, key=lambda a: (-stats.distinct((a,)), a)
        )[:1]
    if not viable:
        raise ValueError("no shard-key candidates")
    step = max(1, table.nrows // _SCORE_SAMPLE_ROWS)
    sampled: dict[str, np.ndarray] = {}

    def col(name: str) -> np.ndarray:
        arr = sampled.get(name)
        if arr is None:
            arr = table.column(name)[::step]
            sampled[name] = arr
        return arr

    pred_attrs = {
        p.attr for q in queries for p in q.predicates
        if table.has_column(p.attr)
    }
    tightness: dict[tuple[str, str], float] = {}
    best_key, best_score = None, -1.0
    for a in sorted(viable):
        score = 0.0
        for q in queries:
            best_p = 0.0
            for p in q.predicates:
                if p.attr not in pred_attrs:
                    continue
                t = tightness.get((a, p.attr))
                if t is None:
                    t = _zone_tightness(col(a), col(p.attr), shards)
                    tightness[(a, p.attr)] = t
                best_p = max(best_p, t)
            score += q.frequency * best_p
        if score > best_score:
            best_key, best_score = a, score
    assert best_key is not None
    return best_key


class _ConcatView:
    """A read-only, lazily column-concatenated view over the shards.

    Duck-types the slice of the :class:`Table` API consumers of
    ``heapfile.table`` actually use (schema, ``has_column``, ``column``,
    ``nrows``) so covering checks are free and answer verification works
    without materializing the concatenation eagerly.
    """

    def __init__(self, owner: "ShardedHeapFile") -> None:
        self._owner = owner
        self._cache: dict[str, np.ndarray] = {}
        first = owner.shards[0].table
        self.schema = first.schema
        self.decoders = first.decoders

    @property
    def nrows(self) -> int:
        return self._owner.nrows

    @property
    def column_names(self) -> list[str]:
        return self._owner.shards[0].table.column_names

    def has_column(self, name: str) -> bool:
        return self._owner.shards[0].table.has_column(name)

    def column(self, name: str) -> np.ndarray:
        arr = self._cache.get(name)
        if arr is None:
            arr = np.concatenate(
                [s.table.column(name) for s in self._owner.shards]
            )
            self._cache[name] = arr
        return arr


def _zone_map(table) -> dict[str, tuple[float, float]]:
    zones: dict[str, tuple[float, float]] = {}
    for name in table.column_names:
        col = table.column(name)
        if len(col) == 0:
            continue
        zones[name] = (float(col.min()), float(col.max()))
    return zones


class ShardedHeapFile:
    """A fact partitioned into per-shard heap files behind one facade.

    Exposes the aggregate geometry the executor, cost accounting and the
    refresh path read from plain heap files; rowids in the facade's
    coordinate space are concatenation-order (shard 0's rows first), and
    ``source_rowids`` carries *global* provenance so deletions propagate
    across shards and projections identically to the unsharded file.
    """

    def __init__(
        self,
        table: Table,
        cluster_key: tuple[str, ...],
        disk: DiskModel,
        spec: ShardSpec,
        name: str | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        table.column(spec.key)  # raises KeyError on unknown shard keys
        self.name = name or table.schema.name
        self.cluster_key = tuple(cluster_key)
        self.disk = disk
        self.spec = spec
        self.shard_map = shard_map or ShardMap(spec, table.column(spec.key))
        assign = self.shard_map.route(table.column(spec.key))
        self.shards: list[HeapFile] = []
        self.zone_maps: list[dict[str, tuple[float, float]]] = []
        for s in range(spec.shards):
            rows = np.nonzero(assign == s)[0].astype(np.int64)
            sub = table.select(rows, new_name=f"{self.name}#s{s}")
            hf = HeapFile(sub, self.cluster_key, disk, name=f"{self.name}#s{s}")
            # HeapFile provenance points into the shard's sub-table; rewrite
            # it to global (flat-table) row ids so cross-shard/projection
            # deletion propagation keeps working.
            hf.source_rowids = rows[hf.source_rowids]
            self.shards.append(hf)
            self.zone_maps.append(_zone_map(hf.table))
        # Per-shard secondary CM structures (shard-local candidate objects).
        self.shard_cms: list[list] = [[] for _ in range(spec.shards)]
        self.shared = False
        # Routing of the last insert batch: {shard: rows} (test/obs hook).
        self.last_route: dict[int, int] = {}
        self._view: _ConcatView | None = None
        self._view_version = -1

    # --------------------------------------------------------------- facade

    @property
    def table(self) -> _ConcatView:
        if self._view is None or self._view_version != self.version:
            self._view = _ConcatView(self)
            self._view_version = self.version
        return self._view

    @property
    def nrows(self) -> int:
        return sum(s.nrows for s in self.shards)

    @property
    def live_rows(self) -> int:
        return sum(s.live_rows for s in self.shards)

    @property
    def tail_rows(self) -> int:
        return sum(s.tail_rows for s in self.shards)

    @property
    def sorted_rows(self) -> int:
        return sum(s.sorted_rows for s in self.shards)

    @property
    def npages(self) -> int:
        return sum(s.npages for s in self.shards)

    @property
    def rows_per_page(self) -> int:
        return self.shards[0].rows_per_page

    @property
    def row_bytes(self) -> int:
        return self.shards[0].row_bytes

    @property
    def btree_height(self) -> int:
        return max(s.btree_height for s in self.shards)

    @property
    def version(self) -> int:
        return sum(s.version for s in self.shards)

    @property
    def heap_bytes(self) -> int:
        return sum(s.heap_bytes for s in self.shards)

    @property
    def size_bytes(self) -> int:
        return sum(s.size_bytes for s in self.shards)

    @property
    def source_rowids(self) -> np.ndarray:
        return np.concatenate([s.source_rowids for s in self.shards])

    @property
    def live(self) -> np.ndarray | None:
        if all(s.live is None for s in self.shards):
            return None
        return np.concatenate([
            np.ones(s.nrows, dtype=bool) if s.live is None else s.live
            for s in self.shards
        ])

    def full_scan_seconds(self) -> float:
        return sum(s.full_scan_seconds() for s in self.shards)

    def _shard_bases(self) -> np.ndarray:
        """Concat-space starting rowid of each shard (+ total sentinel)."""
        return np.concatenate(
            ([0], np.cumsum([s.nrows for s in self.shards]))
        ).astype(np.int64)

    # ------------------------------------------------------------- sharing

    def mutable_copy(self) -> "ShardedHeapFile":
        clone = object.__new__(ShardedHeapFile)
        clone.__dict__ = dict(self.__dict__)
        clone.shards = [s.mutable_copy() for s in self.shards]
        clone.zone_maps = [dict(z) for z in self.zone_maps]
        clone.shard_cms = [
            [_rebind_cm(cm, hf) for cm in cms]
            for cms, hf in zip(self.shard_cms, clone.shards)
        ]
        clone.shared = False
        clone.last_route = dict(self.last_route)
        clone._view = None
        clone._view_version = -1
        return clone

    # ------------------------------------------------------------- pruning

    def shards_for_query(self, query: Query) -> np.ndarray:
        """Surviving shard indexes, ascending: key pruning via the shard
        map intersected with zone-map pruning over *every* predicate."""
        survivors = []
        for s in self.shard_map.shards_for_query(query):
            s = int(s)
            if self.shards[s].nrows == 0:
                continue  # provably no rows at all
            zones = self.zone_maps[s]
            alive = True
            for pred in query.predicates:
                zone = zones.get(pred.attr)
                if zone is None:
                    continue
                zlo, zhi = zone
                if pred.kind == KIND_IN:
                    if not any(zlo <= v <= zhi for v in pred.values):
                        alive = False
                        break
                else:
                    lo, hi = pred.value_range()
                    if hi < zlo or lo > zhi:
                        alive = False
                        break
            if alive:
                survivors.append(s)
        return np.asarray(survivors, dtype=np.int64)

    # ------------------------------------------------------------ mutation

    def insert(
        self,
        columns: dict[str, np.ndarray],
        source_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Route a batch to its target shards (build-time boundaries) and
        append per shard; returns globally-unique logical page tokens
        (shard-strided) per input row, for maintenance accounting."""
        key_values = np.asarray(columns[self.spec.key])
        n_new = len(key_values)
        if n_new == 0:
            self.last_route = {}
            return np.empty(0, dtype=np.int64)
        if source_ids is None:
            start = int(max(
                int(s.source_rowids.max(initial=-1)) for s in self.shards
            )) + 1
            source_ids = np.arange(start, start + n_new, dtype=np.int64)
        else:
            source_ids = np.asarray(source_ids, dtype=np.int64)
        assign = self.shard_map.route(key_values)
        out = np.empty(n_new, dtype=np.int64)
        self.last_route = {}
        for s, hf in enumerate(self.shards):
            rows = np.nonzero(assign == s)[0]
            if len(rows) == 0:
                continue
            sub = {n: np.asarray(arr)[rows] for n, arr in columns.items()}
            pages = hf.insert(sub, source_ids[rows])
            out[rows] = pages + np.int64(s) * _PAGE_STRIDE
            self.last_route[s] = len(rows)
            zones = self.zone_maps[s]
            for name in hf.table.column_names:
                batch = np.asarray(sub[name])
                lo, hi = float(batch.min()), float(batch.max())
                old = zones.get(name)
                zones[name] = (lo, hi) if old is None else (
                    min(old[0], lo), max(old[1], hi)
                )
        return out

    def delete_source(self, source_ids: np.ndarray) -> np.ndarray:
        """Tombstone matching rows in every shard; returns concat-space
        rowids (zone maps stay valid — bounds only ever over-cover)."""
        bases = self._shard_bases()
        out = []
        for s, hf in enumerate(self.shards):
            rowids = hf.delete_source(source_ids)
            if len(rowids):
                out.append(rowids + bases[s])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def pages_for_rowids(self, rowids: np.ndarray) -> np.ndarray:
        """Globally-unique (shard-strided) page tokens of concat-space
        rowids."""
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) == 0:
            return np.empty(0, dtype=np.int64)
        bases = self._shard_bases()
        shard = np.searchsorted(bases, rowids, side="right") - 1
        local = rowids - bases[shard]
        return sorted_unique(local // self.rows_per_page + shard * _PAGE_STRIDE)

    def refresh_zone_maps(self) -> None:
        """Recompute (tighten) every shard's zone map from current content
        — called after compaction reclaims tombstones."""
        self.zone_maps = [_zone_map(s.table) for s in self.shards]

    def __repr__(self) -> str:
        key = ",".join(self.cluster_key) or "<unclustered>"
        return (
            f"ShardedHeapFile({self.name!r}, key=({key}), "
            f"shards={self.spec.shards}x{self.spec.scheme}"
            f"[{self.spec.key}], pages={self.npages})"
        )


def _rebind_cm(cm, heapfile):
    """Shallow-rebind a CM onto a privatized shard heap file (mirrors the
    refresh executor's CM privatization trick)."""
    clone = object.__new__(type(cm))
    clone.__dict__ = {**cm.__dict__, "heapfile": heapfile}
    return clone


# ---------------------------------------------------------------- access


@dataclass(frozen=True)
class ShardAccess:
    """One surviving shard's winning plan inside a sharded access."""

    shard: int
    plan: str
    cost: SimulatedCost


@dataclass(frozen=True)
class ShardedAccessResult(AccessResult):
    """Aggregate access over surviving shards; ``mask`` covers the full
    concat space (pruned shards contribute all-False segments)."""

    shard_details: tuple[ShardAccess, ...] = ()
    shards_total: int = 0
    pages_avoided: int = 0

    @property
    def shards_scanned(self) -> int:
        return len(self.shard_details)


def shard_best_plan(
    sharded: ShardedHeapFile,
    s: int,
    query: Query,
    btree_keys: tuple[tuple[str, ...], ...] = (),
) -> AccessResult:
    """Cheapest plan over one shard, same plan set and strict-< tie-break
    as :meth:`PhysicalDatabase.plans_for` on a plain object."""
    hf = sharded.shards[s]
    session = get_session()
    if session is not None:
        # Pin the shard into the session's content-keyed caches: each shard
        # caches independently (per-shard cache keys).
        session.adopt_heapfile(hf)
    ctx = EvalContext(hf, query)
    best = full_scan(hf, query, ctx)
    cscan = clustered_scan(hf, query, ctx)
    if cscan is not None and cscan.seconds < best.seconds:
        best = cscan
    for cm in sharded.shard_cms[s]:
        res = cm_scan(hf, query, cm, ctx)
        if res is not None and res.seconds < best.seconds:
            best = res
    for key in btree_keys:
        res = secondary_btree_scan(hf, query, tuple(key), ctx)
        if res is not None and res.seconds < best.seconds:
            best = res
    return best


def sharded_scan(
    sharded: ShardedHeapFile,
    query: Query,
    btree_keys: tuple[tuple[str, ...], ...] = (),
) -> ShardedAccessResult:
    """Prune, then evaluate each surviving shard with its cheapest plan,
    summing shard costs in ascending shard order."""
    with span("shard.prune", object=sharded.name, query=query.name):
        survivors = {int(s) for s in sharded.shards_for_query(query)}
        pages_avoided = sum(
            hf.npages for i, hf in enumerate(sharded.shards)
            if i not in survivors
        )
        annotate(
            shards=sharded.spec.shards,
            scanned=len(survivors),
            pages_avoided=pages_avoided,
        )
    mask = np.zeros(sharded.nrows, dtype=bool)
    cost = ZERO_COST
    details = []
    base = 0
    for s, hf in enumerate(sharded.shards):
        if s in survivors:
            res = shard_best_plan(sharded, s, query, btree_keys)
            mask[base:base + hf.nrows] = res.mask
            cost = cost + res.cost
            details.append(ShardAccess(s, res.plan, res.cost))
        base += hf.nrows
    return ShardedAccessResult(
        f"sharded[{len(details)}/{len(sharded.shards)}]",
        cost,
        mask,
        shard_details=tuple(details),
        shards_total=len(sharded.shards),
        pages_avoided=pages_avoided,
    )


def run_workload_shard_parallel(db, workload, sweep, session=None) -> dict:
    """Evaluate ``workload`` on ``db`` under ``session``: query name ->
    :class:`PlanChoice`, each the best plan over every covering object, as
    :meth:`PhysicalDatabase.run` picks it but never from its plan memo.
    ``sweep`` is accepted and ignored; shards are evaluated in process."""
    with ambient_scope(session):
        return {q.name: db.best_plan(q) for q in workload}


def sharded_fact_object(
    flat: Table,
    fact: str,
    primary_key: tuple[str, ...],
    spec: ShardSpec,
    disk: DiskModel | None = None,
):
    """Build the sharded base :class:`PhysicalObject` for a fact."""
    from repro.storage.executor import PhysicalObject

    disk = disk if disk is not None else DiskModel()
    shf = ShardedHeapFile(flat, tuple(primary_key), disk, spec, name=fact)
    return PhysicalObject(shf, fact=fact)  # type: ignore[arg-type]
