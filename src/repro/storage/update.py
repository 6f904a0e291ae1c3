"""Applying refresh streams to a live :class:`PhysicalDatabase`.

This is the piece Figure 14 was missing an engine for: the buffer-pool
simulation knew *why* extra materialized objects make inserts expensive, but
nothing could actually apply an insert.  A :class:`RefreshExecutor` routes a
refresh batch (inserts of flat-universe rows, or deletes by predicate) to
every physical object derived from the batch's fact table:

* the heap file takes the batch through :meth:`~repro.storage.layout.
  HeapFile.insert` / :meth:`~repro.storage.layout.HeapFile.delete_source`
  (append + tombstone; provenance ids propagate deletes into projections
  that do not carry the predicate's attributes);
* every page the mutation *logically dirties* — the row's position under the
  object's clustered order, plus one leaf touch per dense secondary B+Tree —
  goes through a real :class:`~repro.storage.bufferpool.BufferPool`, so
  maintenance cost emerges from LRU hits/misses exactly as in the paper's
  Appendix A-3 experiment;
* Correlation Maps are refreshed incrementally (:meth:`~repro.cm.
  correlation_map.CorrelationMap.refresh`: a no-op for tail inserts, a
  rebuild after compaction);
* the database's plan memo is invalidated, and an active
  :class:`~repro.engine.EvalSession` re-keys the mutated heap files so every
  content-keyed cache tier misses onto fresh entries (a key bump, not a
  cache teardown).

Session-cached heap files may back several databases of a sweep, so the
executor privatizes an object (``HeapFile.mutable_copy`` + rebound CMs)
before its first mutation — other databases keep seeing the pristine file.

Every count of the refresh path is a value a caller already holds: each
batch returns its :class:`RefreshOutcome` (rows, page reads and writes,
compactions, seconds), :meth:`RefreshExecutor.flush` and
:meth:`RefreshExecutor.catch_up` return the seconds they charged, and the
buffer pool's hits, misses and evictions are attributes of
``executor.pool``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.session import EvalSession, get_session
from repro.obs.trace import annotate, span
from repro.storage.bufferpool import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.btree import leaf_entries_per_page
from repro.storage.disk import DiskModel
from repro.storage.executor import PhysicalDatabase, PhysicalObject
from repro.storage.fragments import sorted_unique
from repro.storage.layout import HeapFile
from repro.storage.sharded import ShardedHeapFile


@dataclass(frozen=True)
class RefreshOutcome:
    """Accounting for one applied batch."""

    kind: str  # "insert" | "delete"
    fact: str
    rows: int
    objects_touched: int
    seconds: float
    page_reads: int
    page_writes: int
    compactions: int


class RefreshExecutor:
    """Applies insert/delete batches to a database, charging a buffer pool.

    ``compact_threshold`` triggers an object's compaction once its unsorted
    tail exceeds that fraction of the sorted region (0 disables).  The
    executor owns the pool: cost accumulates across batches the way a real
    warm buffer pool would, and :meth:`flush` settles the remaining dirty
    pages at the end of a stream.

    ``compaction`` picks how a triggered compaction runs: ``"rewrite"``
    (the baseline) rewrites the whole file synchronously and rebuilds its
    CMs; ``"tail-merge"`` rewrites only the suffix the churn can reach
    (:meth:`~repro.storage.layout.HeapFile.tail_merge` — bit-identical
    layout), keeps the object's warm prefix pages in the pool, and refreshes
    CMs incrementally with amortized rebuilds
    (:meth:`~repro.cm.correlation_map.CorrelationMap.refresh_merged`).
    Query answers are identical under either mode; only the charged
    maintenance I/O and CM bookkeeping differ.
    """

    #: Valid ``compaction`` modes.
    COMPACTION_MODES = ("rewrite", "tail-merge")

    def __init__(
        self,
        db: PhysicalDatabase,
        pool_pages: int = DEFAULT_POOL_PAGES,
        disk: DiskModel | None = None,
        session: EvalSession | None = None,
        compact_threshold: float = 0.25,
        compaction: str = "rewrite",
    ) -> None:
        if compaction not in self.COMPACTION_MODES:
            raise ValueError(
                f"unknown compaction mode {compaction!r}; "
                f"expected one of {self.COMPACTION_MODES}"
            )
        self.db = db
        self.disk = disk or DiskModel()
        self.pool = BufferPool(pool_pages)
        self.session = session if session is not None else get_session()
        self.compact_threshold = compact_threshold
        self.compaction = compaction
        self._obj_ids: dict[str, int] = {}
        self._next_source: dict[str, int] = {}
        # (object name, btree key) -> sorted key values at first touch, for
        # deterministic leaf-page targeting of index maintenance.
        self._index_keys: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}
        # Applied-batch log, in order: what a freshly built object (an MV
        # deployed mid-stream) must replay to catch up with the batches it
        # was not there for.
        self._log: list[tuple] = []
        self.compactions = 0

    # ------------------------------------------------------------- plumbing

    def _obj_id(self, name: str) -> int:
        return self._obj_ids.setdefault(name, len(self._obj_ids))

    def _privatize(self, obj: PhysicalObject) -> HeapFile:
        """Make the object's heap file safe to mutate: session-cached files
        are shared across the sweep's databases, so the first mutation swaps
        in a private copy (and rebinds the CMs to it)."""
        hf = obj.heapfile
        if hf.shared:
            hf = hf.mutable_copy()
            obj.heapfile = hf
            obj.cms = [self._rebound_cm(cm, hf) for cm in obj.cms]
        if self.session is not None:
            if isinstance(hf, ShardedHeapFile):
                # Scans run on (and cache-key off) the per-shard files.
                for shard in hf.shards:
                    self.session.adopt_heapfile(shard)
            else:
                self.session.adopt_heapfile(hf)
        return hf

    @staticmethod
    def _rebound_cm(cm, heapfile: HeapFile):
        clone = object.__new__(type(cm))
        clone.__dict__ = {**cm.__dict__, "heapfile": heapfile}
        return clone

    def _next_source_ids(self, fact: str, n: int) -> np.ndarray:
        start = self._next_source.get(fact)
        if start is None:
            start = 0
            for obj in self.db.objects_for_fact(fact):
                ids = obj.heapfile.source_rowids
                if len(ids):
                    start = max(start, int(ids.max()) + 1)
        self._next_source[fact] = start + n
        return np.arange(start, start + n, dtype=np.int64)

    def _charge(self, reads: int, writes: int) -> float:
        return (reads + writes) * self.disk.page_write_s

    def _pool_delta(self) -> tuple[int, int]:
        return (self.pool.misses, self.pool.dirty_evictions)

    # -------------------------------------------------------------- applying

    def apply(self, batch) -> RefreshOutcome:
        """Apply one :class:`~repro.workloads.refresh.RefreshBatch` (duck
        typed: anything with ``kind``/``fact``/``columns``/``delete_predicates``)."""
        if batch.kind == "insert":
            return self.apply_insert(batch.fact, batch.columns)
        if batch.kind == "delete":
            return self.apply_delete(batch.fact, list(batch.delete_predicates))
        raise ValueError(f"unknown refresh batch kind {batch.kind!r}")

    def apply_insert(
        self, fact: str, columns: dict[str, np.ndarray]
    ) -> RefreshOutcome:
        """Insert a batch of flat-universe rows into every object of
        ``fact``; returns the maintenance accounting."""
        objects = self.db.objects_for_fact(fact)
        if not objects:
            raise KeyError(f"no physical objects materialize fact {fact!r}")
        nrows = len(next(iter(columns.values()))) if columns else 0
        if nrows == 0:
            return RefreshOutcome("insert", fact, 0, 0, 0.0, 0, 0, 0)
        with span("refresh.insert", fact=fact, rows=nrows):
            source_ids = self._next_source_ids(fact, nrows)
            self._log.append(("insert", fact, columns, source_ids))
            reads0, writes0 = self._pool_delta()
            compactions = 0
            compact_seconds = 0.0
            for obj in objects:
                hf = self._privatize(obj)
                obj_id = self._obj_id(obj.name)
                target_pages = hf.insert(columns, source_ids)
                for page in sorted_unique(target_pages):
                    self.pool.access(obj_id, int(page), dirty=True)
                self._charge_index_maintenance(obj, hf, columns, nrows)
                seconds = self._maybe_compact(obj, hf)
                if seconds:
                    compactions += 1
                    compact_seconds += seconds
            self._settle(fact)
            reads1, writes1 = self._pool_delta()
            reads, writes = reads1 - reads0, writes1 - writes0
            outcome = RefreshOutcome(
                "insert", fact, nrows, len(objects),
                self._charge(reads, writes) + compact_seconds,
                reads, writes, compactions,
            )
            annotate(seconds=outcome.seconds, compactions=compactions)
            return outcome

    def apply_delete(self, fact: str, predicates: list) -> RefreshOutcome:
        """Delete (tombstone) every live row of ``fact`` matching the
        conjunction of ``predicates``, across every derived object.  The
        predicate is evaluated once on an anchor object carrying all its
        attributes; provenance ids propagate the decision everywhere else.
        """
        objects = self.db.objects_for_fact(fact)
        if not objects:
            raise KeyError(f"no physical objects materialize fact {fact!r}")
        with span("refresh.delete", fact=fact):
            anchor = self._anchor_for(objects, predicates, fact)
            hf = anchor.heapfile
            mask = np.ones(hf.nrows, dtype=bool)
            for pred in predicates:
                mask &= pred.mask(hf.table.column(pred.attr))
            if hf.live is not None:
                mask &= hf.live
            doomed_sources = hf.source_rowids[mask]
            self._log.append(("delete", fact, doomed_sources))
            reads0, writes0 = self._pool_delta()
            compactions = 0
            compact_seconds = 0.0
            removed = 0
            for obj in objects:
                ohf = self._privatize(obj)
                rowids = ohf.delete_source(doomed_sources)
                if obj is anchor:
                    removed = len(rowids)
                obj_id = self._obj_id(obj.name)
                for page in ohf.pages_for_rowids(rowids):
                    self.pool.access(obj_id, int(page), dirty=True)
                seconds = self._maybe_compact(obj, ohf)
                if seconds:
                    compactions += 1
                    compact_seconds += seconds
            self._settle(fact)
            reads1, writes1 = self._pool_delta()
            reads, writes = reads1 - reads0, writes1 - writes0
            outcome = RefreshOutcome(
                "delete", fact, removed, len(objects),
                self._charge(reads, writes) + compact_seconds,
                reads, writes, compactions,
            )
            annotate(rows=removed, seconds=outcome.seconds)
            return outcome

    def flush(self) -> float:
        """Write out the pool's remaining dirty pages (end of a stream);
        returns the seconds charged."""
        dirty = self.pool.flush()
        return dirty * self.disk.page_write_s

    def catch_up(self, obj: PhysicalObject) -> float:
        """Replay every already-applied batch into ``obj`` — an object that
        was built *after* the stream started (an online MV build) holds the
        design-time snapshot and must take the mutations it missed.
        Returns the seconds charged."""
        with span("refresh.catch_up", object=obj.name):
            return self._catch_up(obj)

    def _catch_up(self, obj: PhysicalObject) -> float:
        reads0, writes0 = self._pool_delta()
        compact_seconds = 0.0
        touched = False
        for entry in self._log:
            if entry[0] == "insert":
                _, fact, columns, source_ids = entry
                if not obj.serves_fact(fact):
                    continue
                hf = self._privatize(obj)
                obj_id = self._obj_id(obj.name)
                pages = hf.insert(columns, source_ids)
                for page in sorted_unique(pages):
                    self.pool.access(obj_id, int(page), dirty=True)
                self._charge_index_maintenance(
                    obj, hf, columns, len(source_ids)
                )
                touched = True
            else:
                _, fact, doomed_sources = entry
                if not obj.serves_fact(fact):
                    continue
                hf = self._privatize(obj)
                obj_id = self._obj_id(obj.name)
                rowids = hf.delete_source(doomed_sources)
                for page in hf.pages_for_rowids(rowids):
                    self.pool.access(obj_id, int(page), dirty=True)
                touched = True
        if touched:
            compact_seconds = self._maybe_compact(obj, obj.heapfile)
            self.db.invalidate_plans()
        reads1, writes1 = self._pool_delta()
        seconds = self._charge(reads1 - reads0, writes1 - writes0) + compact_seconds
        annotate(seconds=seconds, batches=len(self._log))
        return seconds

    # -------------------------------------------------------------- helpers

    @staticmethod
    def _anchor_for(
        objects: list[PhysicalObject], predicates: list, fact: str
    ) -> PhysicalObject:
        attrs = [p.attr for p in predicates]
        for obj in objects:
            if obj.name == fact and all(
                obj.heapfile.table.has_column(a) for a in attrs
            ):
                return obj
        for obj in objects:
            if all(obj.heapfile.table.has_column(a) for a in attrs):
                return obj
        raise KeyError(
            f"no object of fact {fact!r} carries delete attributes {attrs}"
        )

    def _charge_index_maintenance(
        self,
        obj: PhysicalObject,
        hf: HeapFile,
        columns: dict[str, np.ndarray],
        nrows: int,
    ) -> None:
        """One leaf-page touch per insert per dense secondary B+Tree, at the
        leaf holding the new key's sorted position."""
        for key in obj.btree_keys:
            lead = key[0]
            cache_key = (obj.name, tuple(key))
            # Each index gets its own pool object-id, so leaf page numbers
            # never alias heap pages (whose count grows with every batch).
            idx_id = self._obj_id(f"{obj.name}#btree[{','.join(key)}]")
            sorted_vals = self._index_keys.get(cache_key)
            if sorted_vals is None:
                sorted_vals = np.sort(hf.table.column(lead))
                self._index_keys[cache_key] = sorted_vals
            key_bytes = hf.table.schema.byte_size(key)
            per_leaf = leaf_entries_per_page(key_bytes, self.disk.page_size)
            positions = np.searchsorted(sorted_vals, np.asarray(columns[lead]))
            leaves = sorted_unique(positions // per_leaf)
            for leaf in leaves:
                self.pool.access(idx_id, int(leaf), dirty=True)

    def _maybe_compact(self, obj: PhysicalObject, hf: HeapFile) -> float:
        """Compact when the churn (tail + tombstones) crosses the threshold;
        returns the seconds charged (0.0 when nothing happened)."""
        if self.compact_threshold <= 0:
            return 0.0
        if isinstance(hf, ShardedHeapFile):
            return self._maybe_compact_sharded(obj, hf)
        dead = hf.nrows - hf.live_rows
        churn = hf.tail_rows + dead
        if churn <= self.compact_threshold * max(1, hf.sorted_rows):
            return 0.0
        if self.compaction == "tail-merge":
            # Incremental reorganization: rewrite (and charge) only the
            # suffix the churn can reach, keep the object's warm prefix
            # pages cached, and refresh CMs with suffix-proportional work.
            stats = hf.tail_merge()
            seconds = (
                stats.pages_read + stats.pages_written
            ) * self.disk.page_read_s
            self.pool.drop_pages_from(
                self._obj_id(obj.name),
                stats.merged_from_row // hf.rows_per_page,
            )
            for cm in obj.cms:
                cm.refresh_merged(hf, merged_from_row=stats.merged_from_row)
        else:
            stats = hf.compact()
            # A full compaction is a sequential rewrite: read every old
            # page, write every new page (sequential I/O, not pool
            # traffic).  The rewrite settles every cached page of the
            # object, so its heap pool entries are dropped rather than left
            # to masquerade as future hits or surface as already-paid dirty
            # evictions.
            seconds = (
                stats.pages_read + stats.pages_written
            ) * self.disk.page_read_s
            self.pool.drop_object(self._obj_id(obj.name))
            for cm in obj.cms:
                cm.refresh(hf)
        # Secondary indexes are rewritten under either mode: their sorted
        # key arrays absorb the merged rows wholesale.
        for key in obj.btree_keys:
            self.pool.drop_object(
                self._obj_id(f"{obj.name}#btree[{','.join(key)}]")
            )
        self._index_keys = {
            k: v for k, v in self._index_keys.items() if k[0] != obj.name
        }
        self.compactions += 1
        return seconds

    def _maybe_compact_sharded(
        self, obj: PhysicalObject, shf: ShardedHeapFile
    ) -> float:
        """Per-shard compaction: only shards whose own churn crosses the
        threshold are reorganized — hot shards pay, cold shards don't, which
        is exactly the maintenance skew the objective should see."""
        seconds = 0.0
        compacted = False
        for s, hf in enumerate(shf.shards):
            churn = hf.tail_rows + (hf.nrows - hf.live_rows)
            if churn <= self.compact_threshold * max(1, hf.sorted_rows):
                continue
            if self.compaction == "tail-merge":
                stats = hf.tail_merge()
            else:
                stats = hf.compact()
            seconds += (
                stats.pages_read + stats.pages_written
            ) * self.disk.page_read_s
            for cm in shf.shard_cms[s]:
                cm.refresh(hf)
            compacted = True
            self.compactions += 1
        if compacted:
            # Tombstones are gone: tighten zone maps from current content,
            # and settle the object's (shard-strided) pool pages wholesale.
            shf.refresh_zone_maps()
            self.pool.drop_object(self._obj_id(obj.name))
            for key in obj.btree_keys:
                self.pool.drop_object(
                    self._obj_id(f"{obj.name}#btree[{','.join(key)}]")
                )
            self._index_keys = {
                k: v for k, v in self._index_keys.items() if k[0] != obj.name
            }
        return seconds

    def _settle(self, fact: str) -> None:
        """Post-mutation bookkeeping: drop memoized plans (any of them may
        have routed through a mutated object)."""
        self.db.invalidate_plans()
