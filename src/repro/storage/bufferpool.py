"""Buffer-pool simulation for the maintenance-cost experiment (Figure 14).

The paper's Appendix A-3 explains why space budgets matter: every additional
materialized object turns each INSERT into extra dirty pages, and once the
working set of dirtied pages exceeds RAM, the buffer pool thrashes — 500k
insertions became 67x slower going from 1 GB to 3 GB of extra MVs.

This module reproduces the mechanism: an LRU buffer pool where each insert
touches (1) the tail page of the base table — sequential, cache-friendly —
and (2) one page of every additional object at a position determined by the
inserted tuple's key under that object's clustered order, modelled as
uniform-random because MV clusterings are unrelated to insertion order.
A page miss costs a random read; evicting a dirty page costs a random write.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.storage.disk import DiskModel

#: Default pool size the refresh executor and the maintenance model price
#: against when the caller does not size one explicitly.
DEFAULT_POOL_PAGES = 8_192


class BufferPool:
    """An LRU page cache tracking dirty pages and eviction writes."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.capacity_pages = capacity_pages
        self._lru: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self.misses = 0
        self.hits = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def access(self, obj: int, page: int, dirty: bool = True) -> None:
        """Touch page ``(obj, page)``, optionally dirtying it."""
        key = (obj, page)
        if key in self._lru:
            self.hits += 1
            self._lru[key] = self._lru[key] or dirty
            self._lru.move_to_end(key)
            return
        self.misses += 1
        if len(self._lru) >= self.capacity_pages:
            _, was_dirty = self._lru.popitem(last=False)
            if was_dirty:
                self.dirty_evictions += 1
            else:
                self.clean_evictions += 1
        self._lru[key] = dirty

    def flush(self) -> int:
        """Write out all remaining dirty pages; returns how many."""
        dirty = sum(1 for d in self._lru.values() if d)
        self._lru.clear()
        return dirty

    def drop_object(self, obj: int) -> int:
        """Discard every cached page of ``obj`` without charging writes —
        the caller has rewritten the object wholesale (compaction), so the
        stale pages are garbage, not pending I/O.  Returns how many pages
        were dropped."""
        doomed = [key for key in self._lru if key[0] == obj]
        for key in doomed:
            del self._lru[key]
        return len(doomed)

    def drop_pages_from(self, obj: int, first_page: int) -> int:
        """Discard ``obj``'s cached pages at or beyond ``first_page`` — a
        tail merge rewrites only the file's suffix, so the warm prefix pages
        stay cached (the online-reorganization win).  Returns how many pages
        were dropped."""
        doomed = [
            key for key in self._lru
            if key[0] == obj and key[1] >= first_page
        ]
        for key in doomed:
            del self._lru[key]
        return len(doomed)


@dataclass(frozen=True)
class InsertSimResult:
    """Outcome of an insert-workload simulation."""

    elapsed_s: float
    page_reads: int
    page_writes: int
    hit_rate: float

    @property
    def elapsed_hours(self) -> float:
        return self.elapsed_s / 3600.0


def estimate_insert_io(
    n_inserts: int,
    npages: int,
    rows_per_page: int,
    pool_pages: int,
    locality: float,
) -> tuple[float, float]:
    """Analytic (page_reads, page_writes) of ``n_inserts`` rows into one
    object under an LRU pool — the closed form of what
    :func:`simulate_insert_workload` measures, separable per object so the
    ILP can price candidates independently.

    Random touches follow uniform occupancy: of ``r`` random touches over
    ``P`` pages, ``P(1 - exp(-r/P))`` distinct pages are dirtied (all
    eventually written once), and the steady-state LRU miss rate for the
    re-touches is ``max(0, 1 - B/P)`` for a pool share of ``B`` pages.
    Sequential (append-run) touches hit the cached tail and are written
    exactly once per page.
    """
    if n_inserts <= 0 or npages <= 0:
        return (0.0, 0.0)
    locality = min(1.0, max(0.0, locality))
    seq_pages = locality * n_inserts / max(1, rows_per_page)
    random_touches = (1.0 - locality) * n_inserts
    distinct_random = npages * -np.expm1(-random_touches / npages)
    capacity_rate = max(0.0, 1.0 - pool_pages / npages)
    capacity_misses = random_touches * capacity_rate
    reads = max(distinct_random, capacity_misses)
    writes = seq_pages + max(distinct_random, capacity_misses)
    return (reads, writes)


def estimate_insert_seconds(
    n_inserts: int,
    npages: int,
    rows_per_page: int,
    pool_pages: int,
    locality: float,
    disk: DiskModel,
) -> float:
    """Seconds of maintenance I/O for ``n_inserts`` rows into one object
    (reads on miss + dirty write-backs, both random)."""
    reads, writes = estimate_insert_io(
        n_inserts, npages, rows_per_page, pool_pages, locality
    )
    return (reads + writes) * disk.page_write_s


def simulate_insert_workload(
    n_inserts: int,
    base_table_pages: int,
    extra_object_pages: list[int],
    pool_pages: int,
    disk: DiskModel,
    rows_per_page: int = 64,
    seed: int = 0,
    object_localities: list[float] | None = None,
) -> InsertSimResult:
    """Simulate ``n_inserts`` single-row INSERTs against a base table plus
    ``extra_object_pages`` additional objects (MVs / indexes).

    The base table is appended to (one new dirty page per ``rows_per_page``
    inserts).  Each extra object receives the tuple at a uniform-random page
    — unless ``object_localities`` gives it an arrival-order locality, in
    which case that fraction of its inserts lands on its (cache-friendly)
    append run instead, the regime a well-correlated clustering buys.
    Elapsed time charges a random read per miss and a random write per dirty
    eviction, plus a final flush.
    """
    if n_inserts < 0:
        raise ValueError("n_inserts must be non-negative")
    if object_localities is not None and len(object_localities) != len(
        extra_object_pages
    ):
        raise ValueError("object_localities must match extra_object_pages")
    pool = BufferPool(pool_pages)
    rng = np.random.default_rng(seed)
    # Pre-draw the random page targets in bulk: loops beat per-call RNG here.
    targets = []
    for obj_idx, pages in enumerate(extra_object_pages):
        random_pages = rng.integers(0, max(1, pages), size=n_inserts)
        if object_localities is not None and object_localities[obj_idx] > 0:
            locality = min(1.0, object_localities[obj_idx])
            local = rng.random(n_inserts) < locality
            # The append run advances one slot per *local* insert, so the
            # k-th local insert lands on page k // rows_per_page — the same
            # growth rate the analytic model's seq term assumes.
            append_pages = pages + (np.cumsum(local) - 1) // rows_per_page
            random_pages = np.where(local, append_pages, random_pages)
        targets.append(random_pages)
    for i in range(n_inserts):
        pool.access(0, base_table_pages + i // rows_per_page, dirty=True)
        for obj_id, pages in enumerate(targets, start=1):
            pool.access(obj_id, int(pages[i]), dirty=True)
    flush_writes = pool.flush()
    page_writes = pool.dirty_evictions + flush_writes
    page_reads = pool.misses
    elapsed = page_reads * disk.page_write_s + page_writes * disk.page_write_s
    total_accesses = pool.hits + pool.misses
    hit_rate = pool.hits / total_accesses if total_accesses else 1.0
    return InsertSimResult(elapsed, page_reads, page_writes, hit_rate)
