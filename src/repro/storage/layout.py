"""Heap files: tables laid out in pages under a clustered sort order.

A :class:`HeapFile` is the physical form of a base table or MV: the rows of a
:class:`~repro.relational.table.Table`, sorted lexicographically by the
clustered index key, packed into fixed-size pages.  Row position in that
order is the *rowid*; ``rowid // rows_per_page`` is the page.  Everything the
access paths need — predicate masks to rowids, rowids to pages, clustered-key
values to contiguous row ranges — is computed against this layout.

Heap files are *mutable*: :meth:`HeapFile.insert` appends a batch of rows to
an unsorted tail region (rowids ``[sorted_rows, nrows)``), :meth:`delete_rows`
tombstones rows in place, and :meth:`compact` folds the tail into the sorted
region and reclaims tombstoned space.  The sorted region's arrays are never
mutated — every mutation builds fresh column arrays — and every mutator ends
in :meth:`HeapFile._refresh_geometry`, which bumps ``version`` (the mutation
count) and folds what the mutation was given into ``lineage``, a 16-byte hash
chain.  Caches (:class:`~repro.engine.session.EvalSession`) key a mutated
file by its content when first seen plus its lineage since, so they observe
mutations as new keys rather than silently stale entries, without reading
the file again.
``source_rowids`` keeps the provenance of every heap row back to its source
(flat-table) row, which is what lets a deletion propagate to projections that
do not carry the deletion predicate's attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.relational.table import Table
from repro.storage.btree import btree_height, clustered_overhead_bytes
from repro.storage.disk import DiskModel
from repro.storage.fragments import pages_for_rowids


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`HeapFile.compact` / :meth:`HeapFile.tail_merge` did.

    ``pages_read`` / ``pages_written`` are the pages the rewrite actually
    touched: the whole file for a full compaction, only the affected suffix
    for a tail merge.  ``merged_from_row`` is the first row whose position
    (and so clustered rank) may have changed — rows below it are untouched,
    which is what lets Correlation Maps refresh incrementally.
    """

    rows_merged: int  # tail rows folded into the sorted region
    rows_reclaimed: int  # tombstoned rows dropped
    pages_before: int
    pages_after: int
    pages_read: int = 0
    pages_written: int = 0
    merged_from_row: int = 0


class HeapFile:
    """A clustered, paged layout of a table."""

    def __init__(
        self,
        table: Table,
        cluster_key: tuple[str, ...],
        disk: DiskModel,
        name: str | None = None,
        permutation: np.ndarray | None = None,
    ) -> None:
        for attr in cluster_key:
            table.column(attr)  # raises KeyError on unknown attributes
        self.name = name or table.schema.name
        self.cluster_key = tuple(cluster_key)
        self.disk = disk
        if cluster_key:
            # ``permutation`` is the precomputed stable sort order of the
            # rows (what ``table.sort_permutation(cluster_key)`` would
            # return) — callers that cache orderings skip the lexsort.
            if permutation is not None:
                if len(permutation) != table.nrows:
                    raise ValueError("permutation length does not match table rows")
            else:
                permutation = table.sort_permutation(self.cluster_key)
            self.table = table.select(permutation)
            self.source_rowids = np.asarray(permutation, dtype=np.int64)
        else:
            self.table = table
            self.source_rowids = np.arange(table.nrows, dtype=np.int64)
        self.row_bytes = self.table.row_bytes()
        self.rows_per_page = disk.rows_per_page(self.row_bytes)
        self.npages = disk.pages_for_rows(self.table.nrows, self.row_bytes)
        key_bytes = max(1, self.table.schema.byte_size(self.cluster_key)) if cluster_key else 8
        self._key_bytes = key_bytes
        self.btree_height = btree_height(self.npages, key_bytes, disk.page_size)
        # (rank codes, rank bounds) of each cluster-key prefix depth, built
        # lazily: the bounds turn a CM's cluster buckets into rowid ranges.
        self._prefixes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # -- mutation state -------------------------------------------------
        # Rows [0, sorted_rows) are in clustered order; [sorted_rows, nrows)
        # is the unsorted insert tail.  ``live`` is None (all rows live) or a
        # boolean mask; tombstoned rows keep their pages until compaction.
        self.version = 0
        # What was done to this file since it was built: a 16-byte hash
        # chain over every mutation's inputs, folded where ``version`` is
        # bumped.  Two files with equal content at some point and equal
        # chain values then and now hold equal content now, which lets a
        # session key a mutated file without reading it.
        self.lineage = b""
        # Counts *sorted-region* changes only: inserts grow the tail and
        # deletes tombstone in place, but only compaction rewrites the
        # clustered order — the event rank-code consumers (CMs) care about.
        self.sorted_epoch = 0
        self.sorted_rows = self.table.nrows
        self.live: np.ndarray | None = None
        # Set by EvalSession.heapfile(): a session-cached file may back
        # several databases, so mutators must work on a private copy.
        self.shared = False

    # --------------------------------------------------------------- sizing

    @property
    def nrows(self) -> int:
        return self.table.nrows

    @property
    def live_rows(self) -> int:
        """Rows not tombstoned (what queries can return)."""
        if self.live is None:
            return self.nrows
        return int(self.live.sum())

    @property
    def tail_rows(self) -> int:
        """Appended rows not yet folded into the clustered order."""
        return self.nrows - self.sorted_rows

    @property
    def heap_bytes(self) -> int:
        return self.npages * self.disk.page_size

    @property
    def size_bytes(self) -> int:
        """Heap pages plus the clustered B+Tree's internal nodes."""
        return self.heap_bytes + clustered_overhead_bytes(
            self.npages, self._key_bytes, self.disk.page_size
        )

    def full_scan_seconds(self) -> float:
        return self.disk.full_scan_seconds(self.npages)

    # ------------------------------------------------------------- mutation

    def mutable_copy(self) -> "HeapFile":
        """A private copy sharing this file's (immutable) arrays.

        Mutators rebind whole arrays rather than writing into them, so a
        shallow copy fully isolates the copy's future mutations from the
        original — the escape hatch for session-cached files that back more
        than one database.
        """
        clone = object.__new__(HeapFile)
        clone.__dict__ = dict(self.__dict__)
        clone._prefixes = dict(self._prefixes)
        clone.shared = False
        return clone

    def _refresh_geometry(self, mutation: str, *given: np.ndarray) -> None:
        """Every mutator ends here: geometry follows the new row count, and
        ``version`` and ``lineage`` record the mutation (its name and the
        arrays it was given — all four mutators are deterministic in the
        file's state and those)."""
        from hashlib import blake2b

        self.npages = self.disk.pages_for_rows(self.table.nrows, self.row_bytes)
        self.btree_height = btree_height(
            self.npages, self._key_bytes, self.disk.page_size
        )
        self.version += 1
        link = blake2b(self.lineage, digest_size=16)
        link.update(mutation.encode())
        for arr in given:
            arr = np.ascontiguousarray(arr)
            link.update(f"|{arr.dtype.str}{arr.shape}".encode())
            link.update(arr)
        self.lineage = link.digest()

    def insert(
        self,
        columns: dict[str, np.ndarray],
        source_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Append a batch of rows to the unsorted tail; returns the heap
        pages each row *logically lands on* — its would-be position under
        the clustered order — which is what maintenance accounting charges
        (a real clustered structure dirties the page at the key's position;
        the tail is our staging of that write).

        ``columns`` must cover every column of this file's table (extra
        columns — e.g. the full flat-table universe — are ignored, which is
        how one batch feeds base facts and projections alike).
        ``source_ids`` carries row provenance; defaults to fresh ids beyond
        the current maximum.
        """
        names = self.table.column_names
        batch = {n: np.asarray(columns[n]) for n in names}
        lengths = {len(arr) for arr in batch.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged insert batch lengths: {sorted(lengths)}")
        n_new = lengths.pop()
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        if source_ids is None:
            start = int(self.source_rowids.max(initial=-1)) + 1
            source_ids = np.arange(start, start + n_new, dtype=np.int64)
        elif len(source_ids) != n_new:
            raise ValueError("source_ids length does not match batch rows")
        target_pages = self._clustered_target_pages(batch, n_new)
        cols = {
            n: np.concatenate((self.table.column(n), batch[n].astype(
                self.table.column(n).dtype, copy=False
            )))
            for n in names
        }
        self.table = Table(self.table.schema, cols, self.table.decoders)
        self.source_rowids = np.concatenate(
            (self.source_rowids, np.asarray(source_ids, dtype=np.int64))
        )
        if self.live is not None:
            self.live = np.concatenate(
                (self.live, np.ones(n_new, dtype=bool))
            )
        self._refresh_geometry(
            "insert", *(batch[n] for n in names), self.source_rowids[-n_new:]
        )
        return target_pages

    def _clustered_target_pages(
        self, batch: dict[str, np.ndarray], n_new: int
    ) -> np.ndarray:
        """Pages the batch rows would land on under the clustered order.
        Position is approximated by the leading cluster-key attribute (the
        page-locality determinant); unclustered files append sequentially."""
        if not self.cluster_key or self.sorted_rows == 0:
            first_free = self.nrows
            positions = first_free + np.arange(n_new, dtype=np.int64)
            return positions // self.rows_per_page
        lead = self.cluster_key[0]
        sorted_lead = self.table.column(lead)[: self.sorted_rows]
        positions = np.searchsorted(sorted_lead, batch[lead])
        return positions // self.rows_per_page

    def delete_rows(self, rowids: np.ndarray) -> np.ndarray:
        """Tombstone the given heap rowids (already-dead ids are ignored);
        returns the rowids actually tombstoned.  Pages are not reclaimed
        until :meth:`compact` — dead rows still cost I/O to scan past,
        exactly as they do in a real heap."""
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) == 0:
            return rowids
        live = (
            np.ones(self.nrows, dtype=bool) if self.live is None
            else self.live.copy()
        )
        doomed = rowids[live[rowids]]
        if len(doomed) == 0:
            return doomed
        live[doomed] = False
        self.live = live
        self._refresh_geometry("delete", doomed)
        return doomed

    def delete_source(self, source_ids: np.ndarray) -> np.ndarray:
        """Tombstone every live row whose provenance id is in ``source_ids``
        — how a deletion decided on the base fact propagates to projections.
        Returns the tombstoned rowids."""
        if len(source_ids) == 0:
            return np.empty(0, dtype=np.int64)
        mask = np.isin(self.source_rowids, np.asarray(source_ids, dtype=np.int64))
        return self.delete_rows(np.nonzero(mask)[0])

    def compact(self) -> CompactionStats:
        """Reclaim tombstoned rows and fold the tail into the clustered
        order — the whole file is rewritten (callers charge the rewrite)."""
        pages_before = self.npages
        rows_merged = self.tail_rows
        keep = (
            np.arange(self.nrows, dtype=np.int64) if self.live is None
            else np.nonzero(self.live)[0]
        )
        rows_reclaimed = self.nrows - len(keep)
        kept = self.table.select(keep)
        perm = kept.sort_permutation(self.cluster_key) if self.cluster_key else (
            np.arange(kept.nrows, dtype=np.int64)
        )
        self.table = kept.select(perm)
        self.source_rowids = self.source_rowids[keep][perm]
        self.live = None
        self.sorted_rows = self.table.nrows
        self.sorted_epoch += 1
        self._prefixes = {}
        self._refresh_geometry("compact")
        return CompactionStats(
            rows_merged=rows_merged,
            rows_reclaimed=rows_reclaimed,
            pages_before=pages_before,
            pages_after=self.npages,
            pages_read=pages_before,
            pages_written=self.npages,
            merged_from_row=0,
        )

    def tail_merge(self) -> CompactionStats:
        """Fold the tail and reclaim tombstones by rewriting only the suffix
        the churn can reach — the incremental form of :meth:`compact`.

        The merge boundary is the lowest row position any tail row's leading
        cluster-key value sorts into, further lowered to the first tombstone:
        every row strictly below it is live, has a lead value strictly below
        every suffix row's, and therefore keeps its exact position (and its
        clustered-prefix rank) under a full stable re-sort.  Rewriting the
        suffix rows in stable sorted order is thus *bit-identical* to
        :meth:`compact` — the tests assert it — but ``pages_read`` /
        ``pages_written`` cover only the affected pages, which is what an
        online reorganization would actually pay.
        """
        pages_before = self.npages
        rows_merged = self.tail_rows
        n = self.nrows
        boundary = self.sorted_rows
        if self.cluster_key and self.tail_rows:
            lead = self.table.column(self.cluster_key[0])
            boundary = int(np.searchsorted(
                lead[: self.sorted_rows], lead[self.sorted_rows:].min(),
                side="left",
            ))
        if self.live is not None:
            dead = np.nonzero(~self.live)[0]
            if len(dead):
                boundary = min(boundary, int(dead[0]))
        suffix_ids = np.arange(boundary, n, dtype=np.int64)
        if self.live is not None:
            suffix_ids = suffix_ids[self.live[boundary:]]
        rows_reclaimed = (n - boundary) - len(suffix_ids)
        suffix = self.table.select(suffix_ids)
        perm = suffix.sort_permutation(self.cluster_key) if self.cluster_key \
            else np.arange(suffix.nrows, dtype=np.int64)
        cols = {
            name: np.concatenate((
                self.table.column(name)[:boundary],
                suffix.column(name)[perm],
            ))
            for name in self.table.column_names
        }
        self.table = Table(self.table.schema, cols, self.table.decoders)
        self.source_rowids = np.concatenate(
            (self.source_rowids[:boundary], self.source_rowids[suffix_ids][perm])
        )
        self.live = None
        self.sorted_rows = self.table.nrows
        self.sorted_epoch += 1
        self._prefixes = {}
        self._refresh_geometry("tail_merge")
        first_page = boundary // self.rows_per_page
        return CompactionStats(
            rows_merged=rows_merged,
            rows_reclaimed=rows_reclaimed,
            pages_before=pages_before,
            pages_after=self.npages,
            pages_read=pages_before - first_page,
            pages_written=self.npages - first_page,
            merged_from_row=boundary,
        )

    def tail_page_fragment(self) -> tuple[int, int] | None:
        """The page range [(first, last)] holding the unsorted tail, or None
        when there is no tail.  Index-guided scans must read it wholesale —
        tail rows are not covered by the clustered order or any CM."""
        if self.tail_rows == 0:
            return None
        first = self.sorted_rows // self.rows_per_page
        return (first, max(self.npages - 1, first))

    # ------------------------------------------------------------- row maps

    def rowids_for_mask(self, mask: np.ndarray) -> np.ndarray:
        """Rowids (positions in clustered order) where ``mask`` is true."""
        if len(mask) != self.nrows:
            raise ValueError("mask length does not match heap file rows")
        return np.nonzero(mask)[0]

    def pages_for_rowids(self, rowids: np.ndarray) -> np.ndarray:
        return pages_for_rowids(rowids, self.rows_per_page)

    def _prefix(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """(rank codes, rank bounds) of the leading ``depth`` cluster-key
        attributes over the *sorted region*.  Tail rows have no rank (they
        are outside the clustered order until compaction) and index-guided
        scans read the tail separately.

        The codes are the dense rank (0..D-1) of every row, in heap order —
        non-decreasing by construction.  The bounds hold the first rowid of
        every rank and then ``sorted_rows``, so rank ``r`` is exactly the
        rowids ``bounds[r]:bounds[r + 1]``.  Ranks are the shared coordinate
        system between heap files and the Correlation Maps built over them:
        a CM maps unclustered values to buckets of co-occurring ranks, and
        :meth:`page_fragments_for_prefix_buckets` reads bucket ranges off
        the bounds.
        """
        if depth <= 0 or depth > len(self.cluster_key):
            raise ValueError(f"bad prefix depth {depth}")
        cached = self._prefixes.get(depth)
        if cached is not None:
            return cached
        names = self.cluster_key[:depth]
        # The sorted region is lexicographic by the prefix, so a change in
        # any component starts a new rank.
        nsorted = self.sorted_rows
        arrays = [self.table.column(n)[:nsorted] for n in names]
        changed = np.zeros(nsorted, dtype=bool)
        if nsorted:
            for arr in arrays:
                changed[1:] |= arr[1:] != arr[:-1]
        codes = np.cumsum(changed).astype(np.int64)
        changed[:1] = True  # row 0 starts rank 0
        bounds = np.append(np.flatnonzero(changed), nsorted)
        self._prefixes[depth] = (codes, bounds)
        return codes, bounds

    def page_fragments_for_prefix_buckets(
        self, depth: int, width: int, buckets: np.ndarray
    ) -> list[tuple[int, int]]:
        """Coalesced page fragments [(first, last), ...] covering every rank
        inside the given cluster buckets — the I/O unit of a CM-guided scan.
        Bucket ``b`` holds the ``width`` consecutive ranks from ``b *
        width``, so it is the one rowid range between two entries of the
        rank bounds, the last bucket cut short by the rank count.
        ``buckets`` must be strictly increasing, which the distinct buckets
        of any row subset taken in heap order are; a bucket past the last
        rank reads nothing."""
        bounds = self._prefix(depth)[1]
        nranks = len(bounds) - 1
        first_rank = np.minimum(buckets * width, nranks)
        starts = bounds[first_rank]
        ends = bounds[np.minimum(first_rank + width, nranks)]
        present = ends > starts
        return self.page_fragments_for_row_ranges(starts[present], ends[present])

    def page_fragments_for_row_ranges(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> list[tuple[int, int]]:
        """Coalesced page fragments [(first, last), ...] covering the rowid
        ranges ``[starts[i], ends[i])`` — sorted, disjoint and non-empty;
        ranges that touch land in one fragment like any others within the
        readahead gap."""
        if len(starts) == 0:
            return []
        # The rowid ranges are non-decreasing, so first/last page arrays are
        # too and the merge is a vectorized segmented max over gap-break
        # groups.
        firsts = starts // self.rows_per_page
        lasts = (ends - 1) // self.rows_per_page
        gap = self.disk.fragment_gap_pages
        running_last = np.maximum.accumulate(lasts)
        opens = np.ones(len(firsts), dtype=bool)
        opens[1:] = firsts[1:] > running_last[:-1] + gap + 1
        start_idx = np.nonzero(opens)[0]
        merged_last = np.maximum.reduceat(lasts, start_idx)
        return list(zip(firsts[start_idx].tolist(), merged_last.tolist()))

    def prefix_ranks(self, depth: int) -> np.ndarray:
        """Rank code of every row's leading-``depth`` cluster-key value, in
        heap order (public accessor used by CM construction)."""
        return self._prefix(depth)[0]

    def prefix_distinct_count(self, depth: int) -> int:
        return len(self._prefix(depth)[1]) - 1

    def __repr__(self) -> str:
        key = ",".join(self.cluster_key) or "<unclustered>"
        return f"HeapFile({self.name!r}, key=({key}), pages={self.npages})"
