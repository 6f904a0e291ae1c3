"""The Correlation Map structure (Appendix A-1).

A CM over key attributes K on a heap file clustered by C is the set of
distinct (bucketed-K -> co-occurring bucketed-C-rank) pairs.  Lookups apply
the query's predicates on K to the distinct entries and return the union of
co-occurring clustered buckets; each bucket is one contiguous heap range,
read off the file's rank bounds
(:meth:`repro.storage.layout.HeapFile.page_fragments_for_prefix_buckets`).

The structure satisfies the :class:`repro.storage.access.SecondaryStructure`
protocol, so :func:`repro.storage.access.cm_scan` can execute through it.

Entries are stored in CSR form and in no other: ``_packed`` holds every
entry's sorted-unique clustered buckets back to back and ``_offsets`` (one
more element than there are entries) says where each entry's run starts, so
entry ``e`` owns ``_packed[_offsets[e]:_offsets[e + 1]]``.  Build, merge and
lookup are each one vectorised pass over those two arrays.
"""

from __future__ import annotations

import numpy as np

from repro.relational.query import Query
from repro.storage.fragments import sorted_unique
from repro.storage.layout import HeapFile
from repro.cm.bucketing import bucket_codes, entries_match

# Bytes to store one clustered bucket id inside an entry's posting list.
_CLUSTER_ID_BYTES = 4


class CorrelationMap:
    """A compressed secondary index: distinct key (buckets) -> clustered
    rank buckets."""

    def __init__(
        self,
        heapfile: HeapFile,
        key_attrs: tuple[str, ...],
        key_widths: tuple[int, ...] | None = None,
        depth: int | None = None,
        cluster_width: int = 1,
    ) -> None:
        if not key_attrs:
            raise ValueError("CM needs at least one key attribute")
        if key_widths is None:
            key_widths = tuple(1 for _ in key_attrs)
        if len(key_widths) != len(key_attrs):
            raise ValueError("key_widths must match key_attrs")
        if cluster_width <= 0:
            raise ValueError("cluster_width must be positive")
        if not heapfile.cluster_key:
            raise ValueError("CM requires a clustered heap file")
        self.heapfile = heapfile
        self.key_attrs = tuple(key_attrs)
        self.key_widths = tuple(int(w) for w in key_widths)
        self.depth = depth if depth is not None else len(heapfile.cluster_key)
        self.cluster_width = int(cluster_width)
        self._stale_rows = 0
        self._build()
        self.name = self._make_name()

    def _make_name(self) -> str:
        keys = ",".join(self.key_attrs)
        widths = ",".join(str(w) for w in self.key_widths)
        return f"cm[{keys}|w={widths}|cw={self.cluster_width}]"

    def _build(self) -> None:
        """Build from scratch over the attached heap file's current state."""
        # A CM maps key values to clustered *ranks*, so it is built over the
        # sorted region only — appended tail rows have no rank until
        # compaction, and CM-guided scans read the tail wholesale instead.
        hf = self.heapfile
        self._built_epoch = hf.sorted_epoch
        nsorted = hf.sorted_rows
        bucketed = [
            bucket_codes(hf.table.column(a)[:nsorted], w)
            for a, w in zip(self.key_attrs, self.key_widths)
        ]
        cluster_buckets = bucket_codes(hf.prefix_ranks(self.depth), self.cluster_width)
        if len(bucketed) == 1:
            joint = bucketed[0]
        else:
            # Pack via mixed radix over observed spans.
            joint = np.zeros(nsorted, dtype=np.int64)
            for arr in bucketed:
                lo = int(arr.min()) if len(arr) else 0
                span = (int(arr.max()) - lo + 1) if len(arr) else 1
                joint = joint * span + (arr - lo)
        first_rows, packed, offsets = self._csr(joint, cluster_buckets)
        self._entry_keys: dict[str, np.ndarray] = {
            attr: arr[first_rows] for attr, arr in zip(self.key_attrs, bucketed)
        }
        self._set_postings(packed, offsets)

    @staticmethod
    def _csr(
        entry_of: np.ndarray, buckets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group (entry, bucket) pairs into CSR with one sort: entries in
        ascending ``entry_of`` order, each owning its sorted-unique buckets.
        Returns (index of one pair per entry, packed buckets, offsets); an
        empty input yields no entries and offsets ``[0]``.

        ``buckets`` must be non-decreasing — bucketed clustered ranks in
        heap order are, by construction — so a *stable* sort on ``entry_of``
        alone leaves every entry's buckets sorted.  A span of entry ids that
        fits 16 bits takes NumPy's radix sort."""
        if len(entry_of):
            lo = entry_of.min()
            if entry_of.max() - lo < 1 << 16:
                entry_of = (entry_of - lo).astype(np.uint16)
        order = np.argsort(entry_of, kind="stable")
        entries, sorted_buckets = entry_of[order], buckets[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = entries[1:] != entries[:-1]
        keep = first.copy()
        keep[1:] |= sorted_buckets[1:] != sorted_buckets[:-1]
        packed = sorted_buckets[keep]
        offsets = np.append(np.flatnonzero(first[keep]), len(packed))
        return order[first], packed, offsets

    def _set_postings(self, packed: np.ndarray, offsets: np.ndarray) -> None:
        self._packed, self._offsets = packed, offsets
        self._entry_rows_built = self.heapfile.sorted_rows
        self.n_entries = len(offsets) - 1
        self.total_postings = len(packed)
        key_bytes = self.heapfile.table.schema.byte_size(self.key_attrs)
        self._size_bytes = (
            self.n_entries * key_bytes + self.total_postings * _CLUSTER_ID_BYTES
        )

    # -------------------------------------------------------------- refresh

    def refresh(self, heapfile: HeapFile | None = None) -> bool:
        """Incrementally refresh after heap-file mutations.

        Tail inserts need no CM work at all — the sorted region (and so the
        rank-code space) is untouched, and scans read the tail separately.
        Deletes leave entries as harmless supersets.  A *compaction* changes
        the rank space and forces a rebuild, and re-attaching a different
        file always rebuilds (equal row/rank counts would not prove equal
        content).  Returns True when a rebuild happened.
        """
        if heapfile is not None and heapfile is not self.heapfile:
            self.heapfile = heapfile
            self._build()
            return True
        hf = self.heapfile
        # ``sorted_epoch`` counts exactly the events that move the rank
        # space: compactions.  Tail inserts and tombstones leave it alone.
        if (
            hf.sorted_epoch == self._built_epoch
            and self._entry_rows_built == hf.sorted_rows
        ):
            return False
        self._build()
        return True

    def refresh_merged(
        self,
        heapfile: HeapFile | None = None,
        merged_from_row: int = 0,
        bloat_limit: float = 0.5,
    ) -> str:
        """Amortized refresh after a :meth:`~repro.storage.layout.HeapFile.
        tail_merge`: work proportional to the merged suffix, not the file.

        The tail-merge boundary guarantees rows below ``merged_from_row``
        kept their clustered-prefix ranks (their prefix values sort strictly
        below every suffix row's), so existing entries stay *valid*: their
        prefix-row postings are exact and their re-ranked-row postings are
        harmless supersets — the same conservative semantics deletes already
        have.  The incremental step only has to *add* the suffix rows'
        (key bucket, cluster bucket) pairs, matching existing entries by
        joint key and appending new ones.  Stale superset postings
        accumulate across merges; once the re-ranked rows since the last
        full build exceed ``bloat_limit`` of the file, the refresh falls
        back to a full rebuild — classic amortization.  Returns what
        happened: ``"incremental"`` | ``"rebuild"`` | ``"noop"``.
        """
        if heapfile is not None and heapfile is not self.heapfile:
            self.heapfile = heapfile
            self._stale_rows = 0
            self._build()
            return "rebuild"
        hf = self.heapfile
        if (
            hf.sorted_epoch == self._built_epoch
            and self._entry_rows_built == hf.sorted_rows
        ):
            return "noop"
        start = min(max(0, merged_from_row), hf.sorted_rows)
        stale = self._stale_rows + max(0, self._entry_rows_built - start)
        if start == 0 or stale > bloat_limit * max(1, hf.sorted_rows):
            self._stale_rows = 0
            self._build()
            return "rebuild"
        self._built_epoch = hf.sorted_epoch
        self._stale_rows = stale
        self._merge_rows(start)
        return "incremental"

    def _merge_rows(self, start: int) -> None:
        """Fold rows ``[start, sorted_rows)`` into the entry table: add
        their cluster buckets to matching entries (by joint bucketed key)
        and append entries for unseen keys, in key order.  Existing postings
        are never shrunk — see :meth:`refresh_merged` for why that is sound."""
        hf = self.heapfile
        suffix_keys = np.stack(
            [
                bucket_codes(hf.table.column(a)[start : hf.sorted_rows], w)
                for a, w in zip(self.key_attrs, self.key_widths)
            ],
            axis=1,
        )
        clusters = bucket_codes(
            hf.prefix_ranks(self.depth)[start:], self.cluster_width
        )
        entry_mat = np.stack(
            [self._entry_keys[a] for a in self.key_attrs], axis=1
        )
        # Rank every key, old and new, in one lexicographic order; a rank no
        # existing entry holds becomes a new entry.
        n_old = self.n_entries
        distinct, codes = np.unique(
            np.concatenate((entry_mat, suffix_keys)), axis=0, return_inverse=True
        )
        codes = codes.reshape(-1)  # NumPy 2.0 returns it 2-D for axis=0
        entry_of_code = np.full(len(distinct), -1, dtype=np.int64)
        entry_of_code[codes[:n_old]] = np.arange(n_old)
        fresh = entry_of_code < 0
        entry_of_code[fresh] = n_old + np.arange(int(fresh.sum()))
        self._entry_keys = {
            attr: np.concatenate((self._entry_keys[attr], distinct[fresh, j]))
            for j, attr in enumerate(self.key_attrs)
        }
        old_entry_of = np.repeat(np.arange(n_old), np.diff(self._offsets))
        entry_of = np.concatenate((old_entry_of, entry_of_code[codes[n_old:]]))
        buckets = np.concatenate((self._packed, clusters))
        by_bucket = np.argsort(buckets, kind="stable")
        _, packed, offsets = self._csr(entry_of[by_bucket], buckets[by_bucket])
        self._set_postings(packed, offsets)

    # ---------------------------------------------------------------- sizes

    @property
    def size_bytes(self) -> int:
        """Bytes to store all (key, posting-list) entries (computed at build
        time)."""
        return self._size_bytes

    # --------------------------------------------------------------- lookup

    def lookup(self, query: Query) -> np.ndarray | None:
        """Sorted distinct clustered buckets to scan for ``query``, or None
        when the query has no predicate on any key attribute."""
        preds = [query.predicate_on(a) for a in self.key_attrs]
        if all(p is None for p in preds):
            return None
        mask = np.ones(self.n_entries, dtype=bool)
        for pred, attr, width in zip(preds, self.key_attrs, self.key_widths):
            if pred is None:
                continue
            mask &= entries_match(pred, self._entry_keys[attr], width)
        if not mask.any():
            return np.empty(0, dtype=np.int64)
        posting_mask = np.repeat(mask, np.diff(self._offsets))
        return sorted_unique(self._packed[posting_mask])

    def __repr__(self) -> str:
        return (
            f"CorrelationMap({self.name}, entries={self.n_entries}, "
            f"postings={self.total_postings}, bytes={self.size_bytes})"
        )
