"""Evaluation sessions: content-keyed caches shared across a sweep.

CORADD is judged over *sweeps* — a ladder of space budgets, each budget
materialized and measured — yet every (query, object, budget) evaluation
used to be independent work: the same predicate mask recomputed inside every
plan, the same flattened fact table re-sorted at every budget point.  An
:class:`EvalSession` is the shared state that removes that duplication:

* a **predicate-mask cache** keyed by (column content, predicate), so each
  ``Predicate.mask`` over a given array is computed once per session;
* a **conjunction cache** for combined masks (query masks, clustered-prefix
  masks, secondary-index key masks);
* a **materialization cache** keyed by (source column content, projected
  attrs, cluster key, disk, name), so budget sweeps reuse already-sorted
  heap files across :meth:`~repro.design.designer.Design.materialize` calls;
* a **sort-ordering cache** keyed by (cluster key, key-column content): the
  stable lexsort permutation of a materialization, so two objects of one
  session that sort the same data by the same key — another projection,
  another budget — sort once;
* a **CM-build cache** keyed by (heap file content, key, bucket widths):
  the built Correlation Map, shared by every query it is tried for;
* a **CM-choice cache** keyed by (heap file content, query fingerprint,
  designer knobs): the CM Designer's winner for one query on one object,
  which is what re-designing the same object at another budget reuses;
* a **distinct-count memo** keyed by (heap file content, key attributes):
  what the CM Designer sizes a candidate's bucket-width ladder from;
* a **scan-result cache** keyed by (heap file content, access structure,
  query fingerprint): the executed plan name and simulated cost of a scan,
  left there by the CM Designer for each winner it prices (it builds no
  other candidate) and by the executor for every scan it runs, and shared
  across every database of a sweep.

Those eight are all of them, and each is reached by a lookup that saves
real work on a hit.  The session lives in one process, and so does every
sweep that evaluates under it.

All keys are *content*-derived (array bytes are digested, predicates and
disk models are value-hashable dataclasses), which makes the caches safe to
share across designers and budgets within a session, and makes two sessions
over different data provably disjoint.  A heap file mutated after the
session first saw it is keyed by that first content key plus the file's
mutation lineage since (:meth:`EvalSession.heapfile_key`) — still a function
of content alone, but computed without re-reading the file.  Cached masks
are frozen (``writeable=False``) so accidental mutation raises instead of
corrupting later plans.  Caching is observationally invisible: plan
choices, simulated costs and result masks are bit-identical with or without
a session.

Sessions are installed ambiently (a :class:`contextvars.ContextVar`) via
:func:`use_session`; code that evaluates plans picks the active session up
through :func:`get_session` and falls back to uncached computation when none
is active.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime to keep layering acyclic
    from repro.cm.correlation_map import CorrelationMap
    from repro.cm.designer import CMDesigner
    from repro.relational.query import Predicate, Query
    from repro.relational.table import Table
    from repro.storage.disk import DiskModel
    from repro.storage.layout import HeapFile


class EvalSession:
    """Shared evaluation state for one sweep (or any scope the caller picks).

    A session pins every array and heap file it has fingerprinted, so
    ``id()``-based memoization of content digests stays sound for the
    session's lifetime.  Drop the session to release everything.
    """

    def __init__(self) -> None:
        # id(array) -> content digest, with the arrays pinned so ids are
        # stable; digesting happens once per distinct array per session.
        self._array_digests: dict[int, bytes] = {}
        self._pinned: list[np.ndarray] = []
        # (array digest, predicate) -> frozen boolean mask.
        self._masks: dict[tuple, np.ndarray] = {}
        # (nrows, ((array digest, predicate), ...)) -> frozen combined mask.
        self._conjunctions: dict[tuple, np.ndarray] = {}
        # materialization cache: content key -> HeapFile, plus id(HeapFile)
        # -> content key so dependent caches (CMs) can key off cached files.
        # ``_heapfile_versions`` remembers the mutation counter each key was
        # computed at, and ``_heapfile_roots`` the (content key, lineage) the
        # file was first tracked under: a mutated file is re-keyed on the
        # next lookup by its root and what was done to it since (a key bump
        # — old entries become unreachable, nothing is torn down, and the
        # file is not read).
        self._heapfiles: dict[tuple, "HeapFile"] = {}
        self._heapfile_keys: dict[int, tuple] = {}
        self._heapfile_versions: dict[int, int] = {}
        self._heapfile_roots: dict[int, tuple[tuple, bytes]] = {}
        self._pinned_objects: list = []
        # (heapfile key, key attrs, widths, cluster width) -> CorrelationMap.
        self._cm_builds: dict[tuple, "CorrelationMap"] = {}
        # id(CM) -> its _cm_builds key, so dependent caches (scan results)
        # can key off cached CMs the way heapfile keys work.
        self._cm_keys: dict[int, tuple] = {}
        # (heapfile key, query fingerprint, knobs) -> (CM | None, seconds).
        self._cm_choices: dict[tuple, tuple] = {}
        # (heapfile key, key attrs) -> distinct joint values in the file:
        # what the CM Designer sizes a candidate's width ladder from.
        self._cm_distincts: dict[tuple, int] = {}
        # (cluster key, key-column digests) -> stable sort permutation.
        self._orderings: dict[tuple, np.ndarray] = {}
        # (heapfile key, CM key, query fingerprint) -> (plan name, cost).
        self._scan_results: dict[tuple, tuple] = {}
        self.stats = {
            "mask_hits": 0,
            "mask_misses": 0,
            "mask_bytes": 0,
            "conjunction_hits": 0,
            "conjunction_misses": 0,
            "heapfile_hits": 0,
            "heapfile_misses": 0,
            "heapfile_bytes": 0,
            "cm_build_hits": 0,
            "cm_build_misses": 0,
            "cm_build_bytes": 0,
            "cm_choice_hits": 0,
            "cm_choice_misses": 0,
            "cm_distinct_hits": 0,
            "cm_distinct_misses": 0,
            "ordering_hits": 0,
            "ordering_misses": 0,
            "ordering_bytes": 0,
            "scan_hits": 0,
            "scan_misses": 0,
        }

    # ------------------------------------------------------------------ keys

    def array_key(self, arr: np.ndarray) -> bytes:
        """Content digest of an array, memoized by identity (the array is
        pinned so the id cannot be recycled while the session lives)."""
        digest = self._array_digests.get(id(arr))
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
            digest = h.digest()
            self._array_digests[id(arr)] = digest
            self._pinned.append(arr)
        return digest

    # ----------------------------------------------------------------- masks

    def predicate_mask(self, values: np.ndarray, pred: "Predicate") -> np.ndarray:
        """``pred.mask(values)``, computed once per (column content, pred)."""
        key = (self.array_key(values), pred)
        mask = self._masks.get(key)
        if mask is None:
            self.stats["mask_misses"] += 1
            mask = pred.mask(values)
            mask.setflags(write=False)
            self._masks[key] = mask
            self.stats["mask_bytes"] += mask.nbytes
        else:
            self.stats["mask_hits"] += 1
        return mask

    def conjunction_mask(
        self, table: "Table", preds: tuple["Predicate", ...]
    ) -> np.ndarray:
        """AND of the predicate masks over ``table``, in ``preds`` order
        (the order queries apply them, so bits combine identically to the
        uncached path)."""
        pred_keys = tuple(
            (self.array_key(table.column(p.attr)), p) for p in preds
        )
        key = (table.nrows, pred_keys)
        mask = self._conjunctions.get(key)
        if mask is None:
            self.stats["conjunction_misses"] += 1
            mask = np.ones(table.nrows, dtype=bool)
            for pred in preds:
                mask &= self.predicate_mask(table.column(pred.attr), pred)
            mask.setflags(write=False)
            self._conjunctions[key] = mask
            self.stats["mask_bytes"] += mask.nbytes
        else:
            self.stats["conjunction_hits"] += 1
        return mask

    # ------------------------------------------------------- materialization

    def heapfile(
        self,
        source: "Table",
        attrs: tuple[str, ...] | None,
        cluster_key: tuple[str, ...],
        disk: "DiskModel",
        name: str,
    ) -> "HeapFile":
        """A clustered heap file of ``source`` (projected to ``attrs`` when
        given), built at most once per content per session.

        The key covers exactly what determines the result: the content of
        the columns that end up in the file, the projection, the cluster
        key, the disk geometry and the object name.  Re-sorting — the
        expensive part of materialization — is skipped on a hit.
        """
        from repro.storage.layout import HeapFile

        cols = tuple(attrs) if attrs is not None else tuple(source.column_names)
        content = tuple((n, self.array_key(source.column(n))) for n in cols)
        key = (content, attrs is not None, tuple(cluster_key), disk, name)
        hf = self._heapfiles.get(key)
        if hf is None:
            self.stats["heapfile_misses"] += 1
            table = (
                source.project(list(attrs), new_name=name)
                if attrs is not None
                else source
            )
            permutation = (
                self.sort_permutation(source, tuple(cluster_key))
                if cluster_key
                else None
            )
            hf = HeapFile(
                table, tuple(cluster_key), disk, name=name,
                permutation=permutation,
            )
            hf.shared = True  # may back several databases of the sweep
            self.stats["heapfile_bytes"] += hf.size_bytes
            self._heapfiles[key] = hf
            self._track(hf, key)
        else:
            self.stats["heapfile_hits"] += 1
        return hf

    def _track(self, heapfile: "HeapFile", key: tuple) -> None:
        """Register ``heapfile`` under the content key of its present
        state — the root its later lineage keys hang off."""
        self._heapfile_keys[id(heapfile)] = key
        self._heapfile_versions[id(heapfile)] = heapfile.version
        self._heapfile_roots[id(heapfile)] = (key, heapfile.lineage)

    def heapfile_key(self, heapfile: "HeapFile") -> tuple | None:
        """The key of a session-tracked heap file, or None when the file is
        unknown to this session.

        A file mutated since it was first tracked is keyed by *lineage*:
        the content key it held then, its mutation chain then and now
        (:attr:`repro.storage.layout.HeapFile.lineage`).  Equal keys still
        imply equal content — same root, same mutations in the same order —
        so twin copies fed the same refresh batches keep sharing CM builds
        and scan results; and the file itself is never re-read.  Every
        dependent cache tier keys off this value, so a mutation invalidates
        them all by construction — entries under the old key simply stop
        being addressed.
        """
        key = self._heapfile_keys.get(id(heapfile))
        if key is None:
            return None
        if self._heapfile_versions[id(heapfile)] != heapfile.version:
            # Evict the stale materialization-cache entry (the cached object
            # no longer answers for the content it was built from) — but
            # keep the file pinned: its id() stays a registration key.
            if self._heapfiles.get(key) is heapfile:
                del self._heapfiles[key]
                self._pinned_objects.append(heapfile)
            root_key, root_lineage = self._heapfile_roots[id(heapfile)]
            key = ("hf-lineage", root_key, root_lineage, heapfile.lineage)
            self._heapfile_keys[id(heapfile)] = key
            self._heapfile_versions[id(heapfile)] = heapfile.version
        return key

    def adopt_heapfile(self, heapfile: "HeapFile") -> tuple:
        """Track an externally built (or privatized) heap file so the scan
        caches can key off it.  The file is pinned for the session's
        lifetime — ``id()``-keyed registration is only sound while the
        object cannot be recycled."""
        if id(heapfile) in self._heapfile_keys:
            return self.heapfile_key(heapfile)
        key = self._content_key_for(heapfile)
        self._track(heapfile, key)
        self._pinned_objects.append(heapfile)
        return key

    def _content_key_for(self, heapfile: "HeapFile") -> tuple:
        """A content key for a heap file in an arbitrary mutation state:
        column content, clustered/tail boundary, tombstone mask, geometry
        inputs.  Two files agreeing on this key execute every plan
        identically.  Digests every column, so it runs once per file the
        session did not build itself; later mutations are keyed by lineage
        (:meth:`heapfile_key`)."""
        content = tuple(
            (n, self.array_key(heapfile.table.column(n)))
            for n in heapfile.table.column_names
        )
        live = getattr(heapfile, "live", None)
        return (
            "hf-content",
            content,
            tuple(heapfile.cluster_key),
            int(getattr(heapfile, "sorted_rows", heapfile.nrows)),
            None if live is None else self.array_key(live),
            heapfile.disk,
            heapfile.name,
        )

    def sort_permutation(
        self, source: "Table", cluster_key: tuple[str, ...]
    ) -> np.ndarray:
        """The stable lexsort permutation of ``source`` by ``cluster_key``,
        cached by key-column *content* — so two materializations that sort
        the same data by the same key (different projections, different
        budgets) sort once.  Stored as the narrowest index dtype that fits:
        the session pins every ordering for its lifetime, and ``int32``
        halves that for every realistic table."""
        key = (
            tuple(cluster_key),
            tuple(self.array_key(source.column(a)) for a in cluster_key),
        )
        perm = self._orderings.get(key)
        if perm is None:
            self.stats["ordering_misses"] += 1
            perm = source.sort_permutation(cluster_key)
            if source.nrows < 2**31:
                perm = perm.astype(np.int32)
            self._orderings[key] = perm
            self.stats["ordering_bytes"] += perm.nbytes
        else:
            self.stats["ordering_hits"] += 1
        return perm

    def correlation_map(
        self,
        heapfile: "HeapFile",
        key_attrs: tuple[str, ...],
        key_widths: tuple[int, ...],
        cluster_width: int,
    ) -> "CorrelationMap":
        """A built CM over a *cached* heap file, memoized by (file content,
        key, bucket widths).  CM construction is independent of the query
        probing it, so the same CM candidate tried for many queries — e.g.
        the shifted-constant variants of an augmented workload — is built
        once.  CMs are immutable after construction, so sharing is safe."""
        from repro.cm.correlation_map import CorrelationMap

        hf_key = self.heapfile_key(heapfile)
        if hf_key is None:
            return CorrelationMap(
                heapfile, key_attrs, key_widths=key_widths,
                cluster_width=cluster_width,
            )
        key = (hf_key, tuple(key_attrs), tuple(key_widths), cluster_width)
        cm = self._cm_builds.get(key)
        if cm is None:
            self.stats["cm_build_misses"] += 1
            cm = CorrelationMap(
                heapfile, key_attrs, key_widths=key_widths,
                cluster_width=cluster_width,
            )
            self._cm_builds[key] = cm
            self._cm_keys[id(cm)] = key
            self.stats["cm_build_bytes"] += cm.size_bytes
        else:
            self.stats["cm_build_hits"] += 1
        return cm

    def distinct_count(
        self, heapfile: "HeapFile", key_attrs: tuple[str, ...]
    ) -> int:
        """``heapfile.table.distinct_count(key_attrs)`` — an ``np.unique``
        over the whole file that no query enters — counted once per (file
        content, key) instead of once per query probing the file."""
        hf_key = self.heapfile_key(heapfile)
        if hf_key is None:
            return heapfile.table.distinct_count(key_attrs)
        key = (hf_key, tuple(key_attrs))
        ndistinct = self._cm_distincts.get(key)
        if ndistinct is None:
            self.stats["cm_distinct_misses"] += 1
            ndistinct = heapfile.table.distinct_count(key_attrs)
            self._cm_distincts[key] = ndistinct
        else:
            self.stats["cm_distinct_hits"] += 1
        return ndistinct

    def best_cm_for_query(
        self,
        designer: "CMDesigner",
        heapfile: "HeapFile",
        query: "Query",
    ) -> tuple:
        """Memoized :meth:`repro.cm.designer.CMDesigner.best_cm_for_query`
        over a cached heap file.  The winning CM for one (object, query)
        pair does not depend on which other queries share the object, so
        this key survives re-assignment across budgets where a whole-object
        key would not."""
        hf_key = self.heapfile_key(heapfile)
        if hf_key is None:
            return designer.best_cm_for_query(heapfile, query)
        key = (
            hf_key,
            query.fingerprint(),
            designer.budget_bytes,
            designer.max_composite,
            designer.cluster_width,
            designer.max_widths,
        )
        choice = self._cm_choices.get(key)
        if choice is None:
            self.stats["cm_choice_misses"] += 1
            choice = designer.best_cm_for_query(heapfile, query)
            self._cm_choices[key] = choice
        else:
            self.stats["cm_choice_hits"] += 1
        return choice

    # ------------------------------------------------------ scan-result tier

    def scan_cost(
        self, heapfile: "HeapFile", structure, query: "Query"
    ) -> tuple | None:
        """Cached (plan name, simulated cost) of an executed scan, or None
        when unknown or when the heap file is not session-tracked.

        ``structure`` identifies the access path beyond the heap file: a
        session-built :class:`CorrelationMap` for CM scans (its content key
        is looked up), a ``("clustered",)`` / ``("secondary", key_attrs)``
        tag for index scans.  The result mask is *not* stored — it is the
        query mask, which the mask caches already share, so memoized and
        fresh results are bit-identical.
        """
        key = self._scan_key(heapfile, structure, query)
        if key is None:
            return None
        cached = self._scan_results.get(key)
        if cached is None:
            self.stats["scan_misses"] += 1
        else:
            self.stats["scan_hits"] += 1
        return cached

    def store_scan_cost(
        self,
        heapfile: "HeapFile",
        structure,
        query: "Query",
        plan: str,
        cost,
    ) -> None:
        key = self._scan_key(heapfile, structure, query)
        if key is not None:
            self._scan_results[key] = (plan, cost)

    def _scan_key(self, heapfile, structure, query) -> tuple | None:
        hf_key = self.heapfile_key(heapfile)
        if hf_key is None:
            return None
        if isinstance(structure, tuple):
            struct_key = structure
        else:  # a CorrelationMap: only session-built CMs have content keys
            struct_key = self._cm_keys.get(id(structure))
            if struct_key is None:
                return None
        return (hf_key, struct_key, query.fingerprint())


# ------------------------------------------------------------ ambient session

_ACTIVE: ContextVar[EvalSession | None] = ContextVar(
    "repro_eval_session", default=None
)


def get_session() -> EvalSession | None:
    """The ambient session, or None when evaluation is uncached."""
    return _ACTIVE.get()


@contextmanager
def use_session(session: EvalSession | None = None) -> Iterator[EvalSession]:
    """Install ``session`` (a fresh one when None) as the ambient session
    for the duration of the ``with`` block."""
    active = session if session is not None else EvalSession()
    token = _ACTIVE.set(active)
    try:
        yield active
    finally:
        _ACTIVE.reset(token)


def ambient_scope(session: EvalSession | None):
    """Context manager installing ``session`` ambiently when one is given,
    and a no-op otherwise — the idiom every "evaluate with an optional
    session" entry point shares."""
    return use_session(session) if session is not None else nullcontext(None)
