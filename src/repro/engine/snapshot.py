"""Serializable snapshots of :class:`~repro.engine.session.EvalSession` caches.

Every cache the session keeps is keyed by *content* (array digests,
value-hashable predicates and disk models), so its entries are meaningful in
any process that evaluates the same data: a mask computed for a column digest
here is the mask for that digest everywhere.  A :class:`SessionSnapshot` is
the portable form of that state — a plain picklable mapping of cache name ->
{content key: value} — supporting three operations:

* :func:`export_snapshot` — capture a session's exportable caches (optionally
  only the entries added since a :meth:`~EvalSession.cache_keys` baseline,
  which is how parallel workers return just their *delta*);
* :meth:`SessionSnapshot.install` — load entries into a (typically fresh)
  session, e.g. on the worker side of a :class:`~repro.engine.parallel.
  ParallelSweep`;
* :func:`merge_snapshots` — combine snapshots from several workers.  Keys are
  content-derived, so two snapshots can only ever agree about a shared key;
  the merge is therefore a plain union and **commutative**: merging in any
  order yields the same key set and semantically identical values (enforced
  by tests).

What is exported: predicate/conjunction masks, sort orderings, CM builds /
designs / per-query choices (Correlation Maps travel *detached* — without
their heap-file back-reference — which keeps snapshots small), the CM
Designer's distinct counts, CM page fragments, bucket expansions, and
executed scan costs.  Heap files themselves
are deliberately **not** exported: they are cheap to rebuild once their sort
permutation is known, and shipping sorted copies of the data would dwarf
everything else.

Snapshots also carry an optional **metrics payload** (an exported
:class:`~repro.obs.metrics.MetricsRegistry`): forked workers attach their
counters/histograms to the same delta snapshot that ships their cache
entries home, and :func:`merge_snapshots` folds the payloads with the
commutative per-kind rules of :func:`repro.obs.metrics.merge_payloads` —
worker observability rides the existing merge-back, no second channel.

Exports can be **zero-copy**: given a :class:`~repro.engine.shm.ShmArena`,
:func:`export_snapshot` moves every large array payload (masks,
conjunction masks, sort orderings, bucket expansions, and the entry/posting
arrays inside Correlation Maps) into named shared-memory segments and
stores tiny :class:`~repro.engine.shm.ShmRef` tokens in their place —
the picklable snapshot shrinks from megabytes of array bytes to keys and
tokens.  :meth:`SessionSnapshot.install` resolves tokens back into
read-only views of the same physical pages (:func:`repro.engine.shm.
attach_ref`), so a worker installing an arena-backed snapshot shares the
parent's memory instead of copying it.  Content keys are unaffected — the
view's bytes are the array's bytes — which is why every content-keyed
cache treats shared and copied entries identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.shm import ShmArena, ShmRef, attach_ref, shareable

if TYPE_CHECKING:
    from repro.cm.correlation_map import CorrelationMap
    from repro.engine.session import EvalSession

# Version 2: cache values (and CM internals) may be ShmRef tokens.
# Version 3: ShmRef tokens carry content digests; installing a snapshot may
# raise ShmAttachError (missing/truncated/corrupt segment) instead of a raw
# OSError — supervisors catch it and fall back to by-value payloads.
SNAPSHOT_VERSION = 3

#: Exportable caches: snapshot entry name -> session attribute.
_CACHE_ATTRS = {
    "masks": "_masks",
    "conjunctions": "_conjunctions",
    "orderings": "_orderings",
    "cms": "_cms",
    "cm_builds": "_cm_builds",
    "cm_choices": "_cm_choices",
    "cm_distincts": "_cm_distincts",
    "cm_fragments": "_cm_fragments",
    "expansions": "_expansions",
    "scan_results": "_scan_results",
}

#: Caches whose values embed CorrelationMap objects (detached on export).
_CM_CACHES = ("cms", "cm_builds", "cm_choices")

#: Caches whose values are plain ndarrays eligible for shared-memory export.
_ARRAY_CACHES = ("masks", "conjunctions", "orderings", "expansions")

#: Caches whose installed arrays must be frozen (mutation raises).
_FROZEN_CACHES = ("masks", "conjunctions", "expansions")


@dataclass
class SessionSnapshot:
    """A picklable export of one session's content-keyed caches, plus an
    optional metrics payload (see :meth:`repro.obs.metrics.
    MetricsRegistry.export`) riding along from worker processes."""

    entries: dict[str, dict] = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION
    metrics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(cache) for cache in self.entries.values())

    def key_sets(self) -> dict[str, frozenset]:
        return {name: frozenset(cache) for name, cache in self.entries.items()}

    def install(self, session: "EvalSession") -> None:
        """Load this snapshot's entries into ``session`` (existing entries
        win — a session's own entry for a content key is, by construction,
        semantically identical to any imported one).

        Shared-memory tokens resolve here: an :class:`ShmRef` value becomes
        a read-only zero-copy view of the registered array, and shared
        Correlation Maps re-attach their entry/posting views.  Resolution
        is idempotent, so installing the same snapshot into several
        sessions is fine."""
        for name, attr in _CACHE_ATTRS.items():
            target = getattr(session, attr)
            frozen = name in _FROZEN_CACHES
            is_cm = name in _CM_CACHES
            for key, value in self.entries.get(name, {}).items():
                if key in target:
                    continue
                if isinstance(value, ShmRef):
                    value = attach_ref(value)
                elif is_cm:
                    _resolve_cm_value(name, value)
                # Frozen-mask invariant: imported masks must raise on
                # mutation just like locally computed ones (pickling resets
                # the writeable flag; attached views are born read-only).
                if frozen:
                    value.setflags(write=False)
                target[key] = value
        # Re-register CM identities so the scan-result cache can key off
        # imported CMs exactly like locally built ones.  Register the
        # object the session actually *retains* (its own on a key clash,
        # the imported one otherwise): an id is only a sound cache key
        # while the session pins the object it identifies.
        for key in self.entries.get("cm_builds", {}):
            stored = session._cm_builds.get(key)
            if stored is not None:
                session._cm_keys.setdefault(id(stored), key)


def _detached_cm(
    cm: "CorrelationMap", memo: dict, arena: ShmArena | None
) -> "CorrelationMap":
    """Detach (or arena-share) ``cm`` once per object, so shared references
    stay shared across every cache of the snapshot (pickle then preserves
    the sharing)."""
    out = memo.get(id(cm))
    if out is None:
        out = cm.share(arena) if arena is not None else cm.detached()
        memo[id(cm)] = out
    return out


def _export_cm_value(name: str, value, memo: dict, arena: ShmArena | None):
    if name == "cm_builds":
        return _detached_cm(value, memo, arena)
    if name == "cms":
        return [_detached_cm(cm, memo, arena) for cm in value]
    if name == "cm_choices":
        cm, seconds = value
        return (None if cm is None else _detached_cm(cm, memo, arena), seconds)
    return value


def _resolve_cm_value(name: str, value) -> None:
    """Re-attach the shared entry/posting views of arena-exported CMs
    (no-op for plainly detached ones)."""
    if name == "cm_builds":
        value.resolve_shared()
    elif name == "cms":
        for cm in value:
            cm.resolve_shared()
    elif name == "cm_choices":
        cm = value[0]
        if cm is not None:
            cm.resolve_shared()


def export_snapshot(
    session: "EvalSession",
    exclude: dict[str, frozenset] | None = None,
    metrics: dict | None = None,
    arena: ShmArena | None = None,
) -> SessionSnapshot:
    """Capture ``session``'s exportable caches.  With ``exclude`` (a
    baseline from :meth:`EvalSession.cache_keys`), only entries whose keys
    are *not* in the baseline are exported — the delta a worker sends back.
    ``metrics`` (an exported registry payload) rides the snapshot verbatim.

    With ``arena``, large arrays are registered into shared memory and
    exported as :class:`ShmRef` tokens (resolved back into zero-copy views
    by :meth:`SessionSnapshot.install`); small arrays still travel by
    value, since a token plus a page-granular attach would cost more than
    the bytes themselves."""
    exclude = exclude or {}
    memo: dict = {}
    entries: dict[str, dict] = {}
    for name, attr in _CACHE_ATTRS.items():
        skip = exclude.get(name, frozenset())
        cache = getattr(session, attr)
        share = arena is not None and name in _ARRAY_CACHES
        exported = {}
        for key, value in cache.items():
            if key in skip:
                continue
            if name in _CM_CACHES:
                value = _export_cm_value(name, value, memo, arena)
            elif share and shareable(value):
                value = arena.register(value)
            exported[key] = value
        entries[name] = exported
    return SessionSnapshot(entries=entries, metrics=dict(metrics or {}))


def merge_snapshots(*snapshots: SessionSnapshot) -> SessionSnapshot:
    """Union of several snapshots.  Content-derived keys make this
    commutative: a key present in two snapshots maps to semantically
    identical values in both, so first-wins vs last-wins cannot change the
    merged snapshot's observable behaviour (tests install both orders and
    assert identical evaluation results)."""
    from repro.obs.metrics import merge_payloads

    merged: dict[str, dict] = {name: {} for name in _CACHE_ATTRS}
    for snap in snapshots:
        if snap.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {snap.version} != {SNAPSHOT_VERSION}"
            )
        for name, cache in snap.entries.items():
            target = merged.setdefault(name, {})
            for key, value in cache.items():
                target.setdefault(key, value)
    metrics = merge_payloads(*(snap.metrics for snap in snapshots))
    return SessionSnapshot(entries=merged, metrics=metrics)


def snapshot_nbytes(snapshot: SessionSnapshot) -> int:
    """Rough *by-value* payload size (array bytes that would be copied on
    pickle) — used for bench reporting.  Shared-memory tokens count zero
    here; their bytes show up in :func:`snapshot_shared_nbytes`."""
    total = 0
    for cache in snapshot.entries.values():
        for value in cache.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
    return total


def snapshot_shared_nbytes(snapshot: SessionSnapshot) -> int:
    """Array bytes this snapshot references through shared memory instead
    of carrying by value (plain cache tokens plus shared CM internals)."""
    total = 0
    seen: set[int] = set()  # CMs are shared across caches; count each once
    for name, cache in snapshot.entries.items():
        for value in cache.values():
            if isinstance(value, ShmRef):
                total += value.nbytes
            elif name in _CM_CACHES:
                if name == "cm_builds":
                    cms = [value]
                elif name == "cms":
                    cms = value
                else:
                    cms = [value[0]] if value[0] is not None else []
                for cm in cms:
                    if id(cm) not in seen:
                        seen.add(id(cm))
                        total += cm.shared_nbytes()
    return total
