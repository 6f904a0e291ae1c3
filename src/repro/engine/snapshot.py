"""Cache deltas of an :class:`~repro.engine.session.EvalSession`, by value.

Every cache the session keeps is keyed by *content* (array digests,
value-hashable predicates and disk models), so its entries are meaningful in
any process that evaluates the same data: a mask computed for a column digest
here is the mask for that digest everywhere.  A :class:`SessionSnapshot` is
the portable form of that state — a plain picklable mapping of cache name ->
{content key: value} — supporting three operations:

* :func:`export_snapshot` — capture a session's exportable caches, normally
  only the entries added since a :meth:`~EvalSession.cache_keys` baseline:
  the *delta* a forked :class:`~repro.engine.parallel.ParallelSweep` worker
  sends home with each result;
* :meth:`SessionSnapshot.install` — load entries into a session, which is
  how the parent takes a merged delta in;
* :func:`merge_snapshots` — combine snapshots from several workers.  Keys are
  content-derived, so two snapshots can only ever agree about a shared key;
  the merge is therefore a plain union and **commutative**: merging in any
  order yields the same key set and semantically identical values (enforced
  by tests).

This is a delta format, not a transport: nothing travels from parent to
worker this way — a forked worker inherits the session itself — and what
travels back is pickled like any other result.

What is exported: predicate/conjunction masks, sort orderings, CM builds /
designs / per-query choices (Correlation Maps travel *detached* — without
their heap-file back-reference — which keeps deltas small), the CM
Designer's distinct counts, CM page fragments, bucket expansions, and
executed scan costs.  Heap files themselves are deliberately **not**
exported: the parent rebuilds one cheaply once its sort permutation is
known, and shipping sorted copies of the data would dwarf everything else.

Snapshots also carry an optional **metrics payload** (an exported
:class:`~repro.obs.metrics.MetricsRegistry`): forked workers attach their
counters/histograms to the same delta snapshot that ships their cache
entries home, and :func:`merge_snapshots` folds the payloads with the
commutative per-kind rules of :func:`repro.obs.metrics.merge_payloads` —
worker observability rides the existing merge-back, no second channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cm.correlation_map import CorrelationMap
    from repro.engine.session import EvalSession

#: Entry layout version; :func:`merge_snapshots` refuses to mix versions.
SNAPSHOT_VERSION = 4

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
        semantically identical to any imported one)."""
        for name, attr in _CACHE_ATTRS.items():
            target = getattr(session, attr)
            frozen = name in _FROZEN_CACHES
            for key, value in self.entries.get(name, {}).items():
                if key in target:
                    continue
                # Frozen-mask invariant: imported masks must raise on
                # mutation just like locally computed ones (pickling resets
                # the writeable flag).
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


def _detached_cm(cm: "CorrelationMap", memo: dict) -> "CorrelationMap":
    """Detach ``cm`` once per object, so shared references stay shared
    across every cache of the snapshot (pickle then preserves the
    sharing)."""
    out = memo.get(id(cm))
    if out is None:
        out = memo[id(cm)] = cm.detached()
    return out


def _export_cm_value(name: str, value, memo: dict):
    if name == "cm_builds":
        return _detached_cm(value, memo)
    if name == "cms":
        return [_detached_cm(cm, memo) for cm in value]
    cm, seconds = value  # cm_choices
    return (None if cm is None else _detached_cm(cm, memo), seconds)


def export_snapshot(
    session: "EvalSession",
    exclude: dict[str, frozenset] | None = None,
    metrics: dict | None = None,
) -> SessionSnapshot:
    """Capture ``session``'s exportable caches.  With ``exclude`` (a
    baseline from :meth:`EvalSession.cache_keys`), only entries whose keys
    are *not* in the baseline are exported — the delta a worker sends back.
    ``metrics`` (an exported registry payload) rides the snapshot verbatim."""
    exclude = exclude or {}
    memo: dict = {}
    entries: dict[str, dict] = {}
    for name, attr in _CACHE_ATTRS.items():
        skip = exclude.get(name, frozenset())
        cache = getattr(session, attr)
        exported = {}
        for key, value in cache.items():
            if key in skip:
                continue
            if name in _CM_CACHES:
                value = _export_cm_value(name, value, memo)
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
