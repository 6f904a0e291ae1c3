"""Selectivity vectors and Selectivity Propagation (Section 4.1.1).

A query's *selectivity vector* holds, per attribute, the fraction of rows
its predicate on that attribute selects (1.0 when unpredicated).  Raw
vectors miss correlations: ``yearmonth=199401`` implies ``year=1994``, so a
query predicating ``yearmonth`` is effectively as selective on ``year`` as
one predicating ``year`` directly.  *Selectivity Propagation* fixes this by
pushing selectivities through FD strengths:

    selectivity(Ci) = min_j selectivity(Cj) / strength(Ci -> Cj)

applied repeatedly until no attribute changes (the paper's Appendix A-4
sketches termination in at most |A| steps — every update strictly lowers a
value along acyclic update paths).  Composite keys predicated by a query
(e.g. (year, weeknum) in SSB Q1.3) participate as propagation sources, as
Table 2 of the paper shows.

Propagation runs as an array program over all queries at once
(:func:`propagate_selectivities`).  That is exact, not approximate, for two
reasons.  A step reads a *snapshot*: a query's sources are the keys below 1
when the step starts, at the values they had then, and each attribute is
written once, after all its sources were seen — so nothing computed inside
a step feeds anything else inside it, across queries or within one.  And
the one order-sensitive operation, the epsilon-thresholded running minimum,
meets each query's sources in the order that query's own vector lists them
— the order the scalar loop walks its dict in — so every (query, attribute,
source) performs the same division, clamp and comparison on the same
doubles in the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.relational.query import Query
from repro.stats.collector import TableStatistics

# Attributes whose propagated selectivity moves less than this are
# considered unchanged (guards float-noise non-termination).
_EPSILON = 1e-9

VectorKey = str | tuple[str, ...]


@dataclass
class SelectivityVectors:
    """Per-query selectivity vectors over an attribute universe.

    ``vectors[query][attr]`` is the (possibly propagated) selectivity;
    composite sources are keyed by attribute tuples and are not part of the
    distance universe used by k-means.
    """

    attrs: tuple[str, ...]
    vectors: dict[str, dict[VectorKey, float]] = field(default_factory=dict)

    def vector(self, query_name: str) -> dict[VectorKey, float]:
        return self.vectors[query_name]

    def value(self, query_name: str, attr: VectorKey) -> float:
        return self.vectors[query_name].get(attr, 1.0)

    def as_point(self, query_name: str) -> list[float]:
        """The single-attribute vector in universe order (k-means input)."""
        vec = self.vectors[query_name]
        return [vec.get(a, 1.0) for a in self.attrs]


def _composite_sources(query: Query) -> list[tuple[str, ...]]:
    """Composite keys worth tracking for a query: the full predicated set
    plus its pairs (the paper checks "the selectivity of multi-attribute
    composites when the determined key is multi-attribute")."""
    preds = tuple(sorted(query.predicate_attrs()))
    if len(preds) < 2:
        return []
    composites: list[tuple[str, ...]] = []
    for i, a in enumerate(preds):
        for b in preds[i + 1:]:
            composites.append((a, b))
    if len(preds) > 2:
        composites.append(preds)
    return composites


def build_selectivity_vectors(
    queries: list[Query],
    stats: TableStatistics,
    attrs: tuple[str, ...] | None = None,
    propagate: bool = True,
    max_steps: int | None = None,
) -> SelectivityVectors:
    """Raw selectivity vectors, optionally with Selectivity Propagation."""
    if attrs is None:
        universe: dict[str, None] = {}
        for q in queries:
            for a in q.attributes():
                universe.setdefault(a)
        attrs = tuple(universe)
    out = SelectivityVectors(attrs=attrs)
    for q in queries:
        vec: dict[VectorKey, float] = {}
        for a in attrs:
            vec[a] = stats.predicate_selectivity(q, a)
        for composite in _composite_sources(q):
            # Joint selectivity of the predicates on the composite's members.
            mask = stats.sample_mask(q, attrs=composite)
            joint = float(mask.mean()) if len(mask) else 0.0
            if joint == 0.0:
                joint = 1.0
                for a in composite:
                    joint *= stats.predicate_selectivity(q, a)
            vec[composite] = joint
        out.vectors[q.name] = vec
    if propagate:
        propagate_selectivities(out, stats, max_steps=max_steps)
    return out


def propagate_selectivities(
    vectors: SelectivityVectors,
    stats: TableStatistics,
    max_steps: int | None = None,
) -> int:
    """Run Selectivity Propagation in place; returns steps taken.

    Each step recomputes every single attribute's selectivity as the minimum
    over all sources (single attributes and composites) of
    ``selectivity(source) / strength(attr -> source)``; values only
    decrease, so the fixpoint arrives within |A| steps (Appendix A-4).

    All queries advance together, on arrays: pass ``j`` of a step handles
    every query's ``j``-th source — in the order its own vector lists them —
    against a snapshot of the step's start.  The module docstring says why
    that is the scalar loop's result bit for bit
    (``tests/reference_kernels.py`` keeps the loop).
    """
    attrs = vectors.attrs
    limit = max_steps if max_steps is not None else max(1, len(attrs))
    vecs = list(vectors.vectors.values())
    nattrs = len(attrs)
    # Key ids: attribute ``j`` of the universe is column ``j``, every other
    # key of any vector follows, and one padding key closes the table.
    key_ids: dict[VectorKey, int] = {attr: j for j, attr in enumerate(attrs)}
    for vec in vecs:
        for key in vec:
            key_ids.setdefault(key, len(key_ids))
    keys = list(key_ids)
    pad = len(keys)
    # values[q, k]: query q's selectivity on key k — 1.0 where its vector
    # has no such key, which is what the scalar loop reads for a missing
    # attribute.  listing[q]: q's key ids in the order its vector lists
    # them, padded; an attribute missing from the vector joins the end of
    # it when first set, as it joins the dict.
    values = np.ones((len(vecs), pad + 1), dtype=np.float64)
    ends = np.array([len(vec) for vec in vecs], dtype=np.intp)
    listing = np.full(
        (len(vecs), int(ends.max(initial=0)) + nattrs), pad, dtype=np.intp
    )
    for q, vec in enumerate(vecs):
        ids = [key_ids[key] for key in vec]
        listing[q, : len(ids)] = ids
        values[q, ids] = list(vec.values())
    listed = np.zeros((len(vecs), pad + 1), dtype=bool)
    np.put_along_axis(listed, listing, True, axis=1)
    listed = listed[:, :nattrs]
    # strengths[k, a] = strength(attr a -> key k), a row filled when key k
    # first acts as a source; ``usable`` is False where the scalar loop
    # skips the pair (the attribute is part of the key, or the strength is
    # not positive), and the strength then reads 1.0 so nothing divides by 0.
    strengths = np.ones((pad + 1, nattrs), dtype=np.float64)
    usable = np.zeros((pad + 1, nattrs), dtype=bool)
    filled = np.zeros(pad + 1, dtype=bool)
    rows = np.arange(len(vecs))[:, None]
    current = values[:, :nattrs]
    touched = np.zeros(current.shape, dtype=bool)
    steps = 0
    for _ in range(limit):
        # This step's sources, per query in its vector's order: a stable
        # sort of "is not a source" moves them to the front.
        in_order = values[rows, listing]
        is_source = in_order < 1.0 - _EPSILON
        front = np.argsort(~is_source, axis=1, kind="stable")
        front = front[:, : int(is_source.sum(axis=1).max(initial=0))]
        source_ids = listing[rows, front]
        source_sel = in_order[rows, front]
        is_source = is_source[rows, front]
        active = np.zeros(pad + 1, dtype=bool)
        active[source_ids[is_source]] = True
        for k in np.flatnonzero(active & ~filled):
            source_key = keys[k] if isinstance(keys[k], tuple) else (keys[k],)
            for a, attr in enumerate(attrs):
                if attr not in source_key:
                    s = stats.strength((attr,), source_key)
                    if s > 0.0:
                        strengths[k, a] = s
                        usable[k, a] = True
            filled[k] = True
        best = current.copy()
        for j in range(source_ids.shape[1]):
            k = source_ids[:, j]
            candidate = np.minimum(1.0, source_sel[:, j, None] / strengths[k])
            lower = candidate < best - _EPSILON
            lower &= usable[k]
            lower &= is_source[:, j, None]
            np.copyto(best, candidate, where=lower)
        changed = best < current - _EPSILON
        steps += 1
        if not changed.any():
            break
        np.copyto(current, best, where=changed)
        touched |= changed
        # np.nonzero is row-major: a query's new attributes in universe order.
        for q, a in zip(*np.nonzero(changed & ~listed)):
            listing[q, ends[q]] = a
            ends[q] += 1
        listed |= changed
    if touched.any():
        # Written in listing order, so an attribute new to a vector joins
        # its dict where the scalar loop would have put it.
        ids = listing[:, : int(ends.max())]
        moved = (ids < nattrs) & touched[rows, np.minimum(ids, nattrs - 1)]
        for q, a in zip(np.nonzero(moved)[0].tolist(), ids[moved].tolist()):
            vecs[q][attrs[a]] = float(current[q, a])
    return steps
