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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """
    attrs = vectors.attrs
    limit = max_steps if max_steps is not None else max(1, len(attrs))
    # strength(attr -> source) depends on neither the query nor the step.
    strengths: dict[tuple[str, tuple[str, ...]], float] = {}
    steps = 0
    for _ in range(limit):
        changed = False
        for qname, vec in vectors.vectors.items():
            sources: list[tuple[VectorKey, float]] = [
                (key, sel) for key, sel in vec.items() if sel < 1.0 - _EPSILON
            ]
            for attr in attrs:
                current = vec.get(attr, 1.0)
                best = current
                for source, source_sel in sources:
                    if source == attr:
                        continue
                    source_key = source if isinstance(source, tuple) else (source,)
                    if attr in source_key:
                        continue
                    s = strengths.get((attr, source_key))
                    if s is None:
                        s = stats.strength((attr,), source_key)
                        strengths[(attr, source_key)] = s
                    if s <= 0.0:
                        continue
                    candidate = min(1.0, source_sel / s)
                    if candidate < best - _EPSILON:
                        best = candidate
                if best < current - _EPSILON:
                    vec[attr] = best
                    changed = True
        steps += 1
        if not changed:
            break
    return steps
