"""Workload compression: design from a million-query log (ROADMAP 5).

Production query logs have millions of entries with heavy repetition and
skew; every design stage here assumes tens of queries.  The bridge, grounded
in the query-clustering selection literature (arXiv 0707.1548, 1701.08029),
is a three-stage front-end::

    raw log (1M entries)                 -- columnar (template, slot) codes
      -> dedup_log()                     -- vectorized fingerprint fold,
         deduped Workload (~hundreds)       weights conserved exactly
      -> compress_workload()             -- k-means over selectivity /
         representatives (a few dozen)      footprint vectors, weighted
                                            medoids
      -> CoraddDesigner (untouched)      -- weights ARE frequencies, so the
                                            weighted cost model just works

A log entry is a *(template id, variation slot)* pair: the structural
template fixes the fact table, predicate shape and attribute footprint, and
the slot varies the predicate constants through the benchmark's
:class:`~repro.workloads.augment.AugmentSpec` (the same machinery the
paper's 4x augmented workloads use).  That makes the raw log two integer
arrays — fingerprint + dedup is one ``np.unique`` over the packed codes, no
per-entry Python loop — while still materializing genuine, distinct
:class:`~repro.relational.query.Query` objects for every distinct code.

:class:`StreamingCompressor` is the online variant for the tuning daemon:
top-k codes under exponential decay, emitting a
:class:`~repro.relational.query.WorkloadDelta` via ``WorkloadDelta.between``
whenever the observed mix shifts past a threshold — directly consumable by
``CoraddDesigner.update()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.design.grouping import extended_vectors
from repro.design.kmeans import kmeans
from repro.design.selectivity import build_selectivity_vectors
from repro.obs.trace import annotate, span
from repro.relational.query import Query, Workload, WorkloadDelta
from repro.stats.collector import TableStatistics
from repro.workloads.augment import AugmentSpec, shift_predicate


def materialize_code(
    templates: Workload,
    spec: AugmentSpec,
    code: int,
    n_slots: int,
    frequency: float = 1.0,
) -> Query:
    """The concrete query behind one packed ``template_id * n_slots + slot``
    code.  Slot 0 is the template verbatim (same name, so streaming
    re-emissions of a stable mix read as reweights, not churn); other slots
    shift every predicate constant deterministically inside the benchmark's
    value domains and get the stable name ``<template>@<slot>``."""
    template = templates.queries[code // n_slots]
    slot = code % n_slots
    if slot == 0:
        return template.with_frequency(frequency)
    return Query(
        f"{template.name}@{slot}",
        template.fact_table,
        [shift_predicate(p, slot, spec) for p in template.predicates],
        aggregates=list(template.aggregates),
        group_by=template.group_by,
        order_by=template.order_by,
        frequency=frequency,
    )


@dataclass(frozen=True)
class QueryLog:
    """A columnar query log: per-entry template ids and variation slots.

    This is the shape a parsed production log lands in — one structural
    template id plus one predicate-shape (constant-variation) slot per
    entry — and the only shape the vectorized front-end ever touches.
    """

    name: str
    templates: Workload
    spec: AugmentSpec
    template_ids: np.ndarray
    slots: np.ndarray
    n_slots: int

    def __post_init__(self) -> None:
        if len(self.template_ids) != len(self.slots):
            raise ValueError("template_ids and slots lengths differ")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")

    def __len__(self) -> int:
        return len(self.template_ids)

    def codes(self) -> np.ndarray:
        """Packed fingerprint codes, one per entry (vectorized)."""
        return (
            self.template_ids.astype(np.int64) * self.n_slots
            + self.slots.astype(np.int64)
        )

    def entry(self, i: int) -> Query:
        """Materialize one log entry (debugging/tests; the front-end never
        materializes per-entry)."""
        return materialize_code(
            self.templates, self.spec, int(self.codes()[i]), self.n_slots
        )

    def __repr__(self) -> str:
        return (
            f"QueryLog({self.name!r}, entries={len(self)}, "
            f"templates={len(self.templates)}, n_slots={self.n_slots})"
        )


def generate_log(
    templates: Workload,
    spec: AugmentSpec,
    n_queries: int = 1_000_000,
    n_slots: int = 16,
    skew: float = 1.1,
    slot_skew: float = 1.5,
    seed: int = 0,
    name: str | None = None,
) -> QueryLog:
    """A synthetic Zipf-skewed log over ``templates``.

    Template popularity is Zipf with exponent ``skew`` over a seeded random
    rank permutation (so which template is hot varies with the seed, not
    just how hot); slots decay with ``slot_skew`` (slot 0 — the template's
    canonical constants — is always the most popular variation).  ``skew=0``
    is uniform.  Fully vectorized: two ``rng.choice`` draws, no per-entry
    loop.
    """
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    rng = np.random.default_rng(seed)
    with span(
        "compress.generate",
        templates=len(templates), entries=n_queries, n_slots=n_slots,
    ):
        ranks = rng.permutation(len(templates)).astype(np.float64)
        p = (ranks + 1.0) ** -skew
        p /= p.sum()
        template_ids = rng.choice(len(templates), size=n_queries, p=p)
        sp = (np.arange(n_slots, dtype=np.float64) + 1.0) ** -slot_skew
        sp /= sp.sum()
        slots = rng.choice(n_slots, size=n_queries, p=sp)
        return QueryLog(
            name=name or f"{templates.name}-log",
            templates=templates,
            spec=spec,
            template_ids=template_ids.astype(np.int32),
            slots=slots.astype(np.int32),
            n_slots=n_slots,
        )


@dataclass(frozen=True)
class DedupResult:
    """The deduped log: one weighted query per distinct fingerprint."""

    workload: Workload
    n_entries: int
    n_unique_codes: int

    @property
    def n_unique(self) -> int:
        return len(self.workload)

    @property
    def ratio(self) -> float:
        """Dedup compression ratio (log entries per representative)."""
        return self.n_entries / max(1, self.n_unique)

    @property
    def total_weight(self) -> float:
        return sum(q.frequency for q in self.workload)


def _fold_by_fingerprint(queries: list[Query], name: str) -> Workload:
    """Fold queries with identical fingerprints into one representative
    (first occurrence keeps its name), summing weights.  Distinct codes can
    collide — domain wrapping may shift two slots onto the same constants —
    and the designer must never see the same fingerprint twice."""
    folded: dict[tuple, Query] = {}
    for q in queries:
        fp = q.fingerprint()
        prev = folded.get(fp)
        if prev is None:
            folded[fp] = q
        else:
            folded[fp] = prev.with_frequency(prev.frequency + q.frequency)
    return Workload(name, list(folded.values()))


def dedup_log(log: QueryLog, name: str | None = None) -> DedupResult:
    """Vectorized fingerprint + dedup: fold the raw log into one weighted
    query per distinct fingerprint.  Weights are conserved *exactly* —
    counts are integers, summed in int64 and carried bit-exactly by float64
    frequencies (every count is far below 2**53)."""
    with span("compress.dedup", entries=len(log)):
        codes, counts = np.unique(log.codes(), return_counts=True)
        materialized = [
            materialize_code(
                log.templates, log.spec, int(code), log.n_slots,
                frequency=float(count),
            )
            for code, count in zip(codes, counts)
        ]
        workload = _fold_by_fingerprint(
            materialized, name or f"{log.name}-dedup"
        )
        result = DedupResult(
            workload=workload,
            n_entries=len(log),
            n_unique_codes=len(codes),
        )
        annotate(unique_codes=len(codes), unique=result.n_unique)
        return result


@dataclass(frozen=True)
class CompressedWorkload:
    """A bounded-size weighted representative workload.

    ``assignment`` maps every input query name to the representative that
    absorbed its weight; representative frequencies are the exact sums of
    their members' — which is all the designer's weighted cost model needs.
    """

    workload: Workload
    assignment: dict[str, str]
    n_input: int

    @property
    def n_representatives(self) -> int:
        return len(self.workload)

    @property
    def total_weight(self) -> float:
        return sum(q.frequency for q in self.workload)

    def fingerprint(self) -> str:
        """Content identity of the representatives: a blake2b digest of
        each one's query fingerprint and weight, in workload order (names
        do not enter it)."""
        text = repr([(q.fingerprint(), q.frequency) for q in self.workload])
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def compress_workload(
    workload: Workload,
    stats: dict[str, TableStatistics],
    max_representatives: int = 32,
    alpha: float = 0.25,
    seed: int = 0,
    head_share: float = 0.5,
    name: str | None = None,
) -> CompressedWorkload:
    """Compress a (deduped) workload down to at most ``max_representatives``
    weighted representative queries.

    Each fact's budget splits into a pinned *head* — its heaviest queries
    kept verbatim, up to ``head_share`` of the budget — and a clustered
    *tail*.  Under the Zipf skew real logs show, the head carries most of
    the weighted runtime, so representing it exactly (rather than through a
    medoid that may have a different shape) is where compressed-design
    quality comes from; the light tail can afford lossy clustering.

    The tail reuses the designer's own grouping machinery: queries embed as
    extended selectivity vectors (propagated selectivities + alpha-scaled
    byte footprints, :func:`repro.design.grouping.extended_vectors`) and
    k-means (:func:`repro.design.kmeans.kmeans`) partitions them.  Each
    cluster is represented by its *medoid* — the member nearest the weighted
    centroid — reweighted to the cluster's exact total weight, so the
    compressed workload slots into the weighted cost model untouched.
    Deterministic given (workload, stats, seed); with a budget at or above
    the workload size, compression is the identity (same queries, same
    order, same weights).
    """
    if max_representatives < 1:
        raise ValueError("max_representatives must be >= 1")
    if not 0.0 <= head_share <= 1.0:
        raise ValueError("head_share must be in [0, 1]")
    facts = workload.fact_tables()
    n = len(workload)
    k_total = min(max_representatives, n)
    with span(
        "compress.cluster", queries=n, max_representatives=max_representatives
    ):
        reps: list[Query] = []
        assignment: dict[str, str] = {}
        for fact in facts:
            queries = workload.queries_for_fact(fact)
            k = min(len(queries), max(1, round(k_total * len(queries) / n)))
            if k >= len(queries):
                # Budget covers the fact: identity, no clustering noise.
                reps.extend(queries)
                assignment.update({q.name: q.name for q in queries})
                continue
            weights = np.array([q.frequency for q in queries])
            # Pin the heaviest queries verbatim (stable under ties: the
            # earlier query wins), cluster only the tail.
            n_head = min(int(k * head_share), k - 1) if k > 1 else 0
            order = np.argsort(-weights, kind="stable")
            head = np.sort(order[:n_head])
            for i in head:
                q = queries[int(i)]
                reps.append(q)
                assignment[q.name] = q.name
            tail = np.sort(order[n_head:])
            tail_queries = [queries[int(i)] for i in tail]
            fact_stats = stats[fact]
            vectors = build_selectivity_vectors(tail_queries, fact_stats)
            points = extended_vectors(
                tail_queries, vectors, fact_stats, alpha
            )
            labels = kmeans(points, k - n_head, seed=seed).labels
            tail_weights = weights[tail]
            # Clusters in order of their earliest member, so representative
            # order is stable against k-means label numbering.
            for label in sorted(
                np.unique(labels), key=lambda l: int(np.argmax(labels == l))
            ):
                members = np.nonzero(labels == label)[0]
                w = tail_weights[members]
                centroid = (points[members] * w[:, None]).sum(0) / w.sum()
                d2 = ((points[members] - centroid) ** 2).sum(1)
                medoid = tail_queries[members[int(np.argmin(d2))]]
                rep = medoid.with_frequency(float(w.sum()))
                reps.append(rep)
                for i in members:
                    assignment[tail_queries[i].name] = rep.name
        compressed = CompressedWorkload(
            workload=Workload(name or f"{workload.name}-c{k_total}", reps),
            assignment=assignment,
            n_input=n,
        )
        annotate(representatives=len(reps))
        return compressed


@dataclass
class StreamingCompressor:
    """Online top-k workload tracking under exponential decay.

    Observes the same ``(template id, slot)`` pairs a :class:`QueryLog`
    holds, keeping one exponentially-decayed weight per code (the code
    space is bounded: ``len(templates) * n_slots``).  ``current_workload``
    is the top-``capacity`` codes materialized with their decayed weights;
    :meth:`poll` compares the current mix against the last emission and —
    when the normalized L1 distance crosses ``shift_threshold`` — emits a
    :class:`~repro.relational.query.WorkloadDelta` ready for
    ``CoraddDesigner.update()``.  Stable per-code query names mean a
    re-emission of a steady mix reads as pure reweights.

    ``half_life`` is in *queries observed*, not wall time — the decay is
    applied per event, vectorized per batch.
    """

    templates: Workload
    spec: AugmentSpec
    n_slots: int = 16
    capacity: int = 24
    half_life: float = 50_000.0
    shift_threshold: float = 0.2
    name: str = "stream"
    events: int = 0
    emissions: int = 0
    _weights: np.ndarray = field(init=False, repr=False)
    _last: Workload | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.half_life <= 0:
            raise ValueError("half_life must be positive")
        self._weights = np.zeros(
            len(self.templates) * self.n_slots, dtype=np.float64
        )

    @classmethod
    def for_log(cls, log: QueryLog, **kwargs) -> "StreamingCompressor":
        """A compressor over the same code space as ``log`` (its entries are
        not consumed — feed them through :meth:`observe`)."""
        return cls(
            templates=log.templates, spec=log.spec, n_slots=log.n_slots,
            name=f"{log.name}-stream", **kwargs,
        )

    def observe(self, template_ids: np.ndarray, slots: np.ndarray) -> None:
        """Fold a batch of log entries into the decayed weights — exactly
        equivalent to per-event ``w *= d; w[code] += 1``, vectorized: after
        ``n`` events every prior weight decays by ``d**n`` and the batch's
        j-th event contributes ``d**(n-1-j)``."""
        template_ids = np.asarray(template_ids)
        slots = np.asarray(slots)
        n = len(template_ids)
        if n == 0:
            return
        codes = (
            template_ids.astype(np.int64) * self.n_slots
            + slots.astype(np.int64)
        )
        d = 0.5 ** (1.0 / self.half_life)
        self._weights *= d ** n
        contrib = d ** (n - 1 - np.arange(n, dtype=np.float64))
        np.add.at(self._weights, codes, contrib)
        self.events += n

    def observe_log(self, log: QueryLog, start: int = 0, end: int | None = None) -> None:
        self.observe(
            log.template_ids[start:end], log.slots[start:end]
        )

    def current_workload(self) -> Workload:
        """The decayed top-``capacity`` mix as a weighted workload (folded
        by fingerprint, in code order for determinism)."""
        nz = np.nonzero(self._weights > 0.0)[0]
        if len(nz) > self.capacity:
            # Highest decayed weight wins; ties break to the lower code.
            order = nz[np.lexsort((nz, -self._weights[nz]))]
            nz = np.sort(order[: self.capacity])
        queries = [
            materialize_code(
                self.templates, self.spec, int(code), self.n_slots,
                frequency=float(self._weights[code]),
            )
            for code in nz
        ]
        return _fold_by_fingerprint(
            queries, f"{self.name}@{self.events}"
        )

    @staticmethod
    def _mix_distance(old: Workload, new: Workload) -> float:
        """L1 distance between the two workloads' *normalized* weight
        distributions (range [0, 2]; 2 = disjoint support)."""
        old_total = sum(q.frequency for q in old) or 1.0
        new_total = sum(q.frequency for q in new) or 1.0
        old_mix = {q.name: q.frequency / old_total for q in old}
        new_mix = {q.name: q.frequency / new_total for q in new}
        names = set(old_mix) | set(new_mix)
        return sum(
            abs(new_mix.get(nm, 0.0) - old_mix.get(nm, 0.0)) for nm in names
        )

    def poll(self) -> WorkloadDelta | None:
        """Emit a delta when the mix shifted past the threshold (always on
        the first non-empty poll); None while the mix is steady."""
        current = self.current_workload()
        if len(current) == 0:
            return None
        if self._last is not None:
            if self._mix_distance(self._last, current) < self.shift_threshold:
                return None
        previous = (
            self._last if self._last is not None
            else Workload(f"{self.name}@empty", [])
        )
        delta = WorkloadDelta.between(previous, current)
        self._last = current
        self.emissions += 1
        annotate_kw = {
            "tracked": int((self._weights > 0.0).sum()),
            "emitted": len(current),
        }
        annotate(**annotate_kw)
        return delta
