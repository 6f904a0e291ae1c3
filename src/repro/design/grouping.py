"""Query grouping: extended selectivity vectors -> k-means -> query groups.

Section 4.1 in full: queries on the same fact table are embedded as
*extended* selectivity vectors — the propagated selectivity per attribute,
plus one element per attribute set to ``bytesize(attr) * alpha`` when the
query uses the attribute and 0 otherwise.  The byte terms make queries with
disjoint target attributes look distant, so MVs that would balloon (Figure 2)
do not get grouped; ``alpha`` tunes how much size matters, and the candidate
pool is the union over several alphas (0 .. 0.5) and every k in 1..|Q|.

Singleton groups (dedicated MVs) and the all-queries group are always
included: they anchor the two extremes the ILP chooses between.

A :class:`GroupingMemo` makes the sweep *incremental* across workload
phases: each (alpha, k) slot remembers the point-matrix digest and the
assignment of its last run.  An unchanged slot (same queries, same vectors —
e.g. a pure reweight, which does not move selectivity vectors) reuses its
labels outright, bit-identically and with zero k-means work; a changed slot
seeds a single Lloyd run from the surviving queries' previous centroids
instead of the full ``n_init``-restart k-means++ sweep.  The memo also holds
the clustered-key designer's cold 2-means splits by (points, seed): the
recursive merge meets the same subgroup under many parent groups.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.design.kmeans import kmeans
from repro.design.selectivity import SelectivityVectors
from repro.relational.query import Query
from repro.stats.collector import TableStatistics
from repro.storage.fragments import sorted_unique

DEFAULT_ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class _GroupingSlot:
    """The last clustering of one (alpha index, k) sweep cell."""

    digest: bytes
    labels: np.ndarray
    assignment: dict[str, int]  # query name -> label


@dataclass
class GroupingMemo:
    """Per-fact memory of the k-means sweep, one slot per (alpha_idx, k)."""

    slots: dict[tuple[int, int], _GroupingSlot] = field(default_factory=dict)
    # (point-matrix digest, seed) -> labels of a cold 2-means: the key
    # designer's recursive splits, which meet the same subgroup under many
    # parent groups and across workload phases.
    splits: dict[tuple[bytes, int], np.ndarray] = field(default_factory=dict)

    def split_labels(self, points: np.ndarray, seed: int) -> np.ndarray:
        """Labels of ``kmeans(points, 2, seed=seed)``, clustered once per
        distinct point matrix and seed."""
        key = (self.digest(points, []), seed)
        labels = self.splits.get(key)
        if labels is None:
            labels = self.splits[key] = kmeans(points, 2, seed=seed).labels
        return labels

    @staticmethod
    def digest(points: np.ndarray, names: list[str]) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update("\x00".join(names).encode())
        h.update(str(points.shape).encode())
        h.update(np.ascontiguousarray(points).tobytes())
        return h.digest()

    def seed_centers(
        self, slot: tuple[int, int], points: np.ndarray, names: list[str]
    ) -> np.ndarray | None:
        """Centroids of the previous assignment restricted to the queries
        still present — the warm start for a drifted sweep cell."""
        prev = self.slots.get(slot)
        if prev is None:
            return None
        centers = []
        by_label: dict[int, list[int]] = {}
        for i, name in enumerate(names):
            label = prev.assignment.get(name)
            if label is not None:
                by_label.setdefault(label, []).append(i)
        for label in sorted(by_label):
            centers.append(points[by_label[label]].mean(axis=0))
        if not centers:
            return None
        return np.vstack(centers)

    def store(
        self,
        slot: tuple[int, int],
        digest: bytes,
        labels: np.ndarray,
        names: list[str],
    ) -> None:
        self.slots[slot] = _GroupingSlot(
            digest=digest,
            labels=labels,
            assignment={name: int(label) for name, label in zip(names, labels)},
        )


def extended_vectors(
    queries: list[Query],
    vectors: SelectivityVectors,
    stats: TableStatistics,
    alpha: float,
) -> np.ndarray:
    """n_queries x (2 * n_attrs) matrix: [propagated sels | alpha-weighted
    byte sizes of used attributes]."""
    attrs = vectors.attrs
    schema = stats.table.schema
    points = np.empty((len(queries), 2 * len(attrs)), dtype=np.float64)
    for i, q in enumerate(queries):
        points[i, : len(attrs)] = vectors.as_point(q.name)
        used = set(q.attributes())
        for j, a in enumerate(attrs):
            points[i, len(attrs) + j] = (
                schema.column(a).byte_size * alpha if a in used else 0.0
            )
    return points


def enumerate_query_groups(
    queries: list[Query],
    vectors: SelectivityVectors,
    stats: TableStatistics,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    seed: int = 0,
    max_k: int | None = None,
    memo: GroupingMemo | None = None,
) -> list[frozenset[str]]:
    """Candidate query groups for one fact table, deduplicated, in a
    deterministic order (singletons first, then by discovery).

    With a ``memo`` (an incremental designer's per-fact
    :class:`GroupingMemo`), unchanged sweep cells reuse their previous
    labels bit-identically and changed cells run a single warm-seeded Lloyd
    pass; without one, the full cold sweep runs as always.
    """
    if not queries:
        return []
    names = [q.name for q in queries]
    groups: dict[frozenset[str], None] = {}
    for name in names:
        groups.setdefault(frozenset([name]))
    groups.setdefault(frozenset(names))
    k_limit = len(queries) if max_k is None else min(max_k, len(queries))
    for alpha_index, alpha in enumerate(alphas):
        points = extended_vectors(queries, vectors, stats, alpha)
        digest = GroupingMemo.digest(points, names) if memo is not None else b""
        for k in range(1, k_limit + 1):
            slot = (alpha_index, k)
            labels: np.ndarray | None = None
            if memo is not None:
                prev = memo.slots.get(slot)
                if prev is not None and prev.digest == digest:
                    labels = prev.labels  # unchanged cell: skip the sweep
            if labels is None:
                init = (
                    memo.seed_centers(slot, points, names)
                    if memo is not None
                    else None
                )
                labels = kmeans(
                    points,
                    k,
                    seed=seed + 1000 * alpha_index + k,
                    init_centers=init,
                ).labels
                if memo is not None:
                    memo.store(slot, digest, labels, names)
            for label in sorted_unique(labels):
                members = frozenset(
                    names[i] for i in np.nonzero(labels == label)[0]
                )
                groups.setdefault(members)
    return list(groups)
