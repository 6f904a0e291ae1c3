"""Shared cost-model machinery: hypothetical object geometry.

An :class:`ObjectGeometry` describes a *hypothetical* physical object — an MV
candidate defined by its attribute set and clustered key — in the units cost
models reason about: rows, pages, B+Tree height, full-scan seconds.  It is
computed from the statistics facade and the disk model only; nothing is
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.relational.query import Query
from repro.stats.collector import TableStatistics
from repro.storage.btree import btree_height
from repro.storage.disk import DiskModel


@dataclass(frozen=True)
class ObjectGeometry:
    """Physical shape of a (hypothetical) clustered object."""

    attrs: tuple[str, ...]
    cluster_key: tuple[str, ...]
    nrows: int
    row_bytes: int
    npages: int
    btree_height: int
    full_scan_s: float
    _attr_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_attr_set", frozenset(self.attrs))

    @staticmethod
    def from_heapfile(heapfile) -> "ObjectGeometry":
        """Geometry of an already-materialized heap file (used when a cost
        model must price plans over physical objects, e.g. emulating the
        commercial optimizer's plan choice at run time)."""
        return ObjectGeometry(
            attrs=tuple(heapfile.table.column_names),
            cluster_key=heapfile.cluster_key,
            nrows=heapfile.nrows,
            row_bytes=heapfile.row_bytes,
            npages=heapfile.npages,
            btree_height=heapfile.btree_height,
            full_scan_s=heapfile.full_scan_seconds(),
        )

    @staticmethod
    def from_attrs(
        stats: TableStatistics,
        disk: DiskModel,
        attrs: tuple[str, ...],
        cluster_key: tuple[str, ...],
    ) -> "ObjectGeometry":
        row_bytes = stats.table.schema.byte_size(attrs)
        npages = disk.pages_for_rows(stats.nrows, row_bytes)
        unclustered = ObjectGeometry(
            attrs=tuple(attrs),
            cluster_key=(),
            nrows=stats.nrows,
            row_bytes=row_bytes,
            npages=npages,
            btree_height=btree_height(max(npages, 1), 8, disk.page_size),
            full_scan_s=disk.full_scan_seconds(npages),
        )
        if not cluster_key:
            return unclustered
        return unclustered.clustered_by(stats, disk, cluster_key)

    def clustered_by(
        self,
        stats: TableStatistics,
        disk: DiskModel,
        cluster_key: tuple[str, ...],
    ) -> "ObjectGeometry":
        """The same rows and columns under another clustered key: rows,
        pages and full-scan time follow the attribute set alone, so B+Tree
        height is the only field a key changes — which is what lets the
        key designer size a query group's MV once and re-key it per
        candidate."""
        for a in cluster_key:
            if a not in self._attr_set:
                raise ValueError(f"cluster key attr {a!r} not in MV attrs")
        key_bytes = (
            stats.table.schema.byte_size(cluster_key) if cluster_key else 8
        )
        return ObjectGeometry(
            attrs=self.attrs,
            cluster_key=tuple(cluster_key),
            nrows=self.nrows,
            row_bytes=self.row_bytes,
            npages=self.npages,
            btree_height=btree_height(
                max(self.npages, 1), max(key_bytes, 1), disk.page_size
            ),
            full_scan_s=self.full_scan_s,
        )

    def covers(self, query: Query) -> bool:
        return self._attr_set.issuperset(query.attributes())


@dataclass(frozen=True)
class PlanEstimate:
    """An estimated plan: name, seconds, and the model's internal terms."""

    plan: str
    seconds: float
    read_s: float = 0.0
    seek_s: float = 0.0
    fragments: float = 0.0
    scanned_fraction: float = 1.0


class CostModel(Protocol):
    """What the designer needs from a cost model."""

    def query_seconds(self, geometry: ObjectGeometry, query: Query) -> float:
        """Estimated runtime of ``query`` on an object with ``geometry``
        (best plan the model believes in).  Must return +inf when the
        geometry does not cover the query."""
        ...

    def explain(self, geometry: ObjectGeometry, query: Query) -> PlanEstimate:
        """The winning plan with its cost breakdown."""
        ...
