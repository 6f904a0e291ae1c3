"""Executor: run a query against a physical database, picking the best plan.

A :class:`PhysicalDatabase` is the output side of a design: named physical
objects (base fact tables, MVs) each carrying a heap file plus its secondary
structures (Correlation Maps and/or dense B+Tree indexes).  Running a query
enumerates every applicable plan on every object that *covers* the query
(contains all its attributes), executes them on the simulated disk, and
returns the cheapest — modelling the paper's setup where query rewriting
forces the DBMS to use the intended access path.

All plans of one (object, query) pair share an
:class:`~repro.engine.EvalContext`, and :meth:`PhysicalDatabase.run`
memoizes the winning plan per query fingerprint — repeated
``run_workload`` / ``total_seconds`` calls over the same database stop
re-executing identical plans.  The memo is invalidated whenever an object
is added or removed, and :meth:`PhysicalDatabase.invalidate_plans` forces
a re-execution; either way the results are bit-identical to uncached
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.context import EvalContext
from repro.relational.query import Query, Workload
from repro.storage.access import (
    AccessResult,
    SecondaryStructure,
    clustered_scan,
    cm_scan,
    full_scan,
    secondary_btree_scan,
)
from repro.storage.btree import secondary_index_bytes
from repro.storage.layout import HeapFile
from repro.storage.sharded import ShardedHeapFile, sharded_scan


@dataclass
class PhysicalObject:
    """A heap file plus its secondary access structures."""

    heapfile: HeapFile
    cms: list[SecondaryStructure] = field(default_factory=list)
    btree_keys: list[tuple[str, ...]] = field(default_factory=list)
    # Which fact table's rows this object materializes — what routes a
    # refresh batch to every derived object.  None (legacy constructions)
    # means "matches a fact named like the object itself".
    fact: str | None = None

    @property
    def name(self) -> str:
        return self.heapfile.name

    def serves_fact(self, fact: str) -> bool:
        return fact == (self.fact if self.fact is not None else self.name)

    def covers(self, query: Query) -> bool:
        return all(self.heapfile.table.has_column(a) for a in query.attributes())

    def secondary_bytes(self) -> int:
        """Space consumed by secondary structures (CMs + dense B+Trees)."""
        total = sum(cm.size_bytes for cm in self.cms)  # type: ignore[attr-defined]
        disk = self.heapfile.disk
        for key in self.btree_keys:
            key_bytes = self.heapfile.table.schema.byte_size(key)
            total += secondary_index_bytes(
                self.heapfile.nrows, key_bytes, disk.page_size
            )
        return total

    def size_bytes(self) -> int:
        return self.heapfile.size_bytes + self.secondary_bytes()


@dataclass(frozen=True)
class PlanChoice:
    """The winning plan for one query: which object, which plan, what cost."""

    object_name: str
    result: AccessResult

    @property
    def seconds(self) -> float:
        return self.result.seconds

    @property
    def plan(self) -> str:
        return self.result.plan


class PhysicalDatabase:
    """Named physical objects; base objects are free, others count as design
    space (the caller decides which is which)."""

    def __init__(self, objects: list[PhysicalObject] | None = None) -> None:
        self.objects: dict[str, PhysicalObject] = {}
        self._plan_cache: dict[tuple, PlanChoice] = {}
        for obj in objects or []:
            self.add(obj)

    def add(self, obj: PhysicalObject) -> None:
        if obj.name in self.objects:
            raise ValueError(f"duplicate physical object {obj.name!r}")
        self.objects[obj.name] = obj
        # A new object can change the best plan for any query.
        self.invalidate_plans()

    def remove(self, name: str) -> PhysicalObject:
        """Drop an object (a migration's first act); returns it.  Any
        memoized plan may have routed through the dropped object, so the
        plan cache is invalidated."""
        try:
            obj = self.objects.pop(name)
        except KeyError:
            raise KeyError(f"no physical object {name!r} to remove") from None
        self.invalidate_plans()
        return obj

    def invalidate_plans(self) -> None:
        """Drop memoized plan choices.  Called automatically by :meth:`add`;
        call it yourself after mutating a contained object in place (e.g.
        appending to its ``cms`` or ``btree_keys``), which the memo cannot
        observe."""
        self._plan_cache.clear()

    def object(self, name: str) -> PhysicalObject:
        return self.objects[name]

    def covering_objects(self, query: Query) -> list[PhysicalObject]:
        return [obj for obj in self.objects.values() if obj.covers(query)]

    def objects_for_fact(self, fact: str) -> list[PhysicalObject]:
        """Objects materializing ``fact``'s rows — the refresh fan-out set."""
        return [obj for obj in self.objects.values() if obj.serves_fact(fact)]

    def plans_for(self, query: Query, obj: PhysicalObject) -> list[AccessResult]:
        """Every applicable plan on ``obj``, executed over one shared
        evaluation context (masks, rowids and fragments computed once)."""
        hf = obj.heapfile
        if isinstance(hf, ShardedHeapFile):
            # Sharded objects prune shards first, then pick each surviving
            # shard's best plan internally — one aggregate result.
            return [
                sharded_scan(
                    hf, query, tuple(tuple(k) for k in obj.btree_keys)
                )
            ]
        ctx = EvalContext(hf, query)
        plans: list[AccessResult] = [full_scan(hf, query, ctx)]
        cscan = clustered_scan(hf, query, ctx)
        if cscan is not None:
            plans.append(cscan)
        for cm in obj.cms:
            res = cm_scan(hf, query, cm, ctx)
            if res is not None:
                plans.append(res)
        for key in obj.btree_keys:
            res = secondary_btree_scan(hf, query, key, ctx)
            if res is not None:
                plans.append(res)
        return plans

    def run(self, query: Query) -> PlanChoice:
        """Execute ``query`` with the best plan over all covering objects."""
        key = query.fingerprint()
        cached = self._plan_cache.get(key)
        if cached is None:
            cached = self._plan_cache[key] = self.best_plan(query)
        return cached

    def best_plan(self, query: Query) -> PlanChoice:
        """Execute every plan on every covering object and keep the
        cheapest (the first on ties), bypassing the plan memo."""
        best: PlanChoice | None = None
        for obj in self.covering_objects(query):
            for res in self.plans_for(query, obj):
                if best is None or res.seconds < best.seconds:
                    best = PlanChoice(obj.name, res)
        if best is None:
            raise ValueError(
                f"no physical object covers query {query.name!r} "
                f"(attrs {query.attributes()})"
            )
        return best

    def run_workload(self, workload: Workload) -> dict[str, PlanChoice]:
        return {q.name: self.run(q) for q in workload}

    def total_seconds(self, workload: Workload) -> float:
        """Frequency-weighted total simulated runtime of the workload."""
        return sum(q.frequency * self.run(q).seconds for q in workload)


def run_query(db: PhysicalDatabase, query: Query) -> PlanChoice:
    """Module-level convenience wrapper over :meth:`PhysicalDatabase.run`."""
    return db.run(query)
