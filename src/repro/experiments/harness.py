"""Measure a design: materialize it, run the workload on simulated disk.

This is the experiment-side counterpart of the designer's expectations: the
"CORADD" / "Commercial" series in Figures 9 and 11 are *measured* runtimes
(here: real simulated page/seek accounting over real generated tuples),
while "CORADD-Model" / "Commercial Cost Model" are the designers' own
estimates carried inside each :class:`~repro.design.designer.Design`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.base import ObjectGeometry
from repro.costmodel.oblivious import ObliviousCostModel
from repro.design.designer import Design
from repro.engine import EvalSession, ambient_scope, get_session
from repro.obs.drift import get_monitor
from repro.obs.trace import annotate, span
from repro.relational.query import Query
from repro.storage.access import clustered_scan, full_scan, secondary_btree_scan
from repro.storage.executor import PhysicalDatabase, PlanChoice


@dataclass
class EvaluatedDesign:
    """A design plus its measured and model-expected runtimes."""

    design: Design
    real_seconds: dict[str, float]
    model_seconds: dict[str, float]
    plans: dict[str, PlanChoice]

    @property
    def real_total(self) -> float:
        return sum(
            q.frequency * self.real_seconds[q.name] for q in self.design.workload
        )

    @property
    def model_total(self) -> float:
        return sum(
            q.frequency * self.model_seconds[q.name] for q in self.design.workload
        )


def evaluate_design(
    design: Design,
    db: PhysicalDatabase | None = None,
    session: EvalSession | None = None,
) -> EvaluatedDesign:
    """Materialize (unless given) and execute the design's workload.

    ``session`` (explicit, or the ambient one installed by
    :func:`repro.engine.use_session`) shares predicate masks, sorted heap
    files and CM designs across evaluations — the whole point of the
    evaluation engine for budget sweeps.  Results are identical either way.
    """
    session = session if session is not None else get_session()
    with span(
        "harness.evaluate_design", budget_bytes=design.budget_bytes
    ), ambient_scope(session):
        if db is None:
            db = design.materialize(session)
        plans: dict[str, PlanChoice] = {}
        real: dict[str, float] = {}
        for q in design.workload:
            choice = db.run(q)
            plans[q.name] = choice
            real[q.name] = choice.seconds
        evaluated = EvaluatedDesign(
            design=design,
            real_seconds=real,
            model_seconds=dict(design.expected_seconds),
            plans=plans,
        )
        _observe_evaluation(evaluated)
    return evaluated


def _observe_evaluation(evaluated: EvaluatedDesign) -> None:
    """Feed one evaluated design to the ambient observability layers: the
    drift monitor sees every (modeled, measured) pair, and the enclosing
    span is annotated with the executed query count.  Purely observational
    — a no-op when nothing is installed, and never read back into
    planning."""
    annotate(queries=len(evaluated.real_seconds))
    monitor = get_monitor()
    if monitor is not None:
        monitor.observe_design(evaluated)


def evaluate_designs(
    designs: list[Design],
    workers: int = 1,
    session: EvalSession | None = None,
) -> list[EvaluatedDesign]:
    """Evaluate a ladder of designs in order under ``session`` (a fresh one
    when None), which shares what the designs materialize.

    ``workers`` is accepted and ignored: forking workers was measured never
    to beat this loop, because a ladder's work is almost all the shared
    materialization that one session already does once.
    """
    session = session if session is not None else EvalSession()
    return [evaluate_design(design, session=session) for design in designs]


def _run_model_guided(
    db: PhysicalDatabase, query: Query, models: dict[str, ObliviousCostModel]
) -> PlanChoice:
    """Execute ``query`` with the plan the *oblivious* optimizer would pick.

    This is how the commercial designs actually ran in the paper: the DBMS's
    optimizer shares the designer's correlation-blind cost model, so it
    happily picks secondary-index plans whose real seek count is enormous
    ("causing many more random seeks than the designer expects",
    Section 7.2).  CORADD designs, by contrast, force their intended plans
    through query rewriting — the oracle choice of
    :meth:`PhysicalDatabase.run`.
    """
    model = models[query.fact_table]
    best: tuple[float, object, str, tuple[str, ...] | None] | None = None
    for obj in db.covering_objects(query):
        geometry = ObjectGeometry.from_heapfile(obj.heapfile)
        for kind, key, est in model.plan_options(
            geometry, query, tuple(obj.btree_keys)
        ):
            if best is None or est < best[0]:
                best = (est, obj, kind, key)
    if best is None:
        raise ValueError(f"no physical object covers query {query.name!r}")
    _, obj, kind, key = best
    hf = obj.heapfile
    if kind == "secondary" and key is not None:
        result = secondary_btree_scan(hf, query, key)
    elif kind == "clustered":
        result = clustered_scan(hf, query)
    else:
        result = None
    if result is None:
        result = full_scan(hf, query)
    return PlanChoice(obj.name, result)


def evaluate_design_model_guided(
    design: Design,
    models: dict[str, ObliviousCostModel],
    db: PhysicalDatabase | None = None,
    session: EvalSession | None = None,
) -> EvaluatedDesign:
    """Like :func:`evaluate_design`, but plans are chosen by the oblivious
    model — the honest emulation of running a commercial design on a
    commercial optimizer."""
    session = session if session is not None else get_session()
    with span(
        "harness.evaluate_design_model_guided",
        budget_bytes=design.budget_bytes,
    ), ambient_scope(session):
        if db is None:
            db = design.materialize(session)
        plans: dict[str, PlanChoice] = {}
        real: dict[str, float] = {}
        for q in design.workload:
            choice = _run_model_guided(db, q, models)
            plans[q.name] = choice
            real[q.name] = choice.seconds
        evaluated = EvaluatedDesign(
            design=design,
            real_seconds=real,
            model_seconds=dict(design.expected_seconds),
            plans=plans,
        )
        _observe_evaluation(evaluated)
    return evaluated


def budget_ladder(base_bytes: int, fractions: tuple[float, ...]) -> list[int]:
    """Space budgets as fractions of the base database size — the scale-free
    way to sweep the x-axes of Figures 5, 7, 9 and 11."""
    return [max(1, int(base_bytes * f)) for f in fractions]


def verify_answers(design: Design, db: PhysicalDatabase | None = None) -> bool:
    """Every query must produce identical aggregates on the materialized
    design and on the base flattened fact table — used by integration tests
    to prove MV/CM plans are semantically correct."""
    if db is None:
        db = design.materialize()
    for q in design.workload:
        flat = design.flat_tables[q.fact_table]
        expected = q.answer(flat)
        choice = db.run(q)
        obj = db.object(choice.object_name)
        got = q.answer(obj.heapfile.table)
        for key, want in expected.items():
            have = got.get(key)
            if have is None:
                return False
            # Reordered float reductions may differ in the last ulps.
            if abs(have - want) > 1e-9 * max(1.0, abs(want)):
                return False
    return True
