"""Evolving-workload sweep: incremental redesign vs from-scratch.

Beyond the paper: CORADD designs for a fixed workload, but a production
designer faces drift.  This experiment drives a
:class:`~repro.workloads.drift.WorkloadStream` through two arms:

* **incremental** — one persistent :class:`~repro.design.designer.
  CoraddDesigner` and one :class:`~repro.engine.EvalSession`.  Phase 0
  designs and materializes from scratch; every later phase applies the
  workload delta with :meth:`~repro.design.designer.CoraddDesigner.update`
  (affected-fact re-enumeration, incremental re-pruning, warm-started ILP)
  and *migrates* the live database through
  :class:`~repro.design.migration.DesignDiff` instead of rebuilding it;
* **from-scratch** — what a one-shot designer must do at every phase: new
  statistics, full enumeration, cold ILP solve, full materialization (each
  phase gets its own fresh session, so within-phase caching is allowed but
  nothing carries over).

Per phase the experiment reports wall-clock (design + database transition)
and design quality (frequency-weighted expected seconds of the phase's
workload), plus the migration plan sizes.  The incremental arm must match
from-scratch quality to within 1% at every phase — tier-1 holds it to that
(``tests/test_experiments.py::TestEvolving``); being faster is the point of
it, but wall-clock is reported, never asserted.
"""

from __future__ import annotations

import os

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.migration import DesignDiff
from repro.engine import EvalSession, use_session
from repro.experiments.report import ExperimentResult
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.workloads.registry import make


def run_evolving(
    benchmark: str = "ssb-drift",
    scale: float = 0.3,
    phases: int = 4,
    budget_frac: float = 0.8,
    seed: int | None = None,
    rotation: float = 0.25,
    reweight: float = 0.25,
    active_fraction: float = 0.6,
    augment_factor: int = 2,
    t0: int = 1,
    alphas: tuple[float, ...] = (0.0, 0.25, 0.5),
    use_feedback: bool = True,
) -> ExperimentResult:
    """Sweep a drifting workload, comparing incremental vs scratch redesign."""
    inst = make(
        benchmark,
        scale=scale,
        seed=seed,
        phases=phases,
        rotation=rotation,
        reweight=reweight,
        active_fraction=active_fraction,
        augment_factor=augment_factor,
    )
    if inst.stream is None:
        raise ValueError(
            f"benchmark {benchmark!r} has no workload stream; use a -drift variant"
        )
    budget = max(1, int(inst.total_base_bytes() * budget_frac))
    config = DesignerConfig(t0=t0, alphas=alphas, use_feedback=use_feedback)

    result = ExperimentResult(
        name="evolving",
        title=(
            f"Incremental redesign vs from-scratch across {phases} phases of "
            f"{benchmark} (budget {budget_frac:.2f}x base)"
        ),
        columns=[
            "phase",
            "queries",
            "added",
            "removed",
            "inc_seconds",
            "scratch_seconds",
            "speedup",
            "inc_expected",
            "scratch_expected",
            "quality_ratio",
            "migrated_objects",
        ],
        paper_expectation=(
            "beyond the paper (cf. arXiv 1107.3606): incremental update + "
            "migration several times faster than redesigning from scratch, "
            "with design quality within 1%"
        ),
    )

    session = EvalSession()
    designer: CoraddDesigner | None = None
    prev_design = None
    db = None
    # The two arms are timed with tracer spans — the span *is* the
    # stopwatch the report reads, so the numbers in the result rows and in
    # a trace artifact can never disagree.  An ambient tracer (the
    # ``observed()`` wrapper of a traced run) collects them; otherwise a
    # run-local tracer does, and the designer's own spans nest under the
    # arm spans either way.
    tracer = get_tracer()
    if tracer is None:
        tracer = Tracer()
    with use_tracer(tracer):
        for phase in inst.stream.phases():
            workload = phase.workload
            # Incremental arm: update + migrate against persistent state.
            with tracer.span(
                "evolving.incremental", phase=phase.index
            ) as inc_span, use_session(session):
                if designer is None:
                    designer = CoraddDesigner(
                        inst.flat_tables,
                        workload,
                        inst.primary_keys,
                        inst.fk_attrs,
                        config=config,
                    )
                    inc_design = designer.design(budget)
                    db = inc_design.materialize(session)
                    migrated = len(db.objects)
                else:
                    inc_design = designer.update(phase.delta, budget)
                    diff = DesignDiff(prev_design, inc_design)
                    plan = diff.plan()
                    db = diff.apply(db, session=session, plan=plan)
                    migrated = (
                        len(plan.drops) + len(plan.builds) + len(plan.cm_refreshes)
                    )
                inc_span.annotate(migrated=migrated)
            inc_seconds = inc_span.seconds
            prev_design = inc_design

            # From-scratch arm: everything rebuilt, nothing carried over.
            scratch_session = EvalSession()
            with tracer.span(
                "evolving.scratch", phase=phase.index
            ) as scratch_span, use_session(scratch_session):
                scratch = CoraddDesigner(
                    inst.flat_tables,
                    workload,
                    inst.primary_keys,
                    inst.fk_attrs,
                    config=config,
                )
                scratch_design = scratch.design(budget)
                scratch_design.materialize(scratch_session)
            scratch_seconds = scratch_span.seconds

            inc_expected = inc_design.total_expected_seconds
            scratch_expected = scratch_design.total_expected_seconds
            result.add_row(
                phase=phase.index,
                queries=len(workload),
                added=len(phase.delta.added),
                removed=len(phase.delta.removed),
                inc_seconds=inc_seconds,
                scratch_seconds=scratch_seconds,
                speedup=(
                    scratch_seconds / inc_seconds if inc_seconds else float("inf")
                ),
                inc_expected=inc_expected,
                scratch_expected=scratch_expected,
                quality_ratio=(
                    inc_expected / scratch_expected if scratch_expected else 1.0
                ),
                migrated_objects=migrated,
            )

    drift_rows = result.rows[1:]
    if drift_rows:
        inc_total = sum(r["inc_seconds"] for r in drift_rows)
        scratch_total = sum(r["scratch_seconds"] for r in drift_rows)
        result.notes.append(
            f"drift phases 1..{phases - 1}: incremental {inc_total:.2f}s vs "
            f"from-scratch {scratch_total:.2f}s "
            f"({scratch_total / inc_total:.2f}x)" if inc_total else ""
        )
    result.notes.append(
        f"{benchmark} scale {scale}, pool of "
        f"{len(inst.stream.base)} queries, rotation {rotation}, "
        f"reweight {reweight}, budget {budget / (1 << 20):.1f} MB"
    )
    return result


if __name__ == "__main__":
    from contextlib import nullcontext

    from repro.obs import observed

    tracing = os.environ.get("REPRO_TRACE", "0") == "1"
    with observed("evolving") if tracing else nullcontext() as obs:
        report = run_evolving()
    from repro.experiments.report import format_report

    print(format_report(report))
    if obs is not None:
        print(obs.render())
        print(f"trace written to {obs.write('TRACE_evolving.json')}")
