"""Maintenance-aware design vs query-only design across update mixes.

The read-only CORADD pipeline picks the same materialized objects whether
the warehouse takes zero updates or a firehose.  Appendix A-3 (Figure 14)
says that cannot be right: every extra object turns each insert into extra
dirty pages, and past the buffer pool the cost explodes.  This experiment
closes the loop end to end:

1. for each update mix ``w`` (inserts per base row per workload execution),
   design twice — **query-only** (``update_weight=0``, the paper's setting)
   and **maintenance-aware** (``update_weight=w``, the ILP charging each
   candidate its modelled insert bill);
2. *measure* both designs under the same mix: materialize, run the
   workload, then push a deterministic refresh stream
   (:class:`~repro.workloads.refresh.RefreshStream`, sized to ``w``)
   through a real :class:`~repro.storage.update.RefreshExecutor` /
   buffer pool, and run the workload again over the mutated database;
3. report query seconds, measured maintenance seconds, and the total.

The contract: at ``w=0`` the two arms are bit-identical — the maintenance
machinery is provably inert (``tests/test_refresh.py::
TestMaintenanceAwareDesign::test_zero_weight_is_bit_identical``) — and at
every update-heavy mix the maintenance-aware design's measured total is no
worse than the query-only design's, holding no more MV bytes at the
heaviest mix: it drops the wide/uncorrelated MVs the query-only design
keeps (``tests/test_experiments.py::TestRefreshDesign``).
"""

from __future__ import annotations

from repro.design.designer import CoraddDesigner, Design, DesignerConfig
from repro.engine import EvalSession, use_session
from repro.storage.disk import DiskModel
from repro.experiments.report import ExperimentResult
from repro.storage.update import RefreshExecutor
from repro.workloads.refresh import RefreshStream
from repro.workloads.registry import make


def _evaluate_under_mix(
    design: Design,
    inst,
    update_weight: float,
    rounds: int,
    delete_fraction: float,
    pool_pages: int,
    session: EvalSession,
    refresh_seed: int,
) -> dict:
    """Measured cost of one design under one update mix: one workload
    execution split around the refresh stream, plus the stream's simulated
    maintenance I/O."""
    db = design.materialize(session)
    workload = design.workload
    query_before = db.total_seconds(workload)
    maintenance = 0.0
    inserted = 0
    if update_weight > 0:
        template = inst.refresh
        stream = RefreshStream(
            inst.flat_tables[template.fact],
            template.fact,
            template.key_attrs,
            template.recency_attr,
            rounds=rounds,
            insert_fraction=min(1.0, update_weight / rounds),
            delete_fraction=delete_fraction,
            seed=refresh_seed,
        )
        executor = RefreshExecutor(db, pool_pages=pool_pages, session=session)
        for batch in stream:
            maintenance += executor.apply(batch).seconds
            inserted += batch.nrows
        maintenance += executor.flush()
    query_after = db.total_seconds(workload)
    query_seconds = 0.5 * (query_before + query_after)
    return {
        "query_seconds": query_seconds,
        "maintenance_seconds": maintenance,
        "total_seconds": query_seconds + maintenance,
        "inserted_rows": inserted,
    }


def run_refresh_design(
    benchmark: str = "ssb-refresh",
    scale: float = 0.3,
    budget_fracs: tuple[float, ...] = (0.6,),
    update_weights: tuple[float, ...] = (0.0, 0.25, 1.0),
    rounds: int = 4,
    delete_fraction: float = 0.0,
    pool_frac: float = 0.25,
    seed: int | None = None,
    refresh_seed: int = 0,
    t0: int = 1,
    alphas: tuple[float, ...] = (0.0, 0.25, 0.5),
    use_feedback: bool = False,
) -> ExperimentResult:
    """Design and measure across update mixes and budgets."""
    inst = make(benchmark, scale=scale, seed=seed)
    if inst.refresh is None:
        raise ValueError(
            f"benchmark {benchmark!r} has no refresh stream; use a -refresh variant"
        )
    base_bytes = inst.total_base_bytes()
    result = ExperimentResult(
        name="refresh_design",
        title=(
            f"Query-only vs maintenance-aware designs on {benchmark} across "
            f"update mixes (pool {pool_frac:.2f}x base)"
        ),
        columns=[
            "budget_frac",
            "update_weight",
            "arm",
            "objects",
            "mv_mb",
            "query_seconds",
            "maintenance_seconds",
            "total_seconds",
            "model_maintenance",
        ],
        paper_expectation=(
            "beyond the paper's read-only setting (motivated by Appendix "
            "A-3 / Figure 14): update-heavy mixes must drop wide MVs and "
            "beat the query-only design on query+maintenance cost; at "
            "weight 0 both arms are bit-identical"
        ),
    )

    session = EvalSession()
    with use_session(session):
        for budget_frac in budget_fracs:
            budget = max(1, int(base_bytes * budget_frac))
            # The pool the designer prices against is the pool the executor
            # measures against, sized relative to the base data.
            page_size = DiskModel().page_size
            pool_pages = max(64, int(pool_frac * base_bytes / page_size))
            designs: dict[float, Design] = {}
            for w in (0.0,) + tuple(
                weight for weight in update_weights if weight > 0
            ):
                config = DesignerConfig(
                    t0=t0,
                    alphas=alphas,
                    use_feedback=use_feedback,
                    update_weight=w,
                    maintenance_pool_pages=pool_pages,
                )
                designer = CoraddDesigner(
                    inst.flat_tables,
                    inst.workload,
                    inst.primary_keys,
                    inst.fk_attrs,
                    config=config,
                )
                designs[w] = designer.design(budget)

            for w in update_weights:
                arms = [("query-only", designs[0.0])]
                if w > 0:
                    arms.append(("maintenance-aware", designs[w]))
                for arm_name, design in arms:
                    measured = _evaluate_under_mix(
                        design, inst, w, rounds, delete_fraction,
                        pool_pages, session, refresh_seed,
                    )
                    result.add_row(
                        budget_frac=budget_frac,
                        update_weight=w,
                        arm=arm_name,
                        objects=len(design.chosen),
                        mv_mb=design.size_bytes / (1 << 20),
                        query_seconds=measured["query_seconds"],
                        maintenance_seconds=measured["maintenance_seconds"],
                        total_seconds=measured["total_seconds"],
                        model_maintenance=design.ilp.maintenance_seconds,
                    )
    result.notes.append(
        f"{benchmark} scale {scale}, {len(inst.workload)} queries, "
        f"budgets {list(budget_fracs)}x base, refresh rounds {rounds}, "
        f"delete fraction {delete_fraction}"
    )
    return result


if __name__ == "__main__":
    from repro.experiments.report import format_report

    print(format_report(run_refresh_design()))
