"""Design quality vs workload compression on a million-query log.

The CORADD pipeline was built for tens of hand-picked queries; a real
warehouse hands the designer a *log* — millions of query executions, almost
all of them near-duplicates of a few hundred templates.  This experiment
closes that gap end to end:

1. generate a Zipf-skewed log of ``(template, parameter-slot)`` events over
   an augmented template suite (a ``*-log`` registry variant);
2. **dedup** it with one vectorized pass (:func:`~repro.workloads.compress.
   dedup_log`): identical fingerprints fold into one representative query
   whose frequency is the exact event count — weight is conserved, not
   estimated;
3. **cluster** the deduped set down to a bounded representative count
   (:func:`~repro.workloads.compress.compress_workload`), medoids carrying
   their cluster's summed weight;
4. design once per arm — the full deduped workload vs each representative
   budget — and *measure* every arm's design against the **full** deduped
   workload on its materialized database.

The contract: dedup folds the log at least 50x and conserves its event
count exactly, and a bounded representative set designs to within 5% of
the full-dedup design's quality measured on the full deduped workload
(``tests/test_compress.py``: ``TestDedup::test_ratio_reflects_folding``,
the two ``test_weight_conserved_exactly`` and
``TestCompressWorkload::test_top_k_quality_within_5_percent_of_full_dedup``).
The design step running an order of magnitude faster is what this
experiment reports; wall-clock is never asserted.
"""

from __future__ import annotations

import time

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, use_session
from repro.experiments.report import ExperimentResult
from repro.workloads.compress import compress_workload, dedup_log
from repro.workloads.registry import make


def run_workload_compression(
    benchmark: str = "tpch-log",
    scale: float = 0.05,
    log_queries: int = 1_000_000,
    log_slots: int = 16,
    rep_counts: tuple[int, ...] = (8, 16, 24, 32),
    budget_frac: float = 0.5,
    max_k: int = 12,
    seed: int | None = None,
) -> ExperimentResult:
    """Sweep representative budgets and measure quality vs design time."""
    t = time.perf_counter()
    inst = make(
        benchmark,
        scale=scale,
        seed=seed,
        log_queries=log_queries,
        log_slots=log_slots,
    )
    generate_s = time.perf_counter() - t
    if inst.log is None:
        raise ValueError(
            f"benchmark {benchmark!r} has no query log; use a -log variant"
        )

    t = time.perf_counter()
    deduped = dedup_log(inst.log)
    dedup_s = time.perf_counter() - t

    # Feedback re-ranking is off in both arms: it re-runs the workload per
    # iteration, which at hundreds of deduped queries would swamp the very
    # design-time comparison this experiment makes.
    config = DesignerConfig(max_k=max_k, use_feedback=False)
    budget = max(1, int(inst.total_base_bytes() * budget_frac))

    def _designer(workload: object) -> CoraddDesigner:
        return CoraddDesigner(
            inst.flat_tables,
            workload,
            inst.primary_keys,
            inst.fk_attrs,
            config=config,
        )

    result = ExperimentResult(
        name="workload_compression",
        title=(
            f"Design from a {len(inst.log):,}-entry query log on {benchmark}: "
            f"full dedup vs bounded representative sets"
        ),
        columns=[
            "arm",
            "queries",
            "compress_s",
            "design_s",
            "total_s",
            "speedup",
            "objects",
            "mv_mb",
            "workload_seconds",
            "quality_ratio",
        ],
        paper_expectation=(
            "beyond the paper's hand-sized workloads: a bounded medoid set "
            "with conserved weights must design ~10x faster than the full "
            "deduped log while staying within a few percent of its "
            "frequency-weighted quality"
        ),
    )

    session = EvalSession()
    with use_session(session):
        # Profiling (statistics, cost models) is workload-independent and
        # shared by every arm, so the designer is constructed *outside* the
        # timed region — the comparison is enumerate+prune+solve.
        full_designer = _designer(deduped.workload)
        t = time.perf_counter()
        full_design = full_designer.design(budget)
        full_design_s = time.perf_counter() - t
        db = full_design.materialize(session)
        full_seconds = db.total_seconds(deduped.workload)
        result.add_row(
            arm="full-dedup",
            queries=len(deduped.workload),
            compress_s=0.0,
            design_s=full_design_s,
            total_s=full_design_s,
            speedup=1.0,
            objects=len(full_design.chosen),
            mv_mb=full_design.size_bytes / (1 << 20),
            workload_seconds=full_seconds,
            quality_ratio=1.0,
        )

        for reps in rep_counts:
            t = time.perf_counter()
            compressed = compress_workload(
                deduped.workload, full_designer.stats, max_representatives=reps
            )
            compress_s = time.perf_counter() - t
            designer = _designer(compressed.workload)
            t = time.perf_counter()
            design = designer.design(budget)
            design_s = time.perf_counter() - t
            db = design.materialize(session)
            seconds = db.total_seconds(deduped.workload)
            total_s = compress_s + design_s
            result.add_row(
                arm=f"top-{reps}",
                queries=len(compressed.workload),
                compress_s=compress_s,
                design_s=design_s,
                total_s=total_s,
                speedup=full_design_s / total_s if total_s else float("inf"),
                objects=len(design.chosen),
                mv_mb=design.size_bytes / (1 << 20),
                workload_seconds=seconds,
                quality_ratio=seconds / full_seconds if full_seconds else 1.0,
            )

    result.notes.append(
        f"log: {len(inst.log):,} events over {len(inst.workload)} templates x "
        f"{inst.log.n_slots} slots -> {deduped.n_unique_codes} codes -> "
        f"{len(deduped.workload)} unique queries "
        f"(dedup ratio {deduped.ratio:,.0f}x)"
    )
    result.notes.append(
        f"front-end: generate {generate_s:.2f}s, dedup {dedup_s:.2f}s; "
        f"scale {scale}, budget {budget_frac}x base, max_k {max_k}"
    )
    return result


if __name__ == "__main__":
    from repro.experiments.report import format_report

    print(format_report(run_workload_compression()))
