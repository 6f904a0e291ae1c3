"""Figure 11: CORADD vs Naive vs the commercial designer on augmented SSB.

Paper result (52-query augmented SSB): CORADD 1.5-2x faster than commercial
in tight budgets and 4-5x in large budgets; Naive (dedicated MVs + fact
re-clusterings, correlation-aware cost model, no sharing) beats commercial
at both extremes but improves much more gradually than CORADD because
without shared MVs every covered query needs its own space.
"""

from __future__ import annotations

from repro.design.baselines import CommercialDesigner, NaiveDesigner
from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import use_session
from repro.experiments.harness import (
    budget_ladder,
    evaluate_design,
    evaluate_design_model_guided,
)
from repro.experiments.report import ExperimentResult
from repro.workloads.registry import make

DEFAULT_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def run_fig11(
    lineorder_rows: int = 60_000,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 42,
    t0: int = 1,
    alphas: tuple[float, ...] = (0.0, 0.25, 0.5),
    use_feedback: bool = True,
    augment_factor: int = 4,
) -> ExperimentResult:
    inst = make(
        "ssb-augmented",
        seed=seed,
        lineorder_rows=lineorder_rows,
        augment_factor=augment_factor,
    )
    workload = inst.workload
    base_bytes = inst.total_base_bytes()
    config = DesignerConfig(t0=t0, alphas=alphas, use_feedback=use_feedback)
    coradd = CoraddDesigner(
        inst.flat_tables, workload, inst.primary_keys, inst.fk_attrs, config=config
    )
    naive = NaiveDesigner(
        inst.flat_tables, workload, inst.primary_keys, inst.fk_attrs, config=config
    )
    commercial = CommercialDesigner(inst.flat_tables, workload, inst.primary_keys)

    result = ExperimentResult(
        name="figure11",
        title=f"Total runtime of {len(workload)} augmented-SSB queries vs space budget",
        columns=[
            "budget_frac",
            "budget_mb",
            "coradd_real",
            "naive_real",
            "commercial_real",
            "speedup_vs_commercial",
            "speedup_vs_naive",
            "coradd_design",
            "naive_design",
            "commercial_design",
        ],
        paper_expectation=(
            "CORADD 1.5-2x over commercial tight, 4-5x large; Naive beats "
            "commercial at the extremes but improves more gradually than CORADD"
        ),
    )
    # Serial design phase (feedback state flows down the ladder), then one
    # evaluation-engine session across the whole ladder and all three
    # designers.
    budgets = budget_ladder(base_bytes, fractions)
    designs = [
        (coradd.design(b), naive.design(b), commercial.design(b))
        for b in budgets
    ]

    with use_session():
        evaluated = [
            (
                evaluate_design(cd),
                evaluate_design(nd),
                evaluate_design_model_guided(md, commercial.oblivious_models),
            )
            for cd, nd, md in designs
        ]
    for frac, budget, (cd, nd, md) in zip(fractions, budgets, evaluated):
        result.add_row(
            budget_frac=frac,
            budget_mb=budget / (1 << 20),
            coradd_real=cd.real_total,
            naive_real=nd.real_total,
            commercial_real=md.real_total,
            speedup_vs_commercial=(
                md.real_total / cd.real_total if cd.real_total else float("inf")
            ),
            speedup_vs_naive=(
                nd.real_total / cd.real_total if cd.real_total else float("inf")
            ),
            coradd_design=cd.design.fingerprint(),
            naive_design=nd.design.fingerprint(),
            commercial_design=md.design.fingerprint(),
        )
    result.notes.append(
        f"base database {base_bytes / (1 << 20):.0f} MB; "
        f"{lineorder_rows} lineorder rows; workload {workload.name}"
    )
    return result
