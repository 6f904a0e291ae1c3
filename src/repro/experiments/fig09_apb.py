"""Figure 9: CORADD vs the commercial designer on APB-1.

Paper result: CORADD's designs run 1.5-3x faster than the commercial
designer's in tight budgets (0-8 GB of a ~22 GB sweep) and 5-6x faster in
large budgets; CORADD's cost model tracks its real runtimes closely, while
the commercial cost model is optimistic by up to 6x (worst at large budgets
where it recommends many MVs + indexes).

Our sweep uses budget *fractions* of the base database size so the shape is
scale-free.  Four series per budget, exactly the paper's: CORADD (real),
CORADD-Model, Commercial (real), Commercial Cost Model.
"""

from __future__ import annotations

from repro.design.baselines import CommercialDesigner
from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import use_session
from repro.experiments.harness import (
    budget_ladder,
    evaluate_design,
    evaluate_design_model_guided,
)
from repro.experiments.report import ExperimentResult
from repro.workloads.registry import make

DEFAULT_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


def run_fig09(
    actuals_rows: int = 120_000,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    seed: int = 11,
    t0: int = 1,
    alphas: tuple[float, ...] = (0.0, 0.25, 0.5),
    use_feedback: bool = True,
) -> ExperimentResult:
    inst = make("apb", seed=seed, actuals_rows=actuals_rows)
    base_bytes = inst.total_base_bytes()
    config = DesignerConfig(t0=t0, alphas=alphas, use_feedback=use_feedback)
    coradd = CoraddDesigner(
        inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs, config=config
    )
    commercial = CommercialDesigner(inst.flat_tables, inst.workload, inst.primary_keys)

    result = ExperimentResult(
        name="figure9",
        title="Total runtime of 31 APB-1 queries vs space budget (simulated seconds)",
        columns=[
            "budget_frac",
            "budget_mb",
            "coradd_real",
            "coradd_model",
            "commercial_real",
            "commercial_model",
            "speedup",
            "comm_model_error",
            "coradd_design",
            "commercial_design",
        ],
        paper_expectation=(
            "CORADD 1.5-3x faster in tight budgets, 5-6x in large; "
            "CORADD model ~= real; commercial model up to 6x optimistic"
        ),
    )
    # Serial design phase (feedback grows the pool budget-by-budget), then
    # one engine session for the whole evaluation sweep: masks, sorted heap
    # files and CMs are shared across budgets and both designers.
    budgets = budget_ladder(base_bytes, fractions)
    designs = [(coradd.design(b), commercial.design(b)) for b in budgets]

    with use_session():
        evaluated = [
            (
                evaluate_design(cd),
                evaluate_design_model_guided(md, commercial.oblivious_models),
            )
            for cd, md in designs
        ]
    for frac, budget, (cd, md) in zip(fractions, budgets, evaluated):
        result.add_row(
            budget_frac=frac,
            budget_mb=budget / (1 << 20),
            coradd_real=cd.real_total,
            coradd_model=cd.model_total,
            commercial_real=md.real_total,
            commercial_model=md.model_total,
            speedup=(
                md.real_total / cd.real_total if cd.real_total else float("inf")
            ),
            comm_model_error=(
                md.real_total / md.model_total if md.model_total else float("inf")
            ),
            coradd_design=cd.design.fingerprint(),
            commercial_design=md.design.fingerprint(),
        )
    result.notes.append(
        f"base database {base_bytes / (1 << 20):.0f} MB "
        f"({actuals_rows} actuals rows); budgets are fractions of it"
    )
    return result
