"""The four workloads: what each sets up from a seed and what a pass runs.

Every workload goes through the public API only.  ``setup`` builds the
inputs from the seed (it is timed as ``setup_s``); ``run`` is the pipeline,
every step inside a ``Recorder.phase``.  Each workload carries two sizings:
``full`` (what ``BENCHMARK.json`` measures) and ``tiny`` (the smoke test).

The database of every workload is the registry's canonical instance.  The
seed draws what differs between two days of one warehouse: which queries
were observed how often (a resampled log, a sample of executions) and which
rows arrive and leave.  It does not draw a new database: solve time is
chaotic in the instance (another data seed moves one ILP solve by 2x), so a
fresh instance per seed would need ten times the run time to average out.

``repro`` is imported inside the functions: its import is part of set-up,
and this module must load where ``repro`` is absent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.recorder import Recorder

#: Processes in the one phase group that forks (this box has 2 cores).
WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Inputs:
    """What ``setup`` hands to ``run``: the generated instance, the oracle's
    reference columns, and anything else derived from the seed."""

    inst: object
    oracle: Oracle
    extra: dict = field(default_factory=dict)


def _designer(inst, workload, config, recluster_facts: bool = True):
    from repro.design.designer import CoraddDesigner

    return CoraddDesigner(
        inst.flat_tables, workload, inst.primary_keys,
        inst.fk_attrs if recluster_facts else {}, config=config,
    )


def _budgets(inst, fractions):
    from repro.experiments.harness import budget_ladder

    return budget_ladder(inst.total_base_bytes(), tuple(fractions))


def _observed(workload, executions: int, seed: int):
    """``workload`` with the frequencies a seed-drawn sample of ``executions``
    shows when every query is equally likely (mean frequency stays 1)."""
    from repro.relational.query import Workload as QueryWorkload

    queries = list(workload)
    counts = np.random.default_rng(seed).multinomial(
        executions, [1.0 / len(queries)] * len(queries)
    )
    return QueryWorkload(
        workload.name,
        [
            q.with_frequency(q.frequency * n * len(queries) / executions)
            for q, n in zip(queries, counts)
        ],
    )


def _enumerate(rec: Recorder, designer) -> None:
    with rec.phase("design.enumerate_s"):
        designer.enumerate()
    stats = designer.enumeration_stats
    rec.counts["design.candidates_enumerated"] += stats["enumerated"]
    rec.counts["design.candidates_after_domination"] += stats["after_domination"]


def _deploy_and_evaluate(rec: Recorder, designs, workload) -> None:
    """Materialize a ladder on one session, run ``workload`` on each
    database, check every answer."""
    from repro.engine import use_session

    session = rec.session()
    with rec.phase("engine.materialize_s"):
        dbs = [design.materialize(session) for design in designs]
    for design, db in zip(designs, dbs):
        rec.score_design(design)
        with rec.phase("engine.evaluate_s"), use_session(session):
            choices = db.run_workload(workload)
        rec.score_evaluation(db, workload, choices)


# ------------------------------------------------------------- log-design


def setup_log_design(size: dict, seed: int) -> Inputs:
    from repro.workloads.registry import make

    inst = make("tpch-log", scale=size["scale"], log_queries=size["log_queries"])
    # Another day's log from the same population of users: a seed-drawn
    # resample (with replacement) of the canonical log's events.
    log = inst.log
    draw = np.random.default_rng(seed).integers(0, len(log), size=len(log))
    inst.log = replace(
        log, template_ids=log.template_ids[draw], slots=log.slots[draw]
    )
    return Inputs(inst, Oracle(inst.flat_tables))


def run_log_design(size: dict, inputs: Inputs, rec: Recorder) -> None:
    from repro.design.designer import DesignerConfig
    from repro.stats.collector import TableStatistics
    from repro.workloads.compress import compress_workload, dedup_log

    inst = inputs.inst
    config = DesignerConfig(use_feedback=False, max_k=size["max_k"])
    with rec.phase("workloads.dedup_s"):
        deduped = dedup_log(inst.log)
    rec.counts["workloads.dedup_ratio"] = deduped.ratio
    with rec.phase("stats.profile_s"):
        stats = {
            fact: TableStatistics(
                table, synopsis_rows=config.synopsis_rows, seed=config.seed
            )
            for fact, table in inst.flat_tables.items()
        }
    with rec.phase("workloads.compress_s"):
        compressed = compress_workload(
            deduped.workload, stats,
            max_representatives=size["representatives"],
        )
    rec.counts["workloads.representatives"] = compressed.n_representatives
    with rec.phase("stats.profile_s"):
        designer = _designer(inst, compressed.workload, config)
    _enumerate(rec, designer)
    with rec.phase("design.solve_s"):
        designs = designer.design_ladder(_budgets(inst, size["budgets"]))
    # Quality is what the *whole* deduped log pays, not the representatives.
    _deploy_and_evaluate(rec, designs, deduped.workload)


# ----------------------------------------------------------- ilp-feedback


def setup_ilp_feedback(size: dict, seed: int) -> Inputs:
    from repro.workloads.registry import make

    inst = make("tpch", scale=size["scale"])
    inst.workload = _observed(inst.workload, size["executions"], seed)
    return Inputs(inst, Oracle(inst.flat_tables))


def run_ilp_feedback(size: dict, inputs: Inputs, rec: Recorder) -> None:
    from repro.design.designer import DesignerConfig

    inst = inputs.inst
    with rec.phase("stats.profile_s"):
        designer = _designer(inst, inst.workload, DesignerConfig())
    _enumerate(rec, designer)
    designs = []
    for budget in _budgets(inst, size["budgets"]):
        # Serial by construction: each solve's feedback rounds grow the pool
        # the next budget sees (the paper's Figure 7 loop).
        with rec.phase("design.solve_s"):
            designs.append(designer.design(budget))
    _deploy_and_evaluate(rec, designs, inst.workload)


# ----------------------------------------------------------- engine-sweep


def setup_engine_sweep(size: dict, seed: int) -> Inputs:
    from repro.workloads.registry import make

    inst = make("ssb-sharded", scale=size["scale"], shards=size["shards"])
    inst.workload = _observed(inst.workload, size["executions"], seed)
    return Inputs(inst, Oracle(inst.flat_tables))


def run_engine_sweep(size: dict, inputs: Inputs, rec: Recorder) -> None:
    from repro.design.designer import DesignerConfig
    from repro.engine import ParallelSweep, use_session
    from repro.experiments.harness import evaluate_designs
    from repro.storage.executor import PhysicalDatabase
    from repro.storage.sharded import (
        run_workload_shard_parallel,
        sharded_fact_object,
    )

    inst = inputs.inst
    workload = inst.workload
    # A deliberately cheap design: this workload is about the engine.
    config = DesignerConfig(alphas=(0.0,), max_k=size["max_k"], use_feedback=False)
    with rec.phase("stats.profile_s"):
        designer = _designer(inst, workload, config)
    _enumerate(rec, designer)
    with rec.phase("design.solve_s"):
        designs = designer.design_ladder(_budgets(inst, size["budgets"]))
    for design in designs:
        rec.score_design(design)

    # The same ladder evaluated twice, each time on a cold session: serially,
    # then over forked workers.  Same work, two ways through the engine.
    # A session that went through a forked sweep is not read again: its heap
    # files were rebound to a shared-memory arena the sweep has since freed.
    # The sweeps build their databases internally, so answers are checked on
    # a re-materialization from the serial session (cache hits, identical
    # layout), outside the timed region.
    serial_session = rec.session()
    with rec.phase("engine.evaluate_s"):
        serial = evaluate_designs(designs, workers=1, session=serial_session)
    with rec.phase("engine.parallel.sweep_s"):
        parallel = evaluate_designs(
            designs, workers=WORKERS, session=rec.session()
        )
    for design, ev_serial, ev_parallel in zip(designs, serial, parallel):
        db = design.materialize(serial_session)
        rec.score_evaluation(db, workload, ev_serial.plans)
        rec.score_evaluation(db, workload, ev_parallel.plans)

    (fact, spec), = inst.sharding.items()

    def build_sharded():
        return PhysicalDatabase([
            sharded_fact_object(
                inst.flat_tables[fact], fact, inst.primary_keys[fact], spec
            )
        ])

    with rec.phase("storage.shard.build_s"):
        sharded_db = build_sharded()
    with rec.phase("storage.shard.run_s"), use_session(rec.session()):
        choices = sharded_db.run_workload(workload)
    rec.score_evaluation(sharded_db, workload, choices, prefix="storage.shard")
    witness_db = build_sharded()  # untimed twin: the sweep frees the original
    with rec.phase("storage.shard.parallel_s"):
        choices = run_workload_shard_parallel(
            sharded_db, workload, ParallelSweep(workers=WORKERS),
            session=rec.session(),
        )
    rec.score_evaluation(witness_db, workload, choices, prefix="storage.shard")


# -------------------------------------------------------- refresh-migrate

_LINEITEM = ("lineitem", ("l_orderkey", "l_linenumber"), "o_orderdate")


def setup_refresh_migrate(size: dict, seed: int) -> Inputs:
    from repro.workloads.refresh import RefreshStream
    from repro.workloads.registry import make

    inst = make("tpch-drift", scale=size["scale"], phases=size["phases"])
    fact, key_attrs, recency_attr = _LINEITEM
    per_phase = 2 * size["batches"]  # applied directly + during the migration
    stream = RefreshStream(
        inst.flat_tables[fact], fact, key_attrs, recency_attr,
        rounds=(size["phases"] - 1) * per_phase // 2,
        insert_fraction=size["insert_fraction"],
        delete_fraction=size["insert_fraction"] / 2, seed=seed,
    )
    # The canonical drift, each phase with its own observed frequencies.
    workloads = [
        _observed(phase.workload, size["executions"], seed + phase.index)
        for phase in inst.stream.phases()
    ]
    return Inputs(
        inst, Oracle(inst.flat_tables),
        {"batches": stream.batches(), "workloads": workloads},
    )


def run_refresh_migrate(size: dict, inputs: Inputs, rec: Recorder) -> None:
    from repro.design.designer import DesignerConfig
    from repro.design.migration import (
        DesignDiff,
        MigrationJournal,
        execute_transition,
    )
    from repro.engine import use_session
    from repro.storage.update import RefreshExecutor

    inst, oracle = inputs.inst, inputs.oracle
    workloads = inputs.extra["workloads"]
    pending = list(inputs.extra["batches"])
    # The update mix the designer prices is the one the stream delivers:
    # inserts per base row over one phase.
    config = DesignerConfig(
        use_feedback=False, t0=1,
        update_weight=size["batches"] * size["insert_fraction"],
    )
    budget = max(1, int(inst.total_base_bytes() * size["budget"]))
    session = rec.session()

    def evaluate(db, workload):
        with rec.phase("engine.evaluate_s"), use_session(session):
            choices = db.run_workload(workload)
        rec.score_evaluation(db, workload, choices)

    workload = workloads[0]
    # No fact re-clustering here: a migration that rebuilds the fact itself
    # drops it first and then prices the workload on a database with nothing
    # left to answer it, which raises.
    with rec.phase("stats.profile_s"):
        designer = _designer(inst, workload, config, recluster_facts=False)
    _enumerate(rec, designer)
    with rec.phase("design.solve_s"):
        design = designer.design(budget)
    rec.score_design(design)
    with rec.phase("engine.materialize_s"):
        db = design.materialize(session)
    executor = RefreshExecutor(db, session=session, compaction="tail-merge")
    evaluate(db, workload)

    for next_workload in workloads[1:]:
        batches, pending = pending[:size["batches"]], pending[size["batches"]:]
        for batch in batches:
            with rec.phase("storage.refresh_s"):
                outcome = executor.apply(batch)
            rec.score_refresh(outcome)
            oracle.apply(batch)
        evaluate(db, workload)  # the old design over the refreshed data

        workload = next_workload
        with rec.phase("design.update_s"):
            new_design = designer.update(workload)
        rec.check(new_design.size_bytes <= budget)
        rec.check(new_design.ilp.status == "optimal")
        batches, pending = pending[:size["batches"]], pending[size["batches"]:]
        with rec.phase("design.migration.transition_s"):
            report = execute_transition(
                DesignDiff(design, new_design), db, session=session,
                refreshes=batches, refresh_executor=executor,
                journal=MigrationJournal(),
            )
        for batch in batches:  # all consumed: one per build, the rest after
            oracle.apply(batch)
        rec.counts["design.migration.steps"] += len(report.steps)
        # What the workload paid while the migration ran is part of quality;
        # what the builds and the interleaved refreshes cost is maintenance.
        rec.workload_model_s += report.query_seconds
        rec.maintenance_model_s += report.build_seconds + report.refresh_seconds
        design = new_design
        evaluate(db, workload)

    with rec.phase("storage.refresh_s"):
        rec.maintenance_model_s += executor.flush()


# ------------------------------------------------------------------ table


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    setup: object
    run: object
    full: dict
    tiny: dict


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadSpec(
            "log-design",
            "design-server path: a Zipf query log is deduped, compressed and "
            "designed for; enumeration, cost model and layout estimates "
            "dominate, the ILP is light",
            setup_log_design, run_log_design,
            full=dict(scale=0.25, log_queries=4_000_000, representatives=20,
                      max_k=12, budgets=(0.25, 0.5, 1.0, 2.0)),
            tiny=dict(scale=0.02, log_queries=5_000, representatives=6,
                      max_k=3, budgets=(0.5, 2.0)),
        ),
        WorkloadSpec(
            "ilp-feedback",
            "the paper's own loop: 12 TPC-H queries, default config with ILP "
            "feedback on the branch-and-bound backend; ILP formulation and "
            "solves dominate, the engine is small",
            setup_ilp_feedback, run_ilp_feedback,
            full=dict(scale=0.25, executions=4_000_000,
                      budgets=(0.5, 1.0, 2.0, 3.0, 4.0)),
            tiny=dict(scale=0.02, executions=1_000, budgets=(2.0, 4.0)),
        ),
        WorkloadSpec(
            "engine-sweep",
            "a cheap design, then the same SSB ladder evaluated serially, "
            "over forked workers and on 8 shards; CM builds, engine and "
            "storage dominate, design is small",
            setup_engine_sweep, run_engine_sweep,
            full=dict(scale=0.25, shards=8, max_k=4, executions=4_000_000,
                      budgets=(0.25, 0.5, 1.0, 2.0)),
            tiny=dict(scale=0.02, shards=4, max_k=2, executions=1_000,
                      budgets=(0.5, 2.0)),
        ),
        WorkloadSpec(
            "refresh-migrate",
            "writes beside reads: a drifting TPC-H workload is redesigned "
            "incrementally and migrated while insert/delete batches land; "
            "refresh, update() and migration dominate",
            setup_refresh_migrate, run_refresh_migrate,
            full=dict(scale=0.25, phases=4, batches=8, budget=1.0,
                      insert_fraction=0.005, executions=4_000_000),
            tiny=dict(scale=0.02, phases=2, batches=2, budget=1.0,
                      insert_fraction=0.01, executions=1_000),
        ),
    )
}
