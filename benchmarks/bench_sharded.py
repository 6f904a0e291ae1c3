"""Sharded physical database: pruning I/O, design wins, parallel identity.

One bench over the ``ssb-sharded`` registry variant (correlation-chosen
shard key, 8 range shards), three measurement groups:

* **pruning arm** — the shard-key-correlated predicate suite (every SSB
  query whose predicates the shard map + zone maps localize; the
  uncorrelated remainder is recorded, never silently dropped).  Each suite
  query must answer **bit-identically** to the unsharded reference heap
  file, every surviving shard's ``(plan, cost)`` must equal an independent
  per-shard evaluation with the costs summing exactly to the aggregate,
  and the suite-wide modeled pages scanned must shrink **>= 3x**.  Pages
  scanned is an I/O-model metric — core-count independent, asserted on
  every box including smoke runs;
* **ILP arm** — shard-local MV candidates priced next to global ones under
  a skewed hot-shard frequency mix: the objective must be no worse at
  every budget on a ladder (the feasible set only grows) and strictly
  better on at least one tight budget, where a shard-local MV covers the
  hot shard for a fraction of the global MV's bytes;
* **shard-parallel arm** — :func:`run_workload_shard_parallel` over a
  2-worker steal pool returns exactly the serial plan choices (plan
  strings, cost dataclasses and masks compare equal, not approx).
  Wall-clock is recorded for the trajectory, never asserted: the tasks
  are model evaluations, so the win is scheduling, not arithmetic.

Results are printed and written machine-readably to
``benchmarks/results/BENCH_sharded.json``.  ``REPRO_SMOKE=1`` shrinks the
scale; every assertion above still runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import (
    RESULTS_DIR,
    cpu_count,
    full_scale,
    make_benchmark,
    run_once,
)

FACT = "lineorder"
SHARDS = 8


def _smoke() -> bool:
    return os.environ.get("REPRO_SMOKE", "0") == "1"


def _scale() -> float:
    if full_scale():
        return 0.2
    return 0.02 if _smoke() else 0.05


def _selected_sources(hf, result) -> np.ndarray:
    return np.sort(np.asarray(hf.source_rowids)[result.mask])


def bench_sharded(benchmark, save_report, observe):
    from repro.costmodel.base import ObjectGeometry
    from repro.costmodel.correlation_aware import CorrelationAwareCostModel
    from repro.design.ilp_formulation import DesignProblem, choose_candidates
    from repro.design.mv import CandidateSet, MVCandidate, mv_size_bytes
    from repro.design.shard_candidates import ShardCandidateEnumerator
    from repro.engine import EvalSession, ParallelSweep, use_session
    from repro.experiments.report import ExperimentResult
    from repro.stats.collector import TableStatistics
    from repro.storage.disk import DiskModel
    from repro.storage.executor import PhysicalDatabase, PhysicalObject
    from repro.storage.layout import HeapFile
    from repro.storage.sharded import (
        run_workload_shard_parallel,
        shard_best_plan,
        sharded_fact_object,
    )

    inst = make_benchmark("ssb-sharded", scale=_scale(), seed=7,
                          shards=SHARDS)
    spec = inst.sharding[FACT]
    flat = inst.flat_tables[FACT]
    disk = DiskModel()
    db = PhysicalDatabase(
        [sharded_fact_object(flat, FACT, inst.primary_keys[FACT], spec,
                             disk)]
    )
    ref = PhysicalDatabase(
        [PhysicalObject(HeapFile(flat, tuple(inst.primary_keys[FACT]), disk,
                                 name=FACT))]
    )
    shf = db.object(FACT).heapfile
    ref_hf = ref.object(FACT).heapfile

    def pruning_arm():
        suite, uncorrelated, rows = [], [], []
        ref_pages = sharded_pages = 0
        for q in inst.workload:
            res = db.run(q).result
            res_ref = ref.run(q).result
            assert np.array_equal(
                _selected_sources(shf, res),
                _selected_sources(ref_hf, res_ref),
            ), f"{q.name}: sharded answer diverges from unsharded"
            # Every surviving shard's (plan, cost) equals an independent
            # per-shard evaluation, and the costs sum exactly to the total.
            total = type(res.cost)(0.0, 0, 0, 0)
            for d in res.shard_details:
                solo = shard_best_plan(shf, d.shard, q)
                assert d.plan == solo.plan and d.cost == solo.cost
                total = total + d.cost
            assert total == res.cost
            if res.shards_scanned == res.shards_total:
                uncorrelated.append(q.name)
                continue
            suite.append(q)
            ref_pages += res_ref.cost.pages_read
            sharded_pages += res.cost.pages_read
            rows.append({
                "query": q.name,
                "shards_scanned": res.shards_scanned,
                "pages_unsharded": res_ref.cost.pages_read,
                "pages_sharded": res.cost.pages_read,
                "pages_avoided": res.pages_avoided,
            })
        assert suite, "no workload query correlated with the shard key"
        reduction = ref_pages / max(1, sharded_pages)
        return {
            "shard_key": spec.key,
            "scheme": spec.scheme,
            "shards": spec.shards,
            "suite_queries": [q.name for q in suite],
            "uncorrelated_queries": uncorrelated,
            "pages_unsharded": ref_pages,
            "pages_sharded": sharded_pages,
            "pages_reduction": round(reduction, 2),
            "per_query": rows,
        }, suite

    def ilp_arm(suite):
        # Skewed hot-shard mix: queries the shard map localizes to a single
        # shard dominate the frequency mass; the rest stay background.
        mix = []
        for q in suite:
            surv = shf.shards_for_query(q)
            freq = 10.0 if len(surv) == 1 else 1.0
            mix.append(type(q)(
                q.name, q.fact_table, q.predicates, q.aggregates,
                q.group_by, q.order_by, frequency=freq,
            ))
        stats = TableStatistics(flat, synopsis_rows=2048, seed=7)
        model = CorrelationAwareCostModel(stats, disk)
        enum = ShardCandidateEnumerator(FACT, shf, mix, disk)
        base = enum.base_seconds()

        def add_global(cands):
            for q in mix:
                key = tuple(p.attr for p in
                            sorted(q.predicates, key=lambda p: p.kind))
                attrs = key + tuple(a for a in q.attributes()
                                    if a not in key)
                c = MVCandidate(
                    cands.next_id("gmv"), FACT, frozenset([q.name]),
                    attrs, key, mv_size_bytes(stats, disk, attrs, key),
                )
                g = ObjectGeometry.from_attrs(stats, disk, attrs, key)
                for q2 in mix:
                    if c.covers(q2):
                        c.runtimes[q2.name] = model.query_seconds(g, q2)
                cands.add(c)

        global_only = CandidateSet()
        add_global(global_only)
        with_shards = CandidateSet()
        add_global(with_shards)
        enum.add_shard_candidates(with_shards)
        sizes = sorted(c.size_bytes for c in global_only)
        budgets = [sizes[0] // 2, sizes[0], sum(sizes) // 2, sum(sizes)]
        ladder, strict_win = [], False
        for budget in budgets:
            dg = choose_candidates(
                DesignProblem(global_only, mix, base, budget))
            ds = choose_candidates(
                DesignProblem(with_shards, mix, base, budget))
            assert ds.objective <= dg.objective + 1e-9, (
                f"budget {budget}: shard candidates made the design worse"
            )
            win = ds.objective < dg.objective - 1e-9
            strict_win = strict_win or win
            ladder.append({
                "budget_bytes": budget,
                "objective_global": round(dg.objective, 6),
                "objective_with_shards": round(ds.objective, 6),
                "strict_win": win,
            })
        assert strict_win, "no budget where shard-local candidates won"
        return {
            "candidates_global": len(global_only),
            "candidates_with_shards": len(with_shards),
            "hot_queries": [q.name for q in mix if q.frequency > 1.0],
            "ladder": ladder,
        }

    def parallel_arm():
        # Time an execution, not a replay of the pruning arm's plan memo.
        db.invalidate_plans()
        with use_session(EvalSession()) as session:
            t0 = time.perf_counter()
            serial = {q.name: db.run(q) for q in inst.workload}
            serial_s = time.perf_counter() - t0
            sweep = ParallelSweep(workers=2)
            t0 = time.perf_counter()
            parallel = run_workload_shard_parallel(
                db, inst.workload, sweep, session=session
            )
            parallel_s = time.perf_counter() - t0
        for name, s in serial.items():
            p = parallel[name]
            assert p.object_name == s.object_name and p.plan == s.plan
            assert p.result.cost == s.result.cost
            assert np.array_equal(p.result.mask, s.result.mask)
        return {
            "workers": sweep.workers,
            "parallel": sweep.parallel,
            "serial_wall_seconds": round(serial_s, 3),
            "parallel_wall_seconds": round(parallel_s, 3),
            "identical_plans_costs_masks": True,
        }

    def all_arms():
        pruning, suite = pruning_arm()
        return pruning, ilp_arm(suite), parallel_arm()

    pruning, ilp, par = run_once(benchmark, all_arms)

    payload = {
        "bench": "sharded",
        "workload": "ssb-sharded",
        "queries": len(inst.workload),
        "scale": _scale(),
        "cpu_count": cpu_count(),
        "smoke": _smoke(),
        "pruning": pruning,
        "ilp": ilp,
        "shard_parallel": par,
        "bit_identical_answers": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = Path(RESULTS_DIR) / "BENCH_sharded.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    result = ExperimentResult(
        name="sharded",
        title=(
            f"SSB on {SHARDS} range shards (key {spec.key!r}): "
            "predicate-driven pruning vs the unsharded heap file"
        ),
        columns=[
            "query", "shards_scanned", "pages_unsharded", "pages_sharded",
            "reduction",
        ],
        paper_expectation=(
            "beyond the paper: correlated-suite pages scanned >= 3x smaller "
            "under pruning, bit-identical answers, shard-local ILP "
            "candidates never worse and strictly better on a hot-shard mix"
        ),
    )
    for row in pruning["per_query"]:
        result.add_row(
            query=row["query"],
            shards_scanned=f"{row['shards_scanned']}/{SHARDS}",
            pages_unsharded=row["pages_unsharded"],
            pages_sharded=row["pages_sharded"],
            reduction=round(
                row["pages_unsharded"] / max(1, row["pages_sharded"]), 2
            ),
        )
    wins = sum(1 for step in ilp["ladder"] if step["strict_win"])
    result.notes.append(
        f"scale {_scale()}, cpu_count={cpu_count()}; suite pages "
        f"{pruning['pages_unsharded']} -> {pruning['pages_sharded']} "
        f"({pruning['pages_reduction']}x); uncorrelated (full-scan) queries: "
        f"{', '.join(pruning['uncorrelated_queries']) or 'none'}; ILP "
        f"strict wins at {wins}/{len(ilp['ladder'])} budgets; shard-parallel "
        f"bit-identical at {par['workers']} workers; JSON: {out_path.name}"
    )
    save_report(result)

    # The tentpole bar: an I/O-model metric, asserted unconditionally.
    assert pruning["pages_reduction"] >= 3.0, (
        f"pruning reduced pages only {pruning['pages_reduction']}x"
    )
