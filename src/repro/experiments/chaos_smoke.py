"""Chaos smoke: fault-injected sweep + interrupted migration.

CI runs this module to prove the fault-tolerance machinery stays wired
end-to-end (see :mod:`repro.engine.faults`):

* a 2-worker budget sweep runs with an injected **worker crash**
  (``FaultSpec("sweep.task", "crash", key=2)`` — the worker holding item 2
  dies with ``os._exit`` on every attempt): the supervisor must detect the
  deaths, requeue, respawn, degrade the poisoned item to the parent, and
  still produce results bit-identical to a serial sweep of the same
  ladder;
* a migration is **interrupted at a step boundary** (injected
  ``migration.step`` raise), then resumed through its
  :class:`~repro.design.migration.MigrationJournal` — the finished database
  must be bit-identical to an uninterrupted :meth:`DesignDiff.apply`;
* the trace artifact records the recovery: positive
  ``sweep.faults.worker_deaths`` / ``sweep.faults.requeues`` /
  ``sweep.faults.respawns`` / ``sweep.faults.parent_runs``, every
  dispatched item under ``sweep.steal.dispatched``, and
  ``migration.journal.resumes`` /
  ``migration.journal.commits`` counters (supervision asserts are skipped
  on platforms without ``fork``, where the sweep runs serially);
* the trace also counts every design and every query **exactly once**
  (``harness.designs_evaluated`` / ``harness.queries_executed``) although
  one item crashed its hosts, was requeued and finally ran in the parent:
  worker metrics come home on result messages, and an attempt that never
  answered contributes nothing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.migration import DesignDiff, MigrationJournal, execute_transition
from repro.engine import (
    EvalSession,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ParallelSweep,
    use_faults,
    use_session,
)
from repro.experiments.harness import evaluate_design
from repro.obs import observed
from repro.storage.executor import PhysicalDatabase
from repro.workloads.registry import make


def _assert_identical(a, b) -> None:
    assert a.real_seconds == b.real_seconds
    for qname, x in a.plans.items():
        y = b.plans[qname]
        assert x.plan == y.plan and x.object_name == y.object_name
        assert x.result.cost == y.result.cost
        assert np.array_equal(x.result.mask, y.result.mask)


def _assert_same_db(a: PhysicalDatabase, b: PhysicalDatabase, workload) -> None:
    assert list(a.objects) == list(b.objects)
    for q in workload:
        x, y = a.run(q), b.run(q)
        assert x.object_name == y.object_name, q.name
        assert x.plan == y.plan, q.name
        assert x.result.cost == y.result.cost, q.name
        assert np.array_equal(x.result.mask, y.result.mask), q.name


def run_chaos_smoke(path: str | Path = "TRACE_chaos_smoke.json") -> dict:
    """Run the crash-injected sweep and interrupted migration, write the
    trace artifact, verify its counters from disk."""
    inst = make("tpch", scale=0.05, seed=11)
    designer = CoraddDesigner(
        inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs,
        config=DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False),
    )
    base = inst.total_base_bytes()
    designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]

    with use_session(EvalSession()):
        serial = [evaluate_design(d) for d in designs]

    with observed("chaos-smoke") as obs:
        # --- crash-injected sweep -------------------------------------
        sweep = ParallelSweep(workers=2)
        plan = FaultPlan(FaultSpec("sweep.task", "crash", key=2))
        with use_faults(plan):
            parallel = sweep.map(
                evaluate_design, designs, session=EvalSession()
            )
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)
        if sweep.parallel:
            sup = sweep.last_stats["supervision"]
            assert sup["deaths"] > 0, sup
            assert sup["parent_runs"] >= 1, sup

        # --- interrupted-then-resumed migration -----------------------
        session = EvalSession()
        with use_session(session):
            d0 = designs[0]
            d1 = designs[2]
            db = d0.materialize(session)
            db_ref = PhysicalDatabase()
            db_ref.objects = dict(db.objects)
            ref = DesignDiff(d0, d1).apply(db_ref, session=session)

            journal = MigrationJournal()
            died = False
            with use_faults(FaultPlan(FaultSpec("migration.step", "raise", key=1))):
                try:
                    execute_transition(
                        DesignDiff(d0, d1), db, session=session, journal=journal
                    )
                except InjectedFault:
                    died = True
            assert died, "migration fault never fired (empty plan?)"
            assert journal.in_progress and journal.completed == 1
            report = journal.resume(DesignDiff(d0, d1), db, session=session)
            assert journal.state == "committed"
            _assert_same_db(ref, report.final_db, d1.workload)

    written = obs.write(path)
    trace = json.loads(written.read_text())
    counters = trace["metrics"]["counters"]
    assert counters.get("migration.journal.resumes", 0) >= 1, counters
    assert counters.get("migration.journal.commits", 0) >= 1, counters
    assert counters.get("migration.journal.steps", 0) >= 1, counters
    assert counters.get("faults.injected.raise", 0) >= 1, counters
    assert counters.get("harness.designs_evaluated", 0) == len(designs), counters
    assert counters.get("harness.queries_executed", 0) == (
        len(designs) * len(inst.workload)
    ), counters
    if sweep.parallel:
        assert counters.get("sweep.faults.worker_deaths", 0) > 0, counters
        assert counters.get("sweep.faults.requeues", 0) > 0, counters
        assert counters.get("sweep.faults.respawns", 0) > 0, counters
        assert counters.get("sweep.faults.parent_runs", 0) >= 1, counters
        assert counters.get("sweep.steal.dispatched", 0) == len(designs) - 1
    return trace


if __name__ == "__main__":
    trace = run_chaos_smoke()
    counters = trace["metrics"]["counters"]
    print(
        "chaos smoke OK: "
        f"{counters.get('sweep.faults.worker_deaths', 0):.0f} worker deaths "
        "recovered, "
        f"{counters.get('sweep.faults.parent_runs', 0):.0f} parent fallbacks, "
        f"{counters.get('migration.journal.resumes', 0):.0f} migration "
        "resume(s)"
    )
    if os.environ.get("REPRO_KEEP_TRACE", "0") != "1":
        Path("TRACE_chaos_smoke.json").unlink()
