"""Fault injection, sweep recovery, and crash-safe migrations.

The robustness contract: under *any* deterministic fault schedule —
worker crashes, per-item exceptions, hangs, mid-migration death — the
system degrades instead of corrupting, and every recovered
result is bit-identical to the fault-free serial run.  Covers:

* :class:`~repro.engine.faults.FaultPlan` semantics (matching, ``at`` /
  ``times`` windows, seeded random schedules);
* the sweep's one recovery rule (an item a worker does not bring home runs
  in the parent) under crashes, exceptions, a broken pool and unpicklable
  results, and pipe hygiene;
* :class:`~repro.design.migration.MigrationJournal`: resume *and*
  rollback after death at **every** step boundary, refresh batches
  consumed exactly once across an interrupt.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.design.migration import (
    DesignDiff,
    MigrationJournal,
    execute_transition,
)
from repro.engine import (
    EvalSession,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ParallelSweep,
    fork_available,
    get_faults,
    use_faults,
    use_session,
)
from repro.relational.query import Workload
from repro.storage.executor import PhysicalDatabase
from repro.storage.update import RefreshExecutor
from repro.workloads.registry import make

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)


def _square(x: int) -> int:
    return x * x


ITEMS = list(range(10))
EXPECTED = [_square(x) for x in ITEMS]


# ------------------------------------------------------------------ fault plans


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("sweep.task", "explode")

    def test_site_and_key_matching(self):
        plan = FaultPlan(FaultSpec("sweep.task", "raise", key=3))
        assert plan.fire("sweep.probe", key=3) is None
        assert plan.fire("sweep.task", key=2) is None
        with pytest.raises(InjectedFault) as err:
            plan.fire("sweep.task", key=3)
        assert err.value.site == "sweep.task" and err.value.key == 3

    # A zero-second hang returns its spec at once: the window tests below
    # see exactly when a rule fires.

    def test_keyless_spec_matches_every_key(self):
        plan = FaultPlan(FaultSpec("migration.step", "hang", delay_s=0.0))
        assert plan.fire("migration.step").kind == "hang"
        assert plan.fire("migration.step", key="anything").kind == "hang"

    def test_at_window(self):
        plan = FaultPlan(FaultSpec("migration.step", "hang", at=1, delay_s=0.0))
        assert plan.fire("migration.step") is None  # hit 0: skipped
        assert plan.fire("migration.step") is not None  # hit 1: fires
        assert plan.fire("migration.step") is None  # hit 2: past the window

    def test_times_cap(self):
        plan = FaultPlan(
            FaultSpec("migration.step", "hang", times=2, delay_s=0.0)
        )
        assert plan.fire("migration.step") is not None
        assert plan.fire("migration.step") is not None
        assert plan.fire("migration.step") is None

    def test_advisory_kinds_return_spec(self):
        """A kind that does not abort the site hands the matched spec back."""
        plan = FaultPlan(FaultSpec("migration.step", "hang", key=2, delay_s=0.0))
        assert plan.fire("migration.step", key=1) is None
        spec = plan.fire("migration.step", key=2)
        assert spec is not None and spec.kind == "hang"

    def test_ambient_scope(self):
        assert get_faults() is None
        plan = FaultPlan(FaultSpec("migration.step", "raise"))
        with use_faults(plan):
            assert get_faults() is plan
        assert get_faults() is None

    def test_random_schedules_are_seed_deterministic(self):
        a = FaultPlan.random(7, n_items=32, rate=0.4)
        b = FaultPlan.random(7, n_items=32, rate=0.4)
        assert a.describe() == b.describe()
        others = {FaultPlan.random(s, n_items=32, rate=0.4).describe()
                  for s in range(8)}
        assert len(others) > 1  # seeds actually vary the schedule


# ---------------------------------------------------------- sweep recovery


@needs_fork
class TestSupervisedSweep:
    """The sweep's one recovery rule: an item a worker does not bring home
    runs in the parent, where fault sites do not fire."""

    def _run(self, plan, workers=2):
        sweep = ParallelSweep(workers=workers)
        with use_faults(plan):
            results = sweep.map(_square, ITEMS)
        return results, sweep.last_stats["parent_runs"]

    def test_persistent_crash_degrades_to_parent(self):
        results, parent_runs = self._run(
            FaultPlan(FaultSpec("sweep.task", "crash", key=3))
        )
        assert results == EXPECTED
        # The crash breaks the pool; item 3, and whatever else had not come
        # home by then, runs in the parent.
        assert parent_runs >= 1

    def test_item_exception_requeues_and_completes(self):
        results, parent_runs = self._run(
            FaultPlan(FaultSpec("sweep.task", "raise", key=5, times=1))
        )
        assert results == EXPECTED
        # An exception costs its own item only: the pool stays up.
        assert parent_runs == 1

    def test_total_collapse_finishes_serially_in_parent(self):
        results, parent_runs = self._run(
            FaultPlan(FaultSpec("sweep.task", "crash")),  # every task
        )
        assert results == EXPECTED
        assert parent_runs == len(ITEMS)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_schedules_stay_exact(self, seed):
        plan = FaultPlan.random(
            seed, n_items=len(ITEMS), kinds=("crash", "raise"), rate=0.3
        )
        results, _ = self._run(plan, workers=3)
        assert results == EXPECTED

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("sweep.task", "crash", key=3),
            FaultSpec("sweep.task", "raise", key=5, times=1),
            FaultSpec("sweep.task", "crash"),
        ],
        ids=["crash", "raise", "collapse"],
    )
    def test_recovery_counters_equal_the_supervision_record(self, spec):
        """Every item the parent runs is counted once in ``last_stats``,
        and every handed-out item is answered by a worker or by the
        parent, never both."""
        sweep = ParallelSweep(workers=2)
        with use_faults(FaultPlan(spec)):
            results = sweep.map(_square, ITEMS)
        stats = sweep.last_stats
        assert results == EXPECTED
        assert stats["parent_runs"] >= 1  # the schedule did fire
        assert stats["tasks"] == len(ITEMS)
        assert sum(stats["worker_tasks"]) + stats["parent_runs"] == len(ITEMS)

    def test_unshippable_result_is_rerun_in_the_parent(self):
        """A result that cannot be pickled never comes home; the item runs
        in the parent, where nothing has to be pickled."""
        sweep = ParallelSweep(workers=2)
        results = sweep.map(lambda x: (lambda: x) if x == 4 else x, ITEMS)
        assert results[4]() == 4
        assert results[:4] + results[5:] == ITEMS[:4] + ITEMS[5:]
        assert sweep.last_stats["parent_runs"] == 1

    def test_randomized_hangs_stay_exact(self):
        plan = FaultPlan.random(
            11, n_items=len(ITEMS), kinds=("hang",), rate=0.2, delay_s=0.05
        )
        assert plan.specs  # seed 11 draws at least one hang
        results, parent_runs = self._run(plan)
        assert results == EXPECTED
        assert parent_runs == 0  # a hang only delays its item


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@needs_fork
@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestPipeHygiene:
    """A forked ``map`` leaves no worker process and no pipe end behind,
    whether it returns or raises."""

    def test_shutdown_closes_every_pipe_end(self):
        before = _open_fds()
        assert ParallelSweep(workers=2).map(_square, ITEMS) == EXPECTED
        gc.collect()
        assert not mp.active_children()
        assert _open_fds() == before

    def test_terminate_closes_every_pipe_end(self):
        def fail(x):
            raise ValueError(x)

        before = _open_fds()
        # Every worker attempt fails, and so does the parent's rerun.
        with pytest.raises(ValueError):
            ParallelSweep(workers=2).map(fail, ITEMS)
        gc.collect()
        assert not mp.active_children()
        assert _open_fds() == before


# ----------------------------------------------- design sweeps under faults


@pytest.fixture(scope="module")
def tpch_designs():
    inst = make("tpch", scale=0.05, seed=3)
    designer = CoraddDesigner(
        inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs,
        config=DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False),
    )
    base = inst.total_base_bytes()
    return [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5)]


def _assert_identical(a, b):
    assert a.real_seconds == b.real_seconds
    for qname, x in a.plans.items():
        y = b.plans[qname]
        assert x.plan == y.plan and x.object_name == y.object_name
        assert x.result.cost == y.result.cost
        assert np.array_equal(x.result.mask, y.result.mask)


@needs_fork
class TestFaultySweepIdentity:
    def test_crashing_ladder_sweep_is_bit_identical(self, tpch_designs):
        from repro.experiments.harness import evaluate_design

        with use_session(EvalSession()):
            serial = [evaluate_design(d) for d in tpch_designs]
        sweep = ParallelSweep(workers=2)
        with use_faults(FaultPlan(FaultSpec("sweep.task", "crash", key=1))):
            parallel = sweep.map(
                evaluate_design, tpch_designs, session=EvalSession()
            )
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)
        assert sweep.last_stats["parent_runs"] >= 1


# ------------------------------------------------------- crash-safe migration


@pytest.fixture(scope="module")
def migration_world():
    """Two ssb-refresh designs, their materialized db, and a warm session."""
    inst = make(
        "ssb-refresh", lineorder_rows=6_000, seed=3, rounds=2,
        insert_fraction=0.04, delete_fraction=0.02,
    )
    budget = int(inst.total_base_bytes() * 0.6)
    session = EvalSession()
    with use_session(session):
        queries = list(inst.workload)
        designer = CoraddDesigner(
            inst.flat_tables, Workload("p0", queries[:8]), inst.primary_keys,
            inst.fk_attrs,
            config=DesignerConfig(t0=1, alphas=(0.0, 0.25), use_feedback=False),
        )
        d0 = designer.design(budget)
        db0 = d0.materialize(session)
        d1 = designer.update(Workload("p1", queries[3:12]), budget)
    return inst, d0, d1, db0, session


def _copy_db(db0):
    db = PhysicalDatabase()
    db.objects = dict(db0.objects)
    return db


def _assert_same_db(a, b, workload):
    assert list(a.objects) == list(b.objects)
    for q in workload:
        x, y = a.run(q), b.run(q)
        assert x.object_name == y.object_name, q.name
        assert x.plan == y.plan, q.name
        assert x.result.cost == y.result.cost, q.name
        assert np.array_equal(x.result.mask, y.result.mask), q.name


class TestMigrationJournal:
    def _planned_steps(self, d0, d1, db0, session):
        journal = MigrationJournal()
        execute_transition(
            DesignDiff(d0, d1), _copy_db(db0), session=session, journal=journal
        )
        assert journal.state == "committed"
        return journal.planned

    def test_resume_at_every_step_boundary(self, migration_world):
        _, d0, d1, db0, session = migration_world
        with use_session(session):
            planned = self._planned_steps(d0, d1, db0, session)
            assert planned  # the two phases disagree on at least one object
            ref = DesignDiff(d0, d1).apply(_copy_db(db0), session=session)
            for boundary in range(len(planned) + 1):
                db = _copy_db(db0)
                journal = MigrationJournal()
                plan = FaultPlan(
                    FaultSpec("migration.step", "raise", key=boundary)
                )
                with use_faults(plan):
                    with pytest.raises(InjectedFault):
                        execute_transition(
                            DesignDiff(d0, d1), db,
                            session=session, journal=journal,
                        )
                assert journal.in_progress and journal.completed == boundary
                report = journal.resume(DesignDiff(d0, d1), db, session=session)
                assert journal.state == "committed"
                _assert_same_db(ref, report.final_db, d1.workload)

    def test_rollback_at_every_step_boundary(self, migration_world):
        _, d0, d1, db0, session = migration_world
        with use_session(session):
            planned = self._planned_steps(d0, d1, db0, session)
            for boundary in range(len(planned) + 1):
                db = _copy_db(db0)
                journal = MigrationJournal()
                plan = FaultPlan(
                    FaultSpec("migration.step", "raise", key=boundary)
                )
                with use_faults(plan):
                    with pytest.raises(InjectedFault):
                        execute_transition(
                            DesignDiff(d0, d1), db,
                            session=session, journal=journal,
                        )
                journal.rollback(db)
                assert journal.state == "aborted"
                _assert_same_db(_copy_db(db0), db, d0.workload)
                journal.rollback(db)  # idempotent
                _assert_same_db(_copy_db(db0), db, d0.workload)

    def test_interrupted_refreshes_are_consumed_exactly_once(
        self, migration_world
    ):
        inst, d0, d1, db0, session = migration_world
        with use_session(session):
            db = _copy_db(db0)
            executor = RefreshExecutor(db, pool_pages=2_048, session=session)
            batches = inst.refresh.batches()
            journal = MigrationJournal()
            kwargs = dict(
                session=session, refreshes=batches, refresh_executor=executor,
                journal=journal,
            )
            plan = FaultPlan(FaultSpec("migration.step", "raise", key=1))
            with use_faults(plan):
                with pytest.raises(InjectedFault):
                    execute_transition(DesignDiff(d0, d1), db, **kwargs)
            consumed_at_death = journal.refreshes_consumed
            report = execute_transition(DesignDiff(d0, d1), db, **kwargs)
            assert journal.state == "committed"
            assert journal.refreshes_consumed == len(batches)
            assert report.refresh_seconds >= 0.0
            # Every live row is answered from exactly the mutated base state:
            # a double-applied (or dropped) batch would break containment.
            final = report.final_db
            base = final.object("lineorder").heapfile
            assert consumed_at_death <= len(batches)
            for q in d1.workload:
                choice = final.run(q)
                obj = final.object(choice.object_name)
                got = set(
                    obj.heapfile.source_rowids[choice.result.mask].tolist()
                )
                mask = q.mask(base.table)
                if base.live is not None:
                    mask = mask & base.live
                want = set(base.source_rowids[mask].tolist())
                assert got == want, q.name

    def test_journal_misuse_is_rejected(self, migration_world):
        _, d0, d1, db0, session = migration_world
        journal = MigrationJournal()
        journal.begin([("drop", "x")], _copy_db(db0))
        with pytest.raises(RuntimeError, match="does not match"):
            journal.begin([("drop", "y")], _copy_db(db0))
        with pytest.raises(RuntimeError, match="out of order"):
            journal.mark_done(1)
        journal.commit()
        with pytest.raises(RuntimeError, match="cannot resume"):
            journal.resume(DesignDiff(d0, d1), _copy_db(db0), session=session)
        with pytest.raises(RuntimeError, match="cannot roll back"):
            journal.rollback(_copy_db(db0))
        with pytest.raises(RuntimeError, match="cannot reuse"):
            journal.begin([("drop", "x")], _copy_db(db0))
