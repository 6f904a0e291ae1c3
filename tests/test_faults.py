"""Fault injection and crash-safe migrations.

The robustness contract: a migration that dies at any step boundary
degrades instead of corrupting, and its journal either resumes it to the
exact target design or rolls it back to the exact source one.  Covers:

* :class:`~repro.engine.faults.FaultPlan` semantics (site and key matching,
  ``at`` / ``times`` windows, the ambient scope);
* :class:`~repro.design.migration.MigrationJournal`: resume *and*
  rollback after death at **every** step boundary, refresh batches
  consumed exactly once across an interrupt.
"""

from __future__ import annotations

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
    get_faults,
    use_faults,
    use_session,
)
from repro.relational.query import Workload
from repro.storage.executor import PhysicalDatabase
from repro.storage.update import RefreshExecutor
from repro.workloads.registry import make


# ------------------------------------------------------------------ fault plans


def _fires(plan: FaultPlan, site: str, key=None) -> bool:
    """Whether ``plan`` raised at ``site``/``key``."""
    try:
        plan.fire(site, key)
    except InjectedFault:
        return True
    return False


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("migration.step", "crash")

    def test_site_and_key_matching(self):
        plan = FaultPlan(FaultSpec("migration.step", key=3))
        assert plan.fire("other.site", key=3) is None
        assert plan.fire("migration.step", key=2) is None
        with pytest.raises(InjectedFault) as err:
            plan.fire("migration.step", key=3)
        assert err.value.site == "migration.step" and err.value.key == 3

    def test_keyless_spec_matches_every_key(self):
        plan = FaultPlan(FaultSpec("migration.step"))
        assert _fires(plan, "migration.step")
        assert _fires(plan, "migration.step", key="anything")

    def test_at_window(self):
        plan = FaultPlan(FaultSpec("migration.step", at=1))
        assert not _fires(plan, "migration.step")  # hit 0: skipped
        assert _fires(plan, "migration.step")  # hit 1: fires
        assert not _fires(plan, "migration.step")  # hit 2: past the window

    def test_times_cap(self):
        plan = FaultPlan(FaultSpec("migration.step", times=2))
        assert _fires(plan, "migration.step")
        assert _fires(plan, "migration.step")
        assert not _fires(plan, "migration.step")

    def test_ambient_scope(self):
        assert get_faults() is None
        plan = FaultPlan(FaultSpec("migration.step", "raise"))
        with use_faults(plan):
            assert get_faults() is plan
        assert get_faults() is None


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
