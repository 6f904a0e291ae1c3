"""Evaluation engine: caching must be observationally invisible.

Property tests across every registered workload family: with a shared
:class:`~repro.engine.EvalSession`, plan choices, simulated costs and result
masks are bit-identical to uncached evaluation; sessions over different data
never share cache entries; the materialization and plan caches actually hit
(and invalidate) when they should; and a sweep is a loop in one process.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, ParallelSweep, get_session, use_session
from repro.experiments.harness import evaluate_design, evaluate_designs
from repro.storage.access import cm_scan
from repro.storage.executor import PhysicalDatabase, PhysicalObject
from repro.storage.layout import HeapFile
from repro.workloads.registry import make

CONFIG = DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False)

#: Modules no code under ``src/repro`` imports: evaluation is one process.
PROCESS_POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _tiny_instance(name: str, seed: int | None = None):
    if name == "ssb":
        return make("ssb", seed=seed, lineorder_rows=4000)
    if name == "apb":
        return make("apb", seed=seed, actuals_rows=4000)
    if name == "tpch":
        return make("tpch", seed=seed, scale=0.05)
    return make("synth", seed=seed, scale=0.2)


def _design(inst, frac: float = 0.75):
    designer = CoraddDesigner(
        inst.flat_tables,
        inst.workload,
        inst.primary_keys,
        inst.fk_attrs,
        config=CONFIG,
    )
    return designer.design(int(inst.total_base_bytes() * frac))


def _assert_identical(plain, cached):
    assert plain.real_seconds == cached.real_seconds
    assert set(plain.plans) == set(cached.plans)
    for qname, a in plain.plans.items():
        b = cached.plans[qname]
        assert a.plan == b.plan
        assert a.object_name == b.object_name
        assert a.result.cost == b.result.cost
        assert np.array_equal(a.result.mask, b.result.mask)


class TestCachedEqualsUncached:
    """The correctness bar of the engine: identical plans, costs, masks."""

    @pytest.mark.parametrize("name", ["synth", "ssb", "apb", "tpch"])
    def test_cached_matches_uncached(self, name):
        inst = _tiny_instance(name)
        design = _design(inst)
        assert get_session() is None
        plain = evaluate_design(design)  # no ambient session: uncached
        with use_session() as session:
            cached = evaluate_design(design)
        _assert_identical(plain, cached)
        # The caches were actually exercised, not bypassed.
        assert session.stats["mask_misses"] > 0
        assert session.stats["heapfile_misses"] > 0
        # cm_scan through every CM of a covering object — most of them not
        # designed for the query, so nothing was left in the scan tier and
        # the session arm resolves lookup -> fragments -> cost itself.
        bare = design.materialize()
        with use_session() as fresh:
            db = design.materialize()
            undesigned = 0
            for query in design.workload:
                for obj in db.covering_objects(query):
                    twin = bare.object(obj.name)
                    for plain_cm, cm in zip(twin.cms, obj.cms):
                        undesigned += (
                            fresh._scan_key(obj.heapfile, cm, query)
                            not in fresh._scan_results
                        )
                        a = cm_scan(twin.heapfile, query, plain_cm)
                        b = cm_scan(obj.heapfile, query, cm)
                        assert (a is None) == (b is None)
                        if a is not None:
                            assert (a.plan, a.cost) == (b.plan, b.cost)
                            assert np.array_equal(a.mask, b.mask)
        # (The tiny synth and tpch designs carry no CM at this budget.)
        assert undesigned > 0 or name in ("synth", "tpch")

    def test_second_evaluation_hits_caches(self):
        design = _design(_tiny_instance("synth"))
        with use_session() as session:
            first = evaluate_design(design)
            second = evaluate_design(design)
        _assert_identical(first, second)
        assert session.stats["heapfile_hits"] > 0
        assert session.stats["conjunction_hits"] > 0

    def test_materialized_databases_share_heapfiles(self):
        design = _design(_tiny_instance("synth"))
        with use_session():
            db1 = design.materialize()
            db2 = design.materialize()
        assert set(db1.objects) == set(db2.objects)
        for name in db1.objects:
            assert db1.objects[name].heapfile is db2.objects[name].heapfile

    def test_cached_masks_are_frozen(self):
        design = _design(_tiny_instance("synth"))
        with use_session():
            evaluated = evaluate_design(design)
        choice = next(iter(evaluated.plans.values()))
        with pytest.raises(ValueError):
            choice.result.mask[:] = False


class TestSessionIsolation:
    def test_sessions_over_different_data_share_nothing(self):
        inst_a = _tiny_instance("synth", seed=1)
        inst_b = _tiny_instance("synth", seed=2)
        design_a = _design(inst_a)
        design_b = _design(inst_b)
        with use_session() as session_a:
            evaluate_design(design_a)
        with use_session() as session_b:
            evaluate_design(design_b)
        # Content-derived keys: different data can never collide, so the
        # cache key sets of the two sessions are fully disjoint.
        assert not set(session_a._masks) & set(session_b._masks)
        assert not set(session_a._conjunctions) & set(session_b._conjunctions)
        assert not set(session_a._heapfiles) & set(session_b._heapfiles)

    def test_sessions_do_not_leak_ambiently(self):
        with use_session() as outer:
            assert get_session() is outer
            with use_session() as inner:
                assert get_session() is inner
            assert get_session() is outer
        assert get_session() is None

    def test_explicit_session_param_wins(self):
        design = _design(_tiny_instance("synth"))
        mine = EvalSession()
        evaluate_design(design, session=mine)
        assert mine.stats["heapfile_misses"] > 0


@pytest.fixture(scope="module")
def tpch_designs():
    """A four-budget TPC-H ladder."""
    inst = make("tpch", scale=0.05, seed=3)
    designer = CoraddDesigner(
        inst.flat_tables,
        inst.workload,
        inst.primary_keys,
        inst.fk_attrs,
        config=CONFIG,
    )
    base = inst.total_base_bytes()
    return [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]


#: The session's eight cache tiers, by attribute.
_TIERS = (
    "_masks", "_conjunctions", "_heapfiles", "_orderings", "_cm_builds",
    "_cm_choices", "_cm_distincts", "_scan_results",
)


class TestRepeatEvaluationHitsTheSession:
    def test_repeat_hits_scan_tier_and_reuses_orderings(self, tpch_designs):
        design = tpch_designs[0]
        session = EvalSession()
        with use_session(session):
            a = evaluate_design(design)
            b = evaluate_design(design)
        _assert_identical(a, b)
        assert session.stats["scan_hits"] > 0
        assert session.stats["ordering_misses"] > 0

    def test_session_holds_the_eight_documented_tiers(self):
        session = EvalSession()
        assert {key.rsplit("_", 1)[0] for key in session.stats} == {
            "mask", "conjunction", "heapfile", "ordering", "cm_build",
            "cm_choice", "cm_distinct", "scan",
        }
        assert all(getattr(session, tier) == {} for tier in _TIERS)


class TestOneProcess:
    """Sweeps run in process; ``workers=`` is accepted and ignored."""

    def test_workers_change_nothing(self, tpch_designs):
        one = evaluate_designs(tpch_designs, workers=1, session=EvalSession())
        two = evaluate_designs(tpch_designs, workers=2, session=EvalSession())
        assert [ev.design for ev in two] == tpch_designs
        for a, b in zip(one, two):
            _assert_identical(a, b)
        sweep = ParallelSweep(workers=2)
        assert sweep.map(lambda _: os.getpid(), range(4)) == [os.getpid()] * 4
        assert sweep.last_stats == {}

    def test_no_module_imports_a_process_pool(self):
        """No module under ``src/repro`` imports ``multiprocessing`` or
        ``concurrent.futures``."""
        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    n == p or n.startswith(p + ".")
                    for n in names for p in PROCESS_POOL_MODULES
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestPlanMemoization:
    @pytest.fixture
    def simple_db(self):
        inst = _tiny_instance("synth")
        fact = next(iter(inst.flat_tables))
        hf = HeapFile(
            inst.flat_tables[fact], inst.primary_keys[fact], _disk(), name=fact
        )
        return inst, PhysicalDatabase([PhysicalObject(hf)])

    def test_repeated_run_returns_memoized_choice(self, simple_db):
        inst, db = simple_db
        query = inst.workload.queries[0]
        first = db.run(query)
        assert db._plan_cache
        assert db.run(query) is first

    def test_add_invalidates_plan_cache(self, simple_db):
        inst, db = simple_db
        fact = next(iter(inst.flat_tables))
        db.run(inst.workload.queries[0])
        assert db._plan_cache
        copy = PhysicalObject(
            HeapFile(
                inst.flat_tables[fact],
                inst.primary_keys[fact],
                _disk(),
                name=f"{fact}_copy",
            )
        )
        db.add(copy)
        assert not db._plan_cache

    def test_invalidate_plans_forces_reexecution(self, simple_db):
        inst, db = simple_db
        query = inst.workload.queries[0]
        first = db.run(query)
        db.invalidate_plans()
        assert not db._plan_cache
        second = db.run(query)
        assert first is not second
        assert first.plan == second.plan
        assert first.result.cost == second.result.cost

    def test_total_seconds_consistent_with_and_without_memo(self, simple_db):
        inst, db = simple_db
        executed = db.total_seconds(inst.workload)
        assert db.total_seconds(inst.workload) == executed  # memoized
        db.invalidate_plans()
        assert db.total_seconds(inst.workload) == executed  # re-executed


def _disk():
    from repro.storage.disk import DiskModel

    return DiskModel()


class TestQueryFingerprint:
    def test_same_content_same_fingerprint(self):
        from repro.relational.query import Aggregate, EqPredicate, Query

        a = Query("a", "f", [EqPredicate("x", 1.0)], [Aggregate("sum", ("y",))],
                  frequency=1.0)
        b = Query("b", "f", [EqPredicate("x", 1.0)], [Aggregate("sum", ("y",))],
                  frequency=9.0)
        assert a.fingerprint() == b.fingerprint()

    def test_different_constants_differ(self):
        from repro.relational.query import EqPredicate, Query

        a = Query("a", "f", [EqPredicate("x", 1.0)])
        b = Query("b", "f", [EqPredicate("x", 2.0)])
        assert a.fingerprint() != b.fingerprint()
