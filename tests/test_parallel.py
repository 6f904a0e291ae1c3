"""ParallelSweep: sharded evaluation is bit-identical to serial.

The parallel layer must be invisible everywhere caching is: plan choices,
simulated costs and result masks from a multiprocess sweep equal the serial
ones exactly.  These tests also cover the serial fallback, the harness
loop, the ``last_stats`` contract, what forked workers inherit from the
session, and what a sweep leaves of it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import (
    EvalSession,
    ParallelSweep,
    fork_available,
    get_session,
    use_session,
)
from repro.experiments.harness import evaluate_design, evaluate_designs
from repro.workloads.registry import make

CONFIG = DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)


@pytest.fixture(scope="module")
def tpch_designs():
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


def _assert_identical(a, b):
    assert a.real_seconds == b.real_seconds
    for qname, x in a.plans.items():
        y = b.plans[qname]
        assert x.plan == y.plan
        assert x.object_name == y.object_name
        assert x.result.cost == y.result.cost
        assert np.array_equal(x.result.mask, y.result.mask)


class TestSerialFallback:
    def test_workers_one_is_a_plain_loop(self, tpch_designs):
        session = EvalSession()
        sweep = ParallelSweep(workers=1)
        assert not sweep.parallel
        parallel = sweep.map(evaluate_design, tpch_designs, session=session)
        plain = []
        with use_session(EvalSession()):
            for design in tpch_designs:
                plain.append(evaluate_design(design))
        for a, b in zip(plain, parallel):
            _assert_identical(a, b)

    def test_single_item_never_forks(self, tpch_designs):
        result = ParallelSweep(workers=4).map(
            evaluate_design, tpch_designs[:1], session=EvalSession()
        )
        assert len(result) == 1
        assert result[0].real_seconds

    def test_one_item_left_after_the_warmup_never_forks(self, tpch_designs):
        """With a session item 0 warms it in the parent; a pool of one
        worker for the single item left would only add a fork and a pipe
        to the serial loop."""
        sweep = ParallelSweep(workers=4)
        pids = sweep.map(
            lambda design: os.getpid(), tpch_designs[:2], session=EvalSession()
        )
        assert pids == [os.getpid()] * 2
        assert sweep.last_stats == {}


@needs_fork
class TestParallelIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_sweep_is_bit_identical(self, tpch_designs, workers):
        with use_session(EvalSession()):
            serial = [evaluate_design(d) for d in tpch_designs]
        session = EvalSession()
        parallel = ParallelSweep(workers=workers).map(
            evaluate_design, tpch_designs, session=session
        )
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)
        # The warm-up item ran under the session, in the parent.
        assert session._scan_results

    def test_map_without_session(self, tpch_designs):
        doubled = ParallelSweep(workers=2).map(
            lambda x: x * 2, list(range(8))
        )
        assert doubled == [0, 2, 4, 6, 8, 10, 12, 14]


@needs_fork
class TestHarnessLoop:
    def test_evaluate_designs_matches_serial(self, tpch_designs):
        serial = evaluate_designs(tpch_designs, workers=1)
        parallel = evaluate_designs(tpch_designs, workers=2)
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)
            assert b.design is a.design  # reattached, not shipped


@needs_fork
class TestWorkStealing:
    """The pool's contract: whichever idle worker pulls which item, in
    whatever order stragglers resolve, results are bit-identical to a
    serial sweep."""

    def test_identical_under_randomized_stragglers(self, tpch_designs):
        """Per-item delays drawn from a fixed seed scramble completion
        order, so dispatch order != completion order — pull-order
        independence is exercised for real."""
        delays = np.random.default_rng(17).uniform(
            0.0, 0.05, len(tpch_designs)
        )

        def evaluate(design):
            time.sleep(delays[tpch_designs.index(design)])
            return evaluate_design(design)

        with use_session(EvalSession()):
            serial = [evaluate_design(d) for d in tpch_designs]
        sweep = ParallelSweep(workers=3)
        parallel = sweep.map(evaluate, tpch_designs, session=EvalSession())
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)
        assert sweep.last_stats  # it forked: this was not the serial loop

    def test_per_worker_accounting(self, tpch_designs):
        sweep = ParallelSweep(workers=2)
        sweep.map(evaluate_design, tpch_designs, session=EvalSession())
        stats = sweep.last_stats
        # The documented key set, exactly: benchmarks/e2e reads workers,
        # wall_seconds and worker_busy_seconds from outside the package.
        assert set(stats) == {
            "workers", "wall_seconds", "worker_busy_seconds", "worker_tasks",
            "tasks", "parent_runs",
        }
        assert stats["workers"] == 2 and stats["wall_seconds"] > 0
        assert stats["parent_runs"] == 0
        # Warmup ran item 0 in the parent; workers handled the rest, and
        # every dispatched task is attributed to exactly one worker.
        assert stats["tasks"] == len(tpch_designs) - 1
        assert len(stats["worker_tasks"]) == len(stats["worker_busy_seconds"])
        assert sum(stats["worker_tasks"]) == stats["tasks"]
        assert all(busy > 0 for busy in stats["worker_busy_seconds"])
        # Non-empty only after a forked run: a serial fallback clears it.
        sweep.map(evaluate_design, tpch_designs[:1], session=EvalSession())
        assert sweep.last_stats == {}


_OUTLIVES_SWEEP = """
import gc

import numpy as np

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, ParallelSweep, use_session
from repro.experiments.harness import evaluate_design
from repro.workloads.registry import make

inst = make("tpch", scale=0.05, seed=3)
designer = CoraddDesigner(
    inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs,
    config=DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False),
)
base = inst.total_base_bytes()
designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5)]
reference = EvalSession()
with use_session(reference):
    serial = evaluate_design(designs[0])

session = EvalSession()
sweep = ParallelSweep(workers=2)
sweep.map(evaluate_design, designs, session=session)
assert sweep.last_stats, "the sweep did not fork"
del sweep
gc.collect()

with use_session(session):
    again = evaluate_design(designs[0])
assert again.real_seconds == serial.real_seconds
for name, x in serial.plans.items():
    y = again.plans[name]
    assert (x.plan, x.object_name) == (y.plan, y.object_name)
    assert x.result.cost == y.result.cost
    assert np.array_equal(x.result.mask, y.result.mask)
assert session._heapfiles
for key, hf in session._heapfiles.items():
    expected = reference._heapfiles[key].table
    for column in hf.table.column_names:
        assert np.array_equal(hf.table.column(column), expected.column(column))
"""


@needs_fork
class TestSessionOutlivesSweep:
    def test_heapfile_columns_readable_after_sweep_is_gone(self):
        """A session outlives the sweep that forked over it, and its heap
        files read back what a serial session's do.  Runs in a child
        interpreter: reading a column whose memory went away with the sweep
        is a segfault, which must fail this test, not kill the run."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _OUTLIVES_SWEEP],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, (
            f"child exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )


@needs_fork
class TestWorkersInheritTheSession:
    """Fork is the parent -> worker transport: a worker evaluates under
    the session object the parent holds, as the parent holds it."""

    def test_workers_hit_the_files_the_parent_built(self, tpch_designs):
        design = tpch_designs[1]
        session = EvalSession()
        with use_session(session):
            evaluate_design(design)
        built = session.stats["heapfile_misses"]
        assert built == len(session._heapfiles) > 0

        def evaluate(design):
            stats = get_session().stats
            before = stats["heapfile_misses"], stats["heapfile_hits"]
            evaluate_design(design)
            return (
                os.getpid(),
                stats["heapfile_misses"] - before[0],
                stats["heapfile_hits"] - before[1],
            )

        sweep = ParallelSweep(workers=2)
        units = sweep.map(evaluate, [design] * 3, session=session)
        assert sweep.last_stats
        for pid, misses, hits in units[1:]:
            assert pid != os.getpid()
            assert misses == 0 and hits > 0
        # What the workers ran up stayed in their copies of the session.
        assert session.stats["heapfile_misses"] == built

    def test_sweep_brings_home_no_cache_entries(self, tpch_designs):
        """After a forked sweep the session holds what the warm-up item
        alone left in it — the same keys in every tier, the same counters."""
        warm = EvalSession()
        with use_session(warm):
            evaluate_design(tpch_designs[0])
        session = EvalSession()
        sweep = ParallelSweep(workers=2)
        sweep.map(evaluate_design, tpch_designs, session=session)
        assert sweep.last_stats
        for tier in _TIERS:
            assert set(getattr(session, tier)) == set(getattr(warm, tier)), tier
        assert session.stats == warm.stats

    def test_sweep_leaves_the_session_as_it_found_it(self, tpch_designs):
        """Every heap-file array is the object it was, and nothing appears
        in ``/dev/shm``."""

        def shm_listing():
            shm = "/dev/shm"
            return sorted(os.listdir(shm)) if os.path.isdir(shm) else []

        session = EvalSession()
        with use_session(session):
            evaluate_design(tpch_designs[0])

        def arrays():
            return {
                (key, name): arr
                for key, hf in session._heapfiles.items()
                for name, arr in [
                    *((n, hf.table.column(n)) for n in hf.table.column_names),
                    ("<source_rowids>", hf.source_rowids),
                ]
            }

        before, listing = arrays(), shm_listing()
        assert before
        sweep = ParallelSweep(workers=2)
        sweep.map(evaluate_design, tpch_designs, session=session)
        assert sweep.last_stats
        after = arrays()
        assert after.keys() == before.keys()
        for key, arr in before.items():
            assert after[key] is arr, key
        assert shm_listing() == listing


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
