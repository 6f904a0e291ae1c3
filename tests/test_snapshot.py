"""Session snapshots: round-trips are lossless, merges are commutative.

The contract: exporting a session's caches, shipping them through pickle,
and installing them into a fresh session must (a) leave every evaluation
result bit-identical and (b) actually *hit* — the imported entries do the
work, not fresh computation.  Merging two workers' snapshots must not
depend on merge order.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import (
    EvalSession,
    export_snapshot,
    merge_snapshots,
    use_session,
)
from repro.experiments.harness import evaluate_design
from repro.workloads.registry import make

CONFIG = DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False)


@pytest.fixture(scope="module")
def instance():
    return make("tpch", scale=0.05, seed=7)


@pytest.fixture(scope="module")
def designer(instance):
    return CoraddDesigner(
        instance.flat_tables,
        instance.workload,
        instance.primary_keys,
        instance.fk_attrs,
        config=CONFIG,
    )


def _design(instance, designer, frac):
    return designer.design(int(instance.total_base_bytes() * frac))


def _assert_identical(a, b):
    assert a.real_seconds == b.real_seconds
    for qname, x in a.plans.items():
        y = b.plans[qname]
        assert x.plan == y.plan
        assert x.object_name == y.object_name
        assert x.result.cost == y.result.cost
        assert np.array_equal(x.result.mask, y.result.mask)


class TestRoundTrip:
    def test_pickled_snapshot_reproduces_evaluation(self, instance, designer):
        design = _design(instance, designer, 0.75)
        source = EvalSession()
        with use_session(source):
            first = evaluate_design(design)
        snapshot = pickle.loads(pickle.dumps(export_snapshot(source)))

        fresh = EvalSession()
        snapshot.install(fresh)
        with use_session(fresh):
            second = evaluate_design(design)
        _assert_identical(first, second)
        # The imported entries did the work: orderings skipped the sorts,
        # CM choices skipped the probe phase, scan results skipped plan
        # execution, and no mask was recomputed.
        assert fresh.stats["ordering_hits"] > 0
        assert fresh.stats["ordering_misses"] == 0
        # The whole-object CM-design cache hits first; either way no CM
        # probe reruns.
        assert fresh.stats["cm_hits"] + fresh.stats["cm_choice_hits"] > 0
        assert fresh.stats["cm_choice_misses"] == 0
        assert fresh.stats["scan_hits"] > 0
        assert fresh.stats["mask_misses"] == 0

    def test_imported_masks_are_bit_identical_and_frozen(
        self, instance, designer
    ):
        design = _design(instance, designer, 0.75)
        source = EvalSession()
        with use_session(source):
            evaluate_design(design)
        snapshot = pickle.loads(pickle.dumps(export_snapshot(source)))
        fresh = EvalSession()
        snapshot.install(fresh)
        assert set(source._masks) == set(fresh._masks)
        for key, mask in source._masks.items():
            other = fresh._masks[key]
            assert np.array_equal(mask, other)
            with pytest.raises(ValueError):
                other[:] = False

    def test_detached_cms_answer_lookups(self, instance, designer):
        from repro.cm.correlation_map import CorrelationMap
        from repro.storage.disk import DiskModel
        from repro.storage.layout import HeapFile

        design = _design(instance, designer, 0.75)
        fact = next(iter(instance.flat_tables))
        hf = HeapFile(
            instance.flat_tables[fact],
            instance.primary_keys[fact],
            DiskModel(),
            name=fact,
        )
        key_attr = next(
            a
            for q in design.workload
            for a in q.predicate_attrs()
            if a not in hf.cluster_key
        )
        cm = CorrelationMap(hf, (key_attr,), cluster_width=4)
        clone = pickle.loads(pickle.dumps(cm.detached()))
        assert clone.heapfile is None
        assert clone.size_bytes == cm.size_bytes
        for query in design.workload:
            a = cm.lookup(query)
            b = clone.lookup(query)
            if a is None:
                assert b is None
            else:
                assert np.array_equal(a, b)

    def test_delta_export_is_disjoint_from_baseline(self, instance, designer):
        session = EvalSession()
        with use_session(session):
            evaluate_design(_design(instance, designer, 0.5))
        baseline = session.cache_keys()
        with use_session(session):
            evaluate_design(_design(instance, designer, 1.5))
        delta = export_snapshot(session, exclude=baseline)
        for name, keys in delta.key_sets().items():
            assert not keys & baseline[name]
        # Baseline + delta = everything.
        full = export_snapshot(session)
        for name, keys in full.key_sets().items():
            assert keys == baseline[name] | delta.key_sets()[name]


class TestMerge:
    def test_merge_is_order_independent(self, instance, designer):
        design_a = _design(instance, designer, 0.5)
        design_b = _design(instance, designer, 1.5)
        session_a = EvalSession()
        with use_session(session_a):
            result_a = evaluate_design(design_a)
        session_b = EvalSession()
        with use_session(session_b):
            result_b = evaluate_design(design_b)
        snap_a = export_snapshot(session_a)
        snap_b = export_snapshot(session_b)

        merged_ab = merge_snapshots(snap_a, snap_b)
        merged_ba = merge_snapshots(snap_b, snap_a)
        assert merged_ab.key_sets() == merged_ba.key_sets()

        for merged in (merged_ab, merged_ba):
            fresh = EvalSession()
            pickle.loads(pickle.dumps(merged)).install(fresh)
            with use_session(fresh):
                _assert_identical(result_a, evaluate_design(design_a))
                _assert_identical(result_b, evaluate_design(design_b))
            # Both workers' entries landed: no sort or CM probe reran.
            assert fresh.stats["ordering_misses"] == 0
            assert fresh.stats["cm_choice_misses"] == 0

    def test_merge_rejects_version_mismatch(self):
        snap = export_snapshot(EvalSession())
        snap.version = 99
        with pytest.raises(ValueError):
            merge_snapshots(snap)
