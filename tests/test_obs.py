"""Observability: invisible when off, exact when on.

The layer's contract has three legs, each tested here:

* **invisibility** — plans, simulated costs and result masks are
  bit-identical with instrumentation on vs off, and the disabled path
  (no ambient tracer/monitor) costs one contextvar read per site;
* **one channel per fact** — times come from spans, and every count a
  layer reports is a value its calls already return (``EvalSession.stats``,
  ``RefreshOutcome``, the returned ``EvaluatedDesign`` list);
* **parity** — the online :class:`~repro.obs.drift.CostModelMonitor`
  replayed over Figure 10's offline rows reproduces the experiment's
  per-query error ratios exactly, and a noisy interleaved online stream
  flags the same high-error queries the offline figure does.
"""

from __future__ import annotations

import json
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, use_session
from repro.experiments.harness import evaluate_design, evaluate_designs
from repro.obs import (
    NULL_SPAN,
    CostModelMonitor,
    Observation,
    Tracer,
    observed,
)
from repro.obs.drift import COST_FLOOR, use_monitor
from repro.obs.trace import annotate, span, use_tracer
from repro.workloads.registry import make
from tests.test_design_units import count_calls

CONFIG = DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False)


@pytest.fixture(scope="module")
def instance():
    return make("tpch", scale=0.05, seed=7)


def _fresh_designer(instance):
    return CoraddDesigner(
        instance.flat_tables,
        instance.workload,
        instance.primary_keys,
        instance.fk_attrs,
        config=CONFIG,
    )


def _span_names(spans) -> set[str]:
    """Every span name in a forest, at any depth."""
    out = set()
    for s in spans:
        out.add(s.name)
        out |= _span_names(s.children)
    return out


def _assert_identical(a, b):
    assert a.real_seconds == b.real_seconds
    assert a.model_seconds == b.model_seconds
    for qname, x in a.plans.items():
        y = b.plans[qname]
        assert x.plan == y.plan
        assert x.object_name == y.object_name
        assert x.result.cost == y.result.cost
        assert np.array_equal(x.result.mask, y.result.mask)


# ------------------------------------------------------------------- tracing


class TestTracer:
    def test_nesting_attrs_and_tree(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer", phase=1):
                with span("inner"):
                    annotate(rows=8)
            with span("second"):
                pass
        assert [s.name for s in tracer.spans] == ["outer", "second"]
        outer = tracer.spans[0]
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.attrs == {"phase": 1}
        assert outer.children[0].attrs == {"rows": 8}
        assert outer.seconds >= outer.children[0].seconds >= 0.0

        data = json.loads(tracer.to_json())
        assert data == tracer.to_dict()
        assert data["spans"][0]["children"][0]["name"] == "inner"
        rendered = tracer.render()
        assert "outer" in rendered and "  inner" in rendered

    def test_annotate_targets_innermost_open_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer"):
                with span("inner"):
                    annotate(depth=2)
                annotate(depth=1)
        assert tracer.spans[0].attrs == {"depth": 1}
        assert tracer.spans[0].children[0].attrs == {"depth": 2}


class TestDisabledPath:
    def test_null_span_is_a_shared_singleton(self):
        # Structural zero-allocation guarantee: every disabled span() call
        # returns the same object, entering yields None, annotate no-ops.
        assert span("a") is span("b") is NULL_SPAN
        with span("anything", attr=1) as inner:
            assert inner is None
        NULL_SPAN.annotate(ignored=True)
        annotate(ignored=True)  # no open span, no tracer: must not raise

    def test_disabled_span_overhead_is_tiny(self):
        # A generous absolute guard (the real cost is ~100ns/call): the
        # disabled path must stay one contextvar read + identity check.
        n = 50_000
        start = perf_counter()
        for _ in range(n):
            with span("hot"):
                pass
        per_call = (perf_counter() - start) / n
        assert per_call < 20e-6, f"{per_call * 1e6:.2f} us per disabled span"


# ------------------------------------------------- engine cache counters


class TestEngineCacheMetrics:
    def test_harness_totals_equal_serial_with_and_without_a_session(
        self, instance
    ):
        """Every design comes home evaluated exactly once, session or not:
        the returned list is the count."""
        designer = _fresh_designer(instance)
        base = instance.total_base_bytes()
        designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]
        serial = evaluate_designs(designs)
        assert len(serial) == len(designs)
        for session in (EvalSession(), None):
            again = evaluate_designs(designs, session=session)
            assert [ev.design for ev in again] == designs
            assert [len(ev.real_seconds) for ev in again] == [
                len(ev.real_seconds) for ev in serial
            ]


# -------------------------------------------------------------- bit identity


class TestObservationalInvisibility:
    def test_design_and_evaluation_identical_with_obs_on(self, instance):
        budget = int(instance.total_base_bytes() * 0.75)

        def arm():
            designer = _fresh_designer(instance)
            design = designer.design(budget)
            session = EvalSession()
            with use_session(session):
                ev = evaluate_design(design)
            return design, ev, session

        plain_design, plain_ev, _ = arm()
        with observed("identity") as obs:
            traced_design, traced_ev, traced_session = arm()

        assert [c.cand_id for c in traced_design.chosen] == [
            c.cand_id for c in plain_design.chosen
        ]
        assert traced_design.expected_seconds == plain_design.expected_seconds
        assert traced_design.ilp.assignment == plain_design.ilp.assignment
        _assert_identical(plain_ev, traced_ev)

        # ... and the observed arm actually observed: stage spans recorded,
        # the ILP solved under its span, every query drift-monitored.
        names = {s.name for s in obs.tracer.spans}
        assert {"designer.profile", "designer.enumerate", "designer.solve"} <= names
        assert "ilp.solve" in _span_names(obs.tracer.spans)
        assert traced_session.stats["mask_misses"] > 0
        assert obs.monitor.observations == len(plain_ev.real_seconds)

    def test_report_is_json_serializable_and_versioned(self, tmp_path):
        with observed("report") as obs:
            with span("stage", detail="x"):
                pass
            obs.monitor.observe("q1", modeled=1.0, measured=2.0)
        path = obs.write(tmp_path / "TRACE_report.json")
        data = json.loads(path.read_text())
        assert set(data) == {"name", "version", "trace", "drift"}
        assert data["name"] == "report"
        assert data["version"] == 2
        assert data["trace"]["spans"][0]["name"] == "stage"
        assert data["trace"]["spans"][0]["attrs"] == {"detail": "x"}
        assert data["drift"]["queries"]["q1"]["error"] == 2.0


# ------------------------------------------------------------------ drift


class TestCostModelMonitor:
    def test_ewma_seeds_from_first_sample(self):
        monitor = CostModelMonitor(alpha=0.5)
        signal = monitor.observe("q", modeled=2.0, measured=5.0)
        assert signal.ratio == 2.5
        assert signal.error == 2.5  # seeded, not pulled toward zero

    def test_ewma_smoothing_is_exact_with_dyadic_samples(self):
        monitor = CostModelMonitor(alpha=0.5)
        monitor.observe("q", modeled=1.0, measured=2.0)  # error = 2.0
        s = monitor.observe("q", modeled=1.0, measured=4.0)
        assert s.error == 0.5 * 4.0 + 0.5 * 2.0 == 3.0

    def test_threshold_and_min_samples(self):
        monitor = CostModelMonitor(alpha=1.0, threshold=2.0, min_samples=2)
        first = monitor.observe("q", modeled=1.0, measured=10.0)
        assert not first.drifted  # error is high but sample count is not
        second = monitor.observe("q", modeled=1.0, measured=10.0)
        assert second.drifted
        assert monitor.drifted_queries() == ["q"]
        calm = monitor.observe("ok", modeled=1.0, measured=1.0)
        assert not calm.drifted
        assert monitor.drifted_queries() == ["q"]

    def test_zero_model_cost_is_clamped_finite(self):
        signal = CostModelMonitor().observe("q", modeled=0.0, measured=1.0)
        assert signal.ratio == 1.0 / COST_FLOOR
        assert np.isfinite(signal.error)

    def test_observe_design_feeds_every_query(self):
        evaluated = SimpleNamespace(
            model_seconds={"a": 1.0, "b": 2.0},
            real_seconds={"a": 2.0, "b": 2.0},
        )
        monitor = CostModelMonitor()
        signals = monitor.observe_design(evaluated)
        assert {s.query for s in signals} == {"a", "b"}
        assert monitor.error("a") == 2.0
        assert monitor.error("b") == 1.0

    def test_harness_feeds_ambient_monitor(self, instance):
        designer = _fresh_designer(instance)
        design = designer.design(int(instance.total_base_bytes() * 0.75))
        with use_monitor() as monitor:
            ev = evaluate_design(design)
        assert monitor.observations == len(ev.real_seconds)
        for name, measured in ev.real_seconds.items():
            modeled = ev.model_seconds[name]
            assert monitor.error(name) == measured / max(modeled, COST_FLOOR)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CostModelMonitor(alpha=0.0)
        with pytest.raises(ValueError):
            CostModelMonitor(alpha=1.5)
        with pytest.raises(ValueError):
            CostModelMonitor(threshold=0.0)


class TestFig10Parity:
    """The monitor online == Figure 10 offline, on the same data."""

    @pytest.fixture(scope="class")
    def fig10_rows(self):
        from repro.experiments.fig10_cost_model_error import run_fig10

        result = run_fig10(lineorder_rows=60_000, synopsis_rows=16_384)
        return result.rows

    def test_replay_reproduces_offline_error_ratios_exactly(self, fig10_rows):
        samples = [
            (row["clustering"], row["commercial_model_s"], row["real_s"])
            for row in fig10_rows
        ]
        monitor = CostModelMonitor.replay(samples)
        for row in fig10_rows:
            offline = row["real_s"] / max(row["commercial_model_s"], COST_FLOOR)
            assert monitor.error(row["clustering"]) == offline

    def test_online_stream_flags_the_offline_high_error_queries(
        self, fig10_rows
    ):
        offline = {
            row["clustering"]: row["real_s"]
            / max(row["commercial_model_s"], COST_FLOOR)
            for row in fig10_rows
        }
        # Place the threshold in the widest geometric gap of the offline
        # error spectrum, so "high-error" is unambiguous on this data.
        ranked = sorted(offline.values())
        gaps = [
            (ranked[i + 1] / ranked[i], i) for i in range(len(ranked) - 1)
        ]
        widest, i = max(gaps)
        assert widest > 1.5, "fig10 errors should separate clearly"
        threshold = float(np.sqrt(ranked[i] * ranked[i + 1]))
        expected = sorted(q for q, e in offline.items() if e >= threshold)
        assert expected and len(expected) < len(offline)

        # Interleaved online stream with deterministic +-5% measurement
        # noise: the EWMA must converge to the same flag set.
        jitter = (1.0, 1.05, 0.95, 1.02, 0.98)
        monitor = CostModelMonitor(
            alpha=0.3, threshold=threshold, min_samples=3
        )
        for factor in jitter:
            for row in fig10_rows:
                monitor.observe(
                    row["clustering"],
                    row["commercial_model_s"],
                    row["real_s"] * factor,
                )
        assert monitor.drifted_queries() == expected


# ----------------------------------------------- refresh + ilp instrumentation


class TestLayerMetricsSmoke:
    def test_refresh_executor_publishes_spans_and_metrics(self):
        from repro.storage.update import RefreshExecutor

        inst = make(
            "ssb-refresh",
            lineorder_rows=6_000,
            seed=3,
            rounds=2,
            insert_fraction=0.04,
            delete_fraction=0.02,
        )
        designer = CoraddDesigner(
            inst.flat_tables,
            inst.workload,
            inst.primary_keys,
            inst.fk_attrs,
            config=CONFIG,
        )
        design = designer.design(int(inst.total_base_bytes() * 0.6))
        with observed("refresh") as obs:
            session = EvalSession()
            with use_session(session):
                db = design.materialize(session)
                executor = RefreshExecutor(db, pool_pages=2_048, session=session)
                outcomes = [executor.apply(b) for b in inst.refresh.batches()]
                flushed = executor.flush()
        inserts = [o for o in outcomes if o.kind == "insert"]
        assert inserts
        # Touched pages read in on miss; dirty ones settle at flush (the
        # pool here is big enough that nothing evicts mid-stream).
        assert sum(o.page_reads for o in outcomes) > 0
        assert flushed > 0
        assert executor.pool.hits + executor.pool.misses > 0
        assert all(o.seconds >= 0.0 for o in outcomes)
        insert_spans = [
            s for s in obs.tracer.spans if s.name == "refresh.insert"
        ]
        assert len(insert_spans) == len(inserts)
        assert [s.attrs["seconds"] for s in insert_spans] == [
            o.seconds for o in inserts
        ]

    def test_cm_designer_counts_its_decisions(self, monkeypatch):
        """Candidates priced from columns, the improving ones built, the
        built ones that did not fit — and the width ladder's distinct
        counts through the session's ``*_hits`` / ``*_misses`` stats."""
        from repro.cm.correlation_map import CorrelationMap
        from repro.cm.designer import CandidatePricer, CMDesigner

        # TPC-H at the module fixture's scale is too small for any CM to
        # beat a scan; this SSB instance builds some.
        inst = make("ssb", lineorder_rows=12_000, seed=3)
        design = _fresh_designer(inst).design(inst.total_base_bytes())
        priced = count_calls(monkeypatch, CandidatePricer, "cost")
        built = count_calls(monkeypatch, CorrelationMap, "_build")
        session = EvalSession()
        with use_session(session):
            db = design.materialize(session)
        assert len(priced) > len(built) > 0
        assert len(built) == session.stats["cm_build_misses"]
        assert sum(len(obj.cms) for obj in db.objects.values()) <= len(built)
        ladders = session.stats["cm_distinct_misses"]
        assert 0 < ladders
        assert ladders + session.stats["cm_distinct_hits"] <= len(priced)
        # Under a budget nothing fits, every improving candidate is built,
        # found too large and dropped.
        spec = next(s for s in design.object_specs() if s.cluster_key)
        tight = CMDesigner(budget_bytes=8)
        del built[:]
        chosen = tight.design(
            db.object(spec.name).heapfile, design.spec_queries(spec)
        )
        assert chosen == []
        assert built

    def test_ilp_solver_annotates_and_counts(self):
        from repro.ilp.model import MILPModel
        from repro.ilp.solver import solve

        def tiny_model():
            m = MILPModel("tiny")
            m.add_binary("x", obj=-2.0)
            m.add_binary("y", obj=-1.0)
            m.add_constraint({"x": 1.0, "y": 1.0}, "<=", 1.0)
            return m

        with observed("ilp") as obs:
            cold = solve(tiny_model())
            warm = solve(tiny_model(), warm_start={"x": 1.0, "y": 0.0})
        assert cold.objective == warm.objective == -2.0
        assert (cold.backend, cold.status) == ("scipy", "optimal")
        # The polished incumbent matched the LP bound, so the warm solve
        # was certified without a cold MILP.
        assert warm.backend == "scipy-polish"
        assert cold.solve_seconds >= 0.0 and warm.solve_seconds >= 0.0
        ilp_spans = [s for s in obs.tracer.spans if s.name == "ilp.solve"]
        assert len(ilp_spans) == 2
        assert ilp_spans[0].attrs["status"] == "optimal"
        assert ilp_spans[0].attrs["warm"] is False
        assert ilp_spans[1].attrs["warm"] is True
        assert ilp_spans[1].attrs["warm_outcome"] == "polish-certified"
        assert "lp_bound" in ilp_spans[1].attrs
