"""Observability: invisible when off, exact when on.

The layer's contract has three legs, each tested here:

* **invisibility** — plans, simulated costs and result masks are
  bit-identical with instrumentation on vs off, and the disabled path
  (no ambient tracer/registry/monitor) costs one contextvar read per site;
* **commutativity** — metric payloads merge order-free (counters add,
  gauges max, histograms component-wise), which is what lets each item
  of a forked :class:`~repro.engine.ParallelSweep` send its metrics home
  on its result message, exactly once under any fault schedule;
* **parity** — the online :class:`~repro.obs.drift.CostModelMonitor`
  replayed over Figure 10's offline rows reproduces the experiment's
  per-query error ratios exactly, and a noisy interleaved online stream
  flags the same high-error queries the offline figure does.

Dyadic-rational metric values (halves, quarters) are used in the merge
tests so float addition is exact and "equal" means ``==``.
"""

from __future__ import annotations

import json
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import (
    EvalSession,
    FaultPlan,
    FaultSpec,
    ParallelSweep,
    fork_available,
    use_faults,
    use_session,
)
from repro.experiments.harness import evaluate_design, evaluate_designs
from repro.obs import (
    NULL_SPAN,
    CostModelMonitor,
    MetricsRegistry,
    Observation,
    Tracer,
    observed,
)
from repro.obs.drift import COST_FLOOR, use_monitor
from repro.obs.metrics import (
    Histogram,
    count,
    merge_payloads,
    observe,
    set_gauge,
    use_metrics,
)
from repro.obs.trace import annotate, span, use_tracer
from repro.workloads.registry import make

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

    def test_span_durations_publish_to_ambient_metrics(self):
        registry = MetricsRegistry()
        with use_tracer(), use_metrics(registry):
            with span("work"):
                pass
            with span("work"):
                pass
        hist = registry.histogram("span.work")
        assert hist is not None and hist.count == 2
        assert hist.total >= 0.0

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

    def test_metric_helpers_noop_without_registry(self):
        count("nobody.listening")
        observe("nobody.listening", 1.0)
        set_gauge("nobody.listening", 1.0)

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


# ------------------------------------------------------------------- metrics


class TestMetricsMerge:
    def _payload_a(self):
        r = MetricsRegistry()
        r.inc("hits", 3)
        r.inc("bytes", 0.5)
        r.set_gauge("peak", 4.0)
        r.observe("lat", 0.25)
        r.observe("lat", 1.0)
        return r.export()

    def _payload_b(self):
        r = MetricsRegistry()
        r.inc("hits", 2)
        r.inc("misses", 7)
        r.set_gauge("peak", 2.5)
        r.observe("lat", 0.5)
        return r.export()

    def test_merge_is_commutative_and_exact(self):
        ab = merge_payloads(self._payload_a(), self._payload_b())
        ba = merge_payloads(self._payload_b(), self._payload_a())
        assert ab == ba
        assert ab["counters"] == {"hits": 5, "bytes": 0.5, "misses": 7}
        assert ab["gauges"] == {"peak": 4.0}  # max, not last-writer-wins
        lat = ab["histograms"]["lat"]
        assert lat["count"] == 3
        assert lat["total"] == 1.75  # dyadic values: float addition exact
        assert lat["min"] == 0.25 and lat["max"] == 1.0

    def test_histogram_buckets_are_powers_of_two(self):
        h = Histogram()
        for v in (0.25, 0.3, 1.0, 1.9, 0.0):
            h.observe(v)
        data = h.to_dict()
        # 0.25/0.3 -> bucket -2, 1.0/1.9 -> bucket 0, zero gets its own.
        assert data["buckets"]["-2"] == 2
        assert data["buckets"]["0"] == 2
        assert h.count == 5

    def test_histogram_round_trip(self):
        h = Histogram()
        h.observe(0.5)
        h.observe(2.0)
        again = Histogram.from_dict(h.to_dict())
        assert again.to_dict() == h.to_dict()

    def test_empty_merge_is_falsy(self):
        assert merge_payloads() == {}
        assert merge_payloads({}, {}) == {}

    def test_ambient_helpers_record(self):
        with use_metrics() as registry:
            count("c", 2)
            count("c")
            set_gauge("g", 1.5)
            observe("h", 0.75)
        assert registry.counter("c") == 3
        assert registry.gauges["g"] == 1.5
        assert registry.histogram("h").count == 1


# ------------------------------------------------- engine cache counters


class TestEngineCacheMetrics:
    def test_session_publishes_cache_deltas(self, instance):
        designer = _fresh_designer(instance)
        design = designer.design(int(instance.total_base_bytes() * 0.75))
        session = EvalSession()
        with use_metrics() as registry, use_session(session):
            evaluate_design(design)
            session.publish_metrics()
            first = dict(registry.counters)
            # Publishing again with no new work must add nothing (deltas).
            session.publish_metrics()
            assert dict(registry.counters) == first
            evaluate_design(design)
            session.publish_metrics()
        assert registry.counter("engine.cache.mask_misses") > 0
        assert registry.counter("engine.cache.mask_bytes") > 0
        # The second evaluation hit the warm caches.
        assert registry.counter("engine.cache.scan_hits") > 0
        assert (
            registry.counter("engine.cache.mask_misses")
            == session.stats["mask_misses"]
        )

    @pytest.mark.skipif(
        not fork_available(), reason="platform cannot fork worker processes"
    )
    def test_worker_metrics_ride_the_result_messages(self, instance):
        designer = _fresh_designer(instance)
        base = instance.total_base_bytes()
        designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]

        def evaluate(design):
            count("obs_test.items")
            return evaluate_design(design).without_design()

        session = EvalSession()
        with use_metrics() as registry:
            sweep = ParallelSweep(workers=2)
            assert sweep.parallel
            evaluated = sweep.map(evaluate, designs, session=session)
        assert len(evaluated) == len(designs)
        # Every item counted exactly once, whether it ran in the parent
        # (warmup heads) or in a forked worker (payload on its result).
        assert registry.counter("obs_test.items") == len(designs)
        # Worker-side cache work came home as engine.cache.* counters too.
        assert registry.counter("engine.cache.mask_misses") > 0

    @pytest.mark.skipif(
        not fork_available(), reason="platform cannot fork worker processes"
    )
    def test_parallel_metrics_match_serial_totals(self, instance):
        designer = _fresh_designer(instance)
        base = instance.total_base_bytes()
        designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]

        def evaluate(design):
            return evaluate_design(design).without_design()

        totals = {}
        for workers in (1, 2):
            session = EvalSession()
            with use_metrics() as registry:
                ParallelSweep(workers=workers).map(
                    evaluate, designs, session=session
                )
            totals[workers] = registry.counter("engine.cache.mask_misses")
        # Per-item stealing isolates items on whichever worker pulls them;
        # a cache entry shared by two items on different workers is missed
        # once per worker, so the honest bound is >= — never fewer misses,
        # and results stay bit-identical either way (TestParallelIdentity).
        assert totals[2] >= totals[1] > 0

    @pytest.mark.skipif(
        not fork_available(), reason="platform cannot fork worker processes"
    )
    @pytest.mark.parametrize(
        "spec",
        [
            None,
            FaultSpec("sweep.task", "crash", key=2),
            FaultSpec("sweep.task", "raise", key=1, times=1),
        ],
        ids=["no-fault", "crash", "raise"],
    )
    def test_harness_totals_equal_serial_with_and_without_a_session(
        self, instance, spec
    ):
        """Every evaluated design is counted once — forked or not, session
        or not, item crashed-and-rerun or not.  A sweep given no session is
        how the figure drivers run; its worker metrics used to be dropped."""
        designer = _fresh_designer(instance)
        base = instance.total_base_bytes()
        designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]

        def totals(workers, session):
            plan = FaultPlan(spec) if spec is not None and workers > 1 else None
            with use_metrics() as registry, use_faults(plan):
                evaluate_designs(designs, workers=workers, session=session)
            return registry

        serial = totals(1, None)
        assert serial.counter("harness.designs_evaluated") == len(designs)
        for session in (EvalSession(), None):
            forked = totals(2, session)
            for name in ("harness.designs_evaluated", "harness.queries_executed"):
                assert forked.counter(name) == serial.counter(name), name
            # Every item but the warm-up was handed out; each was answered
            # by a worker or, when it did not come home, run by the parent.
            assert forked.counter("sweep.steal.dispatched") == len(designs) - 1
            assert forked.counter("sweep.steal.tasks") + forked.counter(
                "sweep.faults.parent_runs"
            ) == len(designs) - 1
            # A crash can break the pool before any worker answers.
            answered = forked.histogram("sweep.steal.task_seconds")
            assert (answered.count if answered else 0) == forked.counter(
                "sweep.steal.tasks"
            )


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
                session.publish_metrics()
            return design, ev

        plain_design, plain_ev = arm()
        with observed("identity") as obs:
            traced_design, traced_ev = arm()

        assert [c.cand_id for c in traced_design.chosen] == [
            c.cand_id for c in plain_design.chosen
        ]
        assert traced_design.expected_seconds == plain_design.expected_seconds
        assert traced_design.ilp.assignment == plain_design.ilp.assignment
        _assert_identical(plain_ev, traced_ev)

        # ... and the observed arm actually observed: stage spans recorded,
        # cache counters populated, every query drift-monitored.
        names = {s.name for s in obs.tracer.spans}
        assert {"designer.profile", "designer.enumerate", "designer.solve"} <= names
        assert obs.metrics.counter("ilp.solves") >= 1
        assert obs.metrics.counter("engine.cache.mask_misses") > 0
        assert obs.monitor.observations == len(plain_ev.real_seconds)

    def test_report_is_json_serializable_and_versioned(self, tmp_path):
        with observed("report") as obs:
            with span("stage", detail="x"):
                count("c", 1)
            obs.monitor.observe("q1", modeled=1.0, measured=2.0)
        path = obs.write(tmp_path / "TRACE_report.json")
        data = json.loads(path.read_text())
        assert data["name"] == "report"
        assert data["version"] == 1
        assert data["trace"]["spans"][0]["name"] == "stage"
        assert data["metrics"]["counters"] == {"c": 1}
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
                for batch in inst.refresh.batches():
                    executor.apply(batch)
                executor.flush()
        counters = obs.metrics.counters
        assert counters.get("storage.refresh.insert_batches", 0) > 0
        # Touched pages read in on miss; dirty ones settle at flush (the
        # pool here is big enough that nothing evicts mid-stream).
        assert counters.get("storage.refresh.page_reads", 0) > 0
        assert counters.get("storage.refresh.flush_writes", 0) > 0
        pool_traffic = counters.get("storage.bufferpool.hits", 0) + counters.get(
            "storage.bufferpool.misses", 0
        )
        assert pool_traffic > 0
        batch_hist = obs.metrics.histogram("storage.refresh.batch_seconds")
        assert batch_hist is not None and batch_hist.count > 0

        def names(spans):
            out = set()
            for s in spans:
                out.add(s.name)
                out |= names(s.children)
            return out

        assert "refresh.insert" in names(obs.tracer.spans)

    def test_cm_designer_counts_its_decisions(self):
        """Candidates priced from columns, the improving ones built, the
        built ones that did not fit — and the width ladder's distinct
        counts through the session's ``*_hits`` / ``*_misses`` stats."""
        from repro.cm.designer import CMDesigner

        # TPC-H at the module fixture's scale is too small for any CM to
        # beat a scan; this SSB instance builds some.
        inst = make("ssb", lineorder_rows=12_000, seed=3)
        design = _fresh_designer(inst).design(inst.total_base_bytes())
        session = EvalSession()
        with use_metrics() as registry, use_session(session):
            db = design.materialize(session)
            session.publish_metrics()
        priced = registry.counter("cm.designer.candidates_priced")
        built = registry.counter("cm.designer.candidates_built")
        assert priced > built > 0
        assert registry.counter("cm.designer.over_budget") == 0
        assert sum(len(obj.cms) for obj in db.objects.values()) <= built
        ladders = registry.counter("engine.cache.cm_distinct_misses")
        assert 0 < ladders == session.stats["cm_distinct_misses"]
        assert ladders + registry.counter("engine.cache.cm_distinct_hits") <= priced
        # Under a budget nothing fits, every improving candidate is built,
        # found too large and dropped.
        spec = next(s for s in design.object_specs() if s.cluster_key)
        tight = CMDesigner(budget_bytes=8)
        with use_metrics() as registry:
            chosen = tight.design(
                db.object(spec.name).heapfile, design.spec_queries(spec)
            )
        assert chosen == []
        assert (
            registry.counter("cm.designer.over_budget")
            == registry.counter("cm.designer.candidates_built")
            > 0
        )

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
        assert obs.metrics.counter("ilp.solves") == 2
        assert obs.metrics.counter("ilp.warm_starts") == 1
        # The polished incumbent matched the LP bound, so the warm solve
        # was certified without a cold MILP.
        assert obs.metrics.counter("ilp.polish_certified") == 1
        assert warm.backend == "scipy-polish"
        ilp_spans = [s for s in obs.tracer.spans if s.name == "ilp.solve"]
        assert len(ilp_spans) == 2
        assert ilp_spans[0].attrs["status"] == "optimal"
        assert ilp_spans[1].attrs["warm"] is True
        assert ilp_spans[1].attrs["warm_outcome"] == "polish-certified"
        assert "lp_bound" in ilp_spans[1].attrs
