"""The metric tables: names, units, directions, bounds, and how a pass's
raw measurements become them.  ``BENCHMARK.json`` is generated from here
(``python -m benchmarks.e2e --write-spec``); the smoke test checks the two
agree.
"""

from __future__ import annotations

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the share
#: of the parent's median by which the metric may get worse.
END_TO_END = (
    ("pipeline_s", "s", "lower", 0.25),
    ("pipeline_cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("workload_model_s", "model_s", "lower", 0.10),
    ("maintenance_model_s", "model_s", "lower", 0.15),
)

#: Per-layer metrics: (name, unit, better, source).  Sources: ``phase`` — a
#: phase timer of the untraced passes; ``count`` — a count from public return
#: values; ``trace`` — self time / calls of the traced pass; ``derived`` —
#: computed in ``layer_metrics`` below.
PER_LAYER = (
    ("workloads.dedup_s", "s", "lower", "phase"),
    ("workloads.compress_s", "s", "lower", "phase"),
    ("workloads.dedup_ratio", "ratio", "higher", "count"),
    ("workloads.representatives", "count", "lower", "count"),
    ("stats.profile_s", "s", "lower", "phase"),
    ("stats.estimate_layout.calls", "count", "lower", "trace"),
    ("stats.estimate_layout.self_s", "s", "lower", "trace"),
    ("costmodel.query_seconds.calls", "count", "lower", "trace"),
    ("costmodel.query_seconds.self_s", "s", "lower", "trace"),
    ("design.enumerate_s", "s", "lower", "phase"),
    ("design.enumerate.self_s", "s", "lower", "trace"),
    ("design.candidates_enumerated", "count", "lower", "count"),
    ("design.candidates_after_domination", "count", "lower", "count"),
    ("design.domination_keep_ratio", "ratio", "lower", "derived"),
    ("design.solve_s", "s", "lower", "phase"),
    ("design.feedback.self_s", "s", "lower", "trace"),
    ("design.ilp_formulation.self_s", "s", "lower", "trace"),
    ("design.update_s", "s", "lower", "phase"),
    ("design.update.self_s", "s", "lower", "trace"),
    ("design.migration.transition_s", "s", "lower", "phase"),
    ("design.migration.self_s", "s", "lower", "trace"),
    ("design.migration.steps", "count", "lower", "count"),
    ("ilp.solve.calls", "count", "lower", "trace"),
    ("ilp.solve.self_s", "s", "lower", "trace"),
    ("ilp.backend.bnb_calls", "count", "lower", "derived"),
    ("ilp.backend.scipy_calls", "count", "lower", "derived"),
    ("ilp.nonoptimal", "count", "lower", "derived"),
    ("cm.build.calls", "count", "lower", "trace"),
    ("cm.build.self_s", "s", "lower", "trace"),
    ("cm.design.self_s", "s", "lower", "trace"),
    ("engine.materialize_s", "s", "lower", "phase"),
    ("engine.evaluate_s", "s", "lower", "phase"),
    ("engine.run.calls", "count", "lower", "trace"),
    ("engine.run.self_s", "s", "lower", "trace"),
    ("engine.cache.hit_rate", "ratio", "higher", "derived"),
    ("engine.parallel.sweep_s", "s", "lower", "phase"),
    ("engine.parallel.map.self_s", "s", "lower", "trace"),
    ("engine.parallel.speedup", "ratio", "higher", "derived"),
    ("engine.parallel.busy_share", "ratio", "higher", "derived"),
    ("storage.pages_read", "count", "lower", "count"),
    ("storage.seeks", "count", "lower", "count"),
    ("storage.heapfile.calls", "count", "lower", "trace"),
    ("storage.heapfile.self_s", "s", "lower", "trace"),
    ("storage.shard.build_s", "s", "lower", "phase"),
    ("storage.shard.run_s", "s", "lower", "phase"),
    ("storage.shard.parallel_s", "s", "lower", "phase"),
    ("storage.shard.pages_read", "count", "lower", "count"),
    ("storage.refresh_s", "s", "lower", "phase"),
    ("storage.refresh.self_s", "s", "lower", "trace"),
    ("storage.refresh.page_reads", "count", "lower", "count"),
    ("storage.refresh.page_writes", "count", "lower", "count"),
    ("storage.refresh.compactions", "count", "lower", "count"),
    ("storage.refresh.rows", "count", "higher", "count"),
    ("bench.trace_overhead_share", "ratio", "lower", "derived"),
    ("bench.untraced_share", "ratio", "lower", "derived"),
)

#: Times, reported as the fastest of a run's passes: the work is CPU-bound and
#: deterministic, a busy box only ever adds to it, and it does so for tens of
#: seconds at a stretch (a median of three passes moved by 36 % between two
#: runs of the same code where the minimum moved by 8 %).
TIMES = ("pipeline_s", "pipeline_cpu_s", "setup_s")

#: End-to-end metrics that repeat exactly for a seed (as every count does);
#: any change is a change of behaviour, not noise.
EXACT = ("workload_model_s", "maintenance_model_s")


def _busy_share(sweeps: list[dict]) -> float:
    """Σ worker busy seconds ÷ (workers × wall) over the forked sweeps."""
    busy = sum(sum(s.get("worker_busy_seconds", ())) for s in sweeps)
    capacity = sum(s["workers"] * s["wall_seconds"] for s in sweeps)
    return busy / capacity if capacity else 0.0


def layer_metrics(
    phases: dict, counts: dict, hit_rate: float,
    traced: dict | None = None, untraced_pipeline_s: float | None = None,
) -> dict[str, float]:
    """Every per-layer metric of one workload; a layer the workload does not
    exercise reads 0.  ``phases``/``counts``/``hit_rate`` come from untraced
    passes; ``traced`` is the traced pass (its tracer summary, its own
    pipeline seconds) and fills the ``trace`` rows."""
    spans = traced["spans"] if traced else {}
    out: dict[str, float] = {}
    for name, _unit, _better, source in PER_LAYER:
        if source == "phase":
            out[name] = phases.get(name, 0.0)
        elif source == "count":
            out[name] = counts.get(name, 0.0)
        elif source == "trace":
            out[name] = spans.get(name, 0.0)
    enumerated = out["design.candidates_enumerated"]
    out["design.domination_keep_ratio"] = (
        out["design.candidates_after_domination"] / enumerated
        if enumerated else 0.0
    )
    out["engine.cache.hit_rate"] = hit_rate
    # Base: the serial sweep of the same ladder on its own cold session.
    sweep_s = out["engine.parallel.sweep_s"]
    out["engine.parallel.speedup"] = (
        out["engine.evaluate_s"] / sweep_s if sweep_s else 0.0
    )
    backends = traced["ilp_backends"] if traced else {}
    out["ilp.backend.bnb_calls"] = float(backends.get("bnb", 0))
    out["ilp.backend.scipy_calls"] = float(sum(
        n for backend, n in backends.items() if backend.startswith("scipy")
    ))
    out["ilp.nonoptimal"] = float(traced["ilp_nonoptimal"]) if traced else 0.0
    out["engine.parallel.busy_share"] = (
        _busy_share(traced["sweep_stats"]) if traced else 0.0
    )
    if traced and untraced_pipeline_s:
        out["bench.trace_overhead_share"] = (
            traced["pipeline_s"] / untraced_pipeline_s - 1.0
        )
        out["bench.untraced_share"] = (
            1.0 - spans.get("covered_s", 0.0) / traced["pipeline_s"]
        )
    else:
        out["bench.trace_overhead_share"] = 0.0
        out["bench.untraced_share"] = 0.0
    return {name: out[name] for name, *_ in PER_LAYER}
