"""Observability smoke: a traced quick experiment with a checked artifact.

CI runs this module to prove the instrumentation layer stays wired
end-to-end: a small Figure-11 run executes under :func:`repro.obs.observed`,
the trace report is written to ``TRACE_obs_smoke.json``, read back, and
asserted to be a well-formed report (versioned span tree with the designer
stages present, non-empty engine cache-hit counters, a populated drift
section).  A refactor that silently disconnects any layer — the tracer, the
metrics registry worker results report into, or the drift monitor fed by
the harness — fails the assertions rather than going dark.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.fig11_ssb import run_fig11
from repro.obs import REPORT_VERSION, observed
from repro.obs.trace import TRACE_VERSION


def span_names(spans: list[dict]) -> set[str]:
    out: set[str] = set()
    for node in spans:
        out.add(node["name"])
        out |= span_names(node.get("children", []))
    return out


def run_obs_smoke(path: str | Path = "TRACE_obs_smoke.json") -> dict:
    """Run the traced experiment, write the report, verify it from disk."""
    with observed("obs-smoke") as obs:
        run_fig11(
            lineorder_rows=20_000,
            fractions=(0.5, 1.0),
            augment_factor=2,
            use_feedback=False,
        )
    written = obs.write(path)

    report = json.loads(written.read_text())
    assert report["version"] == REPORT_VERSION, report["version"]
    assert report["trace"]["version"] == TRACE_VERSION

    names = span_names(report["trace"]["spans"])
    for expected in (
        "designer.profile",
        "designer.enumerate",
        "designer.solve",
        "ilp.solve",
        "harness.evaluate_design",
    ):
        assert expected in names, f"span {expected!r} missing from {sorted(names)}"

    counters = report["metrics"]["counters"]
    hits = {k: v for k, v in counters.items()
            if k.startswith("engine.cache.") and k.endswith("_hits")}
    assert hits and any(v > 0 for v in hits.values()), counters
    assert counters.get("ilp.solves", 0) > 0, counters

    drift = report["drift"]
    assert drift["queries"], drift
    return report


if __name__ == "__main__":
    report = run_obs_smoke()
    counters = report["metrics"]["counters"]
    hits = sum(v for k, v in counters.items()
               if k.startswith("engine.cache.") and k.endswith("_hits"))
    print(f"obs smoke OK: {len(span_names(report['trace']['spans']))} span "
          f"names, {hits:.0f} cache hits, "
          f"{len(report['drift']['queries'])} drift-monitored queries")
    if os.environ.get("REPRO_KEEP_TRACE", "0") != "1":
        Path("TRACE_obs_smoke.json").unlink()
