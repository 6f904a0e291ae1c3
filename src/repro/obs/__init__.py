"""Observability: span tracing and cost-model drift detection.

Public surface::

    from repro.obs import observed, span, annotate

    with observed("fig11-sweep") as obs:     # tracer + drift monitor
        result = run_fig11(...)
    print(obs.render())                       # span tree with timings
    obs.write("TRACE_fig11.json")             # machine-readable artifact

Instrumented code uses the ambient helpers directly — :func:`span` and
:func:`annotate` — which no-op in a single contextvar read when nothing is
installed.  Times come from spans; counts come from the values the
instrumented calls already return (``EvalSession.stats``, a refresh's
``RefreshOutcome``, a ``Solution``).  The two layers can also be used
independently (:func:`use_tracer` / :func:`use_monitor`); :func:`observed`
is the bundle the experiments and benchmarks reach for.

Everything here is *observational*: with or without an active observation,
plans, simulated costs and result masks are bit-identical (enforced by
``tests/test_obs.py``), and with nothing installed the instrumentation adds
no measurable overhead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.obs.drift import (
    CostModelMonitor,
    DriftSignal,
    get_monitor,
    use_monitor,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    annotate,
    get_tracer,
    span,
    use_tracer,
)

REPORT_VERSION = 2


class Observation:
    """One observed run: a tracer and a drift monitor, reportable as a
    single JSON artifact."""

    def __init__(
        self, name: str = "run", monitor: CostModelMonitor | None = None
    ) -> None:
        self.name = name
        self.tracer = Tracer()
        self.monitor = monitor if monitor is not None else CostModelMonitor()

    def report(self) -> dict:
        return {
            "name": self.name,
            "version": REPORT_VERSION,
            "trace": self.tracer.to_dict(),
            "drift": self.monitor.to_dict(),
        }

    def write(self, path: str | Path) -> Path:
        """Serialize the report as JSON next to whatever artifact the run
        produced; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.report(), indent=2) + "\n")
        return path

    def render(self) -> str:
        return self.tracer.render()


@contextmanager
def observed(
    name: str = "run", monitor: CostModelMonitor | None = None
) -> Iterator[Observation]:
    """Run the block under a fresh :class:`Observation`: its tracer and
    drift monitor are both installed ambiently."""
    obs = Observation(name, monitor=monitor)
    with use_tracer(obs.tracer), use_monitor(obs.monitor):
        yield obs


__all__ = [
    "CostModelMonitor",
    "DriftSignal",
    "NULL_SPAN",
    "Observation",
    "Span",
    "Tracer",
    "annotate",
    "get_monitor",
    "get_tracer",
    "observed",
    "span",
    "use_monitor",
    "use_tracer",
]
