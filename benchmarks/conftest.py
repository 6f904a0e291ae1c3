"""Benchmark-suite fixtures.

Each bench runs one paper experiment exactly once (``benchmark.pedantic``
with a single round — the experiments are minutes-scale, re-running them for
statistical calibration would be pointless), prints the reproduction report
next to the paper's expectation, and saves it under
``benchmarks/results/``.

Set ``REPRO_FULL=1`` to run the full-scale variants (e.g. the 20,000
candidate ILP point of Figure 6).  Set ``REPRO_TRACE=1`` to run benches
that take the ``observe`` fixture under the :mod:`repro.obs`
instrumentation, writing a ``TRACE_<bench>.json`` span/drift report
next to the saved reports.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.report import ExperimentResult, format_report
from repro.workloads import registry

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


def make_benchmark(name: str, **knobs):
    """Construct a benchmark instance by registry name — the single path
    every bench uses, so a new workload registered in
    :mod:`repro.workloads.registry` is immediately benchable."""
    return registry.make(name, **knobs)


@pytest.fixture
def save_report():
    """Print a report and persist it under benchmarks/results/."""

    def _save(result: ExperimentResult) -> None:
        text = format_report(result)
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{result.name}.txt").write_text(text + "\n")

    return _save


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def observe(request):
    """Optional observability for a bench: under ``REPRO_TRACE=1`` the test
    body runs inside :func:`repro.obs.observed` (ambient tracer + drift
    monitor) and the report lands in ``results/TRACE_<bench>.json``.
    Without the env var the fixture yields ``None`` and installs nothing,
    so default bench timings see only the disabled-path instrumentation
    cost (one contextvar read per site)."""
    if os.environ.get("REPRO_TRACE", "0") != "1":
        yield None
        return
    from repro.obs import observed

    name = request.node.name
    with observed(name) as obs:
        yield obs
    RESULTS_DIR.mkdir(exist_ok=True)
    path = obs.write(RESULTS_DIR / f"TRACE_{name}.json")
    print(f"\ntrace report written to {path}")
