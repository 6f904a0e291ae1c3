"""Tier-1 smoke test of the end-to-end benchmark: all four workloads
in-process at a tiny fixed sizing (one pass each, no child processes)."""

from __future__ import annotations

import functools
import json

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.__main__ import benchmark_spec
from benchmarks.e2e.onepass import run_pass
from benchmarks.e2e.run import ROOT
from benchmarks.e2e.workloads import WORKLOADS


@functools.cache
def tiny_pass(workload: str, seed: int, traced: bool = False) -> dict:
    return run_pass(workload, seed=seed, sizing="tiny", traced=traced)


def test_benchmark_json_matches_the_tables():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_spec()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_checks_and_repeats(workload):
    traced = tiny_pass(workload, seed=0, traced=True)
    again = tiny_pass(workload, seed=0)

    spec = benchmark_spec()
    assert set(traced["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in traced["end_to_end"].values())
    assert traced["attempted"] > 0 and traced["failed"] == 0

    layers = metrics.layer_metrics(
        traced["phases"], traced["counts"], traced["cache_hit_rate"],
        traced["traced"], again["end_to_end"]["pipeline_s"],
    )
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert 0.0 <= layers["bench.untraced_share"] < 1.0
    # A layer the workload is built around was seen by the tracer.
    assert layers["stats.estimate_layout.calls"] > 0
    assert layers["engine.run.calls"] > 0

    # Same seed: the model metrics and every count repeat bit for bit, with
    # tracing on or off.
    for name in ("workload_model_s", "maintenance_model_s"):
        assert traced["end_to_end"][name] == again["end_to_end"][name]
    assert traced["counts"] == again["counts"]


# One workload per way the seed reaches the inputs: a resampled log, and a
# sample of executions plus the refresh rows.
@pytest.mark.parametrize("workload", ["log-design", "refresh-migrate"])
def test_another_seed_is_another_workload(workload):
    model_s = {
        tiny_pass(workload, seed)["end_to_end"]["workload_model_s"]
        for seed in (0, 1)
    }
    assert len(model_s) == 2


def test_checker_can_fail():
    """A row planted in the oracle's copy must show up as failed checks."""

    def plant(inputs):
        query = next(iter(inputs.inst.workload))
        columns = inputs.oracle.columns[query.fact_table]
        hit = inputs.oracle.query_mask(query.fact_table, query.predicates)
        row = int(hit.argmax())
        assert hit[row], "the first query selects no row to duplicate"
        inputs.oracle.apply(type("Batch", (), {
            "kind": "insert", "fact": query.fact_table,
            "columns": {name: col[row:row + 1] for name, col in columns.items()},
        }))

    result = run_pass("ilp-feedback", seed=0, sizing="tiny", tamper=plant)
    assert result["failed"] > 0
