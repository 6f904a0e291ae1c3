"""Measure one workload: the entry point ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Runs passes of the workload one after another, each in a fresh child
``python`` (``benchmarks.e2e.onepass``), until the timed regions add up to
``--seconds`` (at least ``MIN_PASSES``).  With ``--trace 1`` one traced pass
runs first; it warms the page cache and is never an end-to-end sample.  The
last line printed is the result object the driver reads: the end-to-end
metrics (``--trace 0``; times are the fastest pass, the rest medians) or the
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import metrics  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def _one_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh child process; never two at once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.onepass", "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced))],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _summary(name: str, values: list[float]) -> dict:
    median = statistics.median(values)
    return {
        "value": min(values) if name in metrics.TIMES else median,
        "median": median,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one workload, summarised per metric."""
    traced = _one_pass(workload, seed, traced=True) if trace else None
    passes: list[dict] = []
    while (
        len(passes) < MIN_PASSES
        or sum(p["end_to_end"]["pipeline_s"] for p in passes) < seconds
    ):
        passes.append(_one_pass(workload, seed, traced=False))

    every = passes + ([traced] if traced else [])
    # Same seed, same inputs: the model metrics and counts must repeat
    # bit for bit, or the program is not deterministic.
    first = every[0]
    repeats = all(
        p["counts"] == first["counts"]
        and all(
            p["end_to_end"][name] == first["end_to_end"][name]
            for name in metrics.EXACT
        )
        for p in every
    )
    end_to_end = {
        name: _summary(name, [p["end_to_end"][name] for p in passes])
        for name, *_ in metrics.END_TO_END
    }
    result = {
        "workload": workload,
        "seed": seed,
        "sizing": WORKLOADS[workload].full,
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
        "repeats_exactly": repeats,
        "end_to_end": end_to_end,
    }
    if traced:
        # Phase timers are those of the fastest pass, so they add up to the
        # reported ``pipeline_s``.
        best = min(passes, key=lambda p: p["end_to_end"]["pipeline_s"])
        result["per_layer"] = metrics.layer_metrics(
            best["phases"], best["counts"], best["cache_hit_rate"],
            traced["traced"], best["end_to_end"]["pipeline_s"],
        )
    return result


def driver_line(result: dict, trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    if trace:
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        values = result["per_layer"]
    else:
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        values = {k: v["value"] for k, v in result["end_to_end"].items()}
    return json.dumps({
        "correct": result["failed"] == 0 and result["repeats_exactly"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(driver_line(result, bool(args.trace)))


if __name__ == "__main__":
    main()
