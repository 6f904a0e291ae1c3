"""Run all four workloads and print every metric by name with its unit.

    PYTHONPATH=src python -m benchmarks.e2e --seed 0

Per workload: one traced pass, then untraced passes until their timed
regions add up to ``--seconds`` (at least three), each in a fresh child
process.  The summary
(reported value, median, min, max, sample count per metric per workload, plus
the machine and versions) is written to ``--out``; ``python -m benchmarks.e2e.compare``
reads two such files.  ``--write-spec`` regenerates ``BENCHMARK.json`` from
the metric and workload tables instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from importlib.metadata import version
from pathlib import Path

from benchmarks.e2e import metrics, run
from benchmarks.e2e.workloads import WORKERS, WORKLOADS

DEFAULT_OUT = run.HERE / "results" / "latest.json"


def benchmark_spec() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 15,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _source in metrics.PER_LAYER
        ],
    }


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def run_all(seed: int, seconds: float, out: Path) -> dict:
    report = {"environment": environment(seed), "workloads": {}}
    e2e_units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    layer_units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    for name in WORKLOADS:
        result = run.measure(name, seed, seconds, trace=True)
        report["workloads"][name] = result
        share = result["failed"] / result["attempted"]
        print(f"\n== {name}: {result['attempted']} checks, failed_share = "
              f"{share:g}, repeats exactly: {result['repeats_exactly']}")
        for metric, stats in result["end_to_end"].items():
            print(f"  {metric:<34} {stats['value']:>14.6g} {e2e_units[metric]:<8}"
                  f" [{stats['min']:.6g} .. {stats['max']:.6g}] n={stats['n']}")
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<34} {value:>14.6g} {layer_units[metric]}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten to {out}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    if args.write_spec:
        path = run.ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        print(f"written to {path}")
        return
    report = run_all(args.seed, args.seconds, args.out)
    failed = any(
        r["failed"] or not r["repeats_exactly"]
        for r in report["workloads"].values()
    )
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
