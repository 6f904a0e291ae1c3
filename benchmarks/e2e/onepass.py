"""One pass of one workload: set up from the seed, run the pipeline, check.

``python -m benchmarks.e2e.onepass --workload W --seed N [--trace 1]`` is the
child process the driver starts once per pass, so that no session, memo or
import state leaks between passes and peak RSS and CPU are per pass.  It
prints one JSON object.  ``run_pass`` is the same thing in-process (the
smoke test uses it).
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

RESULTS = Path(__file__).parent / "results"


def run_pass(
    workload: str, seed: int, sizing: str = "full", traced: bool = False,
    trace_path: Path | None = None, tamper=None,
) -> dict:
    """Run one pass and return its raw measurements.  A traced pass writes
    its spans to ``trace_path`` when given.  ``tamper(inputs)`` lets a test
    corrupt the inputs between set-up and the pipeline."""
    start = time.perf_counter()
    # Imported here so that ``import repro`` (numpy, scipy) is inside set-up.
    from benchmarks.e2e.recorder import Recorder
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    size = getattr(spec, sizing)
    inputs = spec.setup(size, seed)
    setup_s = time.perf_counter() - start
    if tamper is not None:
        tamper(inputs)

    tracer = Tracer().install() if traced else None
    rec = Recorder(inputs.oracle, tracer)
    try:
        spec.run(size, inputs, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "end_to_end": {
            "pipeline_s": rec.pipeline_s,
            "pipeline_cpu_s": rec.pipeline_cpu_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "workload_model_s": rec.workload_model_s,
            "maintenance_model_s": rec.maintenance_model_s,
        },
        "attempted": rec.attempted,
        "failed": rec.failed,
        "phases": dict(rec.phase_s),
        "counts": dict(rec.counts),
        "cache_hit_rate": rec.cache_hit_rate(),
    }
    if tracer is not None:
        result["traced"] = {
            "pipeline_s": rec.pipeline_s,
            "spans": tracer.layer_metrics(),
            "ilp_backends": dict(tracer.ilp_backends),
            "ilp_nonoptimal": tracer.ilp_nonoptimal,
            "sweep_stats": tracer.sweep_stats,
        }
        if trace_path is not None:
            tracer.write(trace_path)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_pass(
        args.workload, args.seed, traced=bool(args.trace),
        trace_path=RESULTS / f"trace_{args.workload}.json",
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
