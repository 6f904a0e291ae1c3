"""Compare two result files of ``python -m benchmarks.e2e``.

    python -m benchmarks.e2e.compare A.json B.json
    python -m benchmarks.e2e.compare --selfcheck [--seed N]

One row per workload x end-to-end metric: both reported values (fastest pass
for times, median otherwise) with their min..max, the ratio B/A (base: A),
and a verdict.  ``worse`` — B's value is worse than A's by more than the
metric's bound.  ``unresolved`` — the passes of one side spread wider than
the bound and the two ranges overlap, so the values say nothing either way.  ``ok`` otherwise.  Metrics that repeat exactly for a
seed (model seconds, modeled pages, failed checks) must be identical; any
difference is reported as ``changed``.  Exit status is non-zero on ``worse``
or ``changed``.  ``--selfcheck`` measures the same code twice, workload by
workload, and compares.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.e2e import metrics


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max((s["max"] - s["min"]) / abs(s["value"]) for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Rows of the comparison table, and whether every verdict passes."""
    if a["environment"]["seed"] != b["environment"]["seed"]:
        raise SystemExit("the two files were measured with different seeds")
    rows = [
        f"{'workload':<16} {'metric':<22} {'A value [min..max]':<36} "
        f"{'B value [min..max]':<36} {'B/A':>8}  verdict"
    ]
    passed = True

    def fmt(s: dict) -> str:
        return f"{s['value']:.6g} [{s['min']:.6g}..{s['max']:.6g}] n={s['n']}"

    for name, ra in a["workloads"].items():
        rb = b["workloads"][name]
        for metric, _unit, better, bound in metrics.END_TO_END:
            sa, sb = ra["end_to_end"][metric], rb["end_to_end"][metric]
            if metric in metrics.EXACT:
                same = all(sa[k] == sb[k] for k in ("value", "min", "max"))
                word = "ok" if same else "changed"
            else:
                word = verdict(sa, sb, better, bound)
            passed &= word in ("ok", "unresolved")
            rows.append(
                f"{name:<16} {metric:<22} {fmt(sa):<36} {fmt(sb):<36} "
                f"{sb['value'] / sa['value']:>8.4f}  {word}"
            )
        exact = {
            "failed": (ra["failed"], rb["failed"]),
            "storage.pages_read": (
                ra["per_layer"]["storage.pages_read"],
                rb["per_layer"]["storage.pages_read"],
            ),
        }
        for metric, (va, vb) in exact.items():
            word = "ok" if va == vb else "changed"
            passed &= word == "ok"
            rows.append(
                f"{name:<16} {metric:<22} {va!s:<36} {vb!s:<36} {'':>8}  {word}"
            )
    return rows, passed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.selfcheck:
        from benchmarks.e2e import run
        from benchmarks.e2e.__main__ import benchmark_spec, environment

        # Side by side per workload, so that a slow minute of the box hits
        # both sides of a row and not one side of every row.
        seconds = benchmark_spec()["run_seconds"]
        a, b = (
            {"environment": environment(args.seed), "workloads": {}}
            for _side in "AB"
        )
        for name in run.WORKLOADS:
            for report in (a, b):
                report["workloads"][name] = run.measure(
                    name, args.seed, seconds, trace=True
                )
    elif len(args.files) == 2:
        a, b = (json.loads(path.read_text()) for path in args.files)
    else:
        parser.error("give two result files, or --selfcheck")
    rows, passed = compare(a, b)
    print("\n".join(rows))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
