"""The end-to-end contract, pinned outside the frozen benchmark tree.

Every workload of :mod:`benchmarks.e2e`, at seed 0 and at both its tiny and
its full sizing, must reproduce what ``tests/data/e2e_contract.json``
records of its pass:

* the model metrics ``workload_model_s`` and ``maintenance_model_s``,
  compared exactly (they repeat bit for bit);
* the check tallies ``attempted`` and ``failed``, and every ``counts`` entry;
* the ``Design.fingerprint()`` of every design the pass scores, in order;
* on ``log-design``, the ``CompressedWorkload.fingerprint()`` of the
  representatives it designs for.

A change that moves any of these regenerates the file with

    PYTHONPATH=src python -m tests.test_e2e_contract --write

and declares each moved value with its cause.  The file records the NumPy
and SciPy versions it was written under: kernels differ between releases,
so a mismatch names both sets.

Tiny passes come from the smoke test's cache (``tiny_pass``), so no tiny
pass runs twice in one test session.  The fingerprints are read by wrapping
``Recorder.score_design`` and ``compress_workload`` for the duration of each
pass; the wrapper goes around the smoke module's ``run_pass`` when this
module is imported, which pytest does before it runs any test.
"""

from __future__ import annotations

import argparse
import functools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from benchmarks.e2e import test_e2e_smoke as smoke
from benchmarks.e2e.workloads import WORKLOADS

CONTRACT = Path(__file__).parent / "data" / "e2e_contract.json"
SEED = 0
SIZINGS = ("tiny", "full")

#: (workload, seed, sizing) -> what the wrappers saw during that pass.
_SEEN: dict[tuple, dict] = {}


def _observing(run_pass):
    """``run_pass`` that also records the fingerprints of what it scored.
    A tampered pass (the smoke test's checker test) is not recorded."""

    @functools.wraps(run_pass)
    def observed(workload, seed, sizing="full", **kwargs):
        if kwargs.get("tamper") is not None:
            return run_pass(workload, seed, sizing, **kwargs)
        from benchmarks.e2e.recorder import Recorder
        from repro.workloads import compress

        seen: dict = {"designs": []}
        score_design = Recorder.score_design
        compress_workload = compress.compress_workload

        def scoring(self, design):
            seen["designs"].append(design.fingerprint())
            return score_design(self, design)

        def compressing(*args, **kw):
            compressed = compress_workload(*args, **kw)
            seen["compressed"] = compressed.fingerprint()
            return compressed

        Recorder.score_design = scoring
        compress.compress_workload = compressing
        try:
            result = run_pass(workload, seed, sizing, **kwargs)
        finally:
            Recorder.score_design = score_design
            compress.compress_workload = compress_workload
        _SEEN[(workload, seed, sizing)] = seen
        return result

    return observed


smoke.run_pass = _observing(smoke.run_pass)


@functools.cache
def _full_pass(workload: str) -> dict:
    return smoke.run_pass(workload, SEED, "full")


def observe(workload: str, sizing: str) -> dict:
    """The contract entry of one pass, as this checkout computes it."""
    if sizing == "tiny":
        result = smoke.tiny_pass(workload, seed=SEED)
    else:
        result = _full_pass(workload)
    e2e = result["end_to_end"]
    return {
        "workload_model_s": e2e["workload_model_s"],
        "maintenance_model_s": e2e["maintenance_model_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "counts": dict(sorted(result["counts"].items())),
        **_SEEN[(workload, SEED, sizing)],
    }


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def contract() -> dict:
    """Every entry of the contract, computed now."""
    return {
        "versions": versions(),
        "passes": {
            f"{workload}/{sizing}": observe(workload, sizing)
            for workload in sorted(WORKLOADS)
            for sizing in SIZINGS
        },
    }


@functools.cache
def committed() -> dict:
    return json.loads(CONTRACT.read_text())


@pytest.mark.parametrize("sizing", SIZINGS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pass_matches_the_contract(workload, sizing):
    pinned = committed()["passes"][f"{workload}/{sizing}"]
    now = observe(workload, sizing)
    moved = {
        name: (pinned.get(name), now.get(name))
        for name in sorted(set(pinned) | set(now))
        if pinned.get(name) != now.get(name)
    }
    assert not moved, (
        f"{workload}/{sizing} moved (pinned, now): {moved}; contract written "
        f"under {committed()['versions']}, running under {versions()}"
    )


def test_contract_covers_every_workload():
    assert set(committed()["passes"]) == {
        f"{workload}/{sizing}" for workload in WORKLOADS for sizing in SIZINGS
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"regenerate {CONTRACT.name} from this checkout",
    )
    args = parser.parse_args()
    if not args.write:
        parser.error("nothing to do: pass --write to regenerate the contract")
    CONTRACT.parent.mkdir(parents=True, exist_ok=True)
    CONTRACT.write_text(json.dumps(contract(), indent=1) + "\n")
    print(f"wrote {CONTRACT}")


if __name__ == "__main__":
    main()
