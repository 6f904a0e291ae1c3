"""Shared-memory smoke: a leak-checked 2-worker sweep with a traced artifact.

CI runs this module to prove the zero-copy parallel path stays wired and
clean end-to-end: a small budget sweep fans out across two work-stealing
workers under :func:`repro.obs.observed`, and the module asserts that

* ``/dev/shm`` holds exactly the same entries after the sweep as before —
  the arena unlinked every segment it created (no orphans from the sweep,
  no orphans from worker exit);
* the parallel results are bit-identical to a serial sweep of the same
  ladder;
* the session the sweep leaves behind is still usable: its heap-file
  columns were rebound to views of the sweep's arena, so after that arena
  has been collected the first design is evaluated under the session again
  and must still equal serial, and every column of its heap files must
  equal a fresh sessionless build (a view that outlived its mapping reads
  unmapped pages and takes the interpreter down);
* the trace artifact records the new machinery at work: ``sweep.steal``
  spans and positive ``engine.shm.bytes`` / ``engine.shm.attaches``
  counters (on platforms without a shm mount the sweep falls back to plain
  snapshots and only the span + leak checks apply).
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

import numpy as np

from repro.design.designer import CoraddDesigner, DesignerConfig
from repro.engine import EvalSession, ParallelSweep, shm_available, use_session
from repro.experiments.harness import CM_PROBE, evaluate_design
from repro.obs import observed
from repro.workloads.registry import make


def _shm_entries() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


def _span_names(spans: list[dict]) -> set[str]:
    out: set[str] = set()
    for node in spans:
        out.add(node["name"])
        out |= _span_names(node.get("children", []))
    return out


def _assert_identical(a, b) -> None:
    assert a.real_seconds == b.real_seconds
    for qname, x in a.plans.items():
        y = b.plans[qname]
        assert x.plan == y.plan and x.object_name == y.object_name
        assert x.result.cost == y.result.cost
        assert np.array_equal(x.result.mask, y.result.mask)


def run_shm_smoke(path: str | Path = "TRACE_shm_smoke.json") -> dict:
    """Run the leak-checked sweep, write the trace, verify it from disk."""
    inst = make("tpch", scale=0.05, seed=11)
    designer = CoraddDesigner(
        inst.flat_tables, inst.workload, inst.primary_keys, inst.fk_attrs,
        config=DesignerConfig(t0=1, alphas=(0.0, 0.5), use_feedback=False),
    )
    base = inst.total_base_bytes()
    designs = [designer.design(int(base * f)) for f in (0.5, 1.0, 1.5, 2.0)]

    with use_session(EvalSession()):
        serial = [evaluate_design(d) for d in designs]

    before = _shm_entries()
    session = EvalSession()
    with observed("shm-smoke") as obs:
        sweep = ParallelSweep(workers=2)
        parallel = sweep.map(
            evaluate_design, designs, session=session, probe=CM_PROBE
        )
    leaked = _shm_entries() - before
    assert not leaked, f"sweep leaked shared-memory segments: {sorted(leaked)}"
    for a, b in zip(serial, parallel):
        _assert_identical(a, b)
    gc.collect()
    with use_session(session):
        _assert_identical(serial[0], evaluate_design(designs[0]))
        shared = designs[0].materialize()
    # Cached plans never read a column; compare the bytes themselves.
    for name, obj in designs[0].materialize().objects.items():
        fresh, kept = obj.heapfile.table, shared.object(name).heapfile.table
        for column in fresh.column_names:
            assert np.array_equal(fresh.column(column), kept.column(column))

    written = obs.write(path)
    report = json.loads(written.read_text())
    if sweep.parallel:
        names = _span_names(report["trace"]["spans"])
        assert "sweep.steal" in names, sorted(names)
        counters = report["metrics"]["counters"]
        assert counters.get("sweep.steal.dispatched", 0) > 0, counters
        if shm_available():
            assert counters.get("engine.shm.bytes", 0) > 0, counters
            assert counters.get("engine.shm.attaches", 0) > 0, counters
            assert sweep.last_stats["shm_bytes"] > 0
    return report


if __name__ == "__main__":
    report = run_shm_smoke()
    counters = report["metrics"]["counters"]
    print(
        "shm smoke OK: no leaked segments, "
        f"{counters.get('engine.shm.bytes', 0):.0f} bytes registered, "
        f"{counters.get('engine.shm.attaches', 0):.0f} worker attaches, "
        f"{counters.get('sweep.steal.dispatched', 0):.0f} stolen tasks"
    )
    if os.environ.get("REPRO_KEEP_TRACE", "0") != "1":
        Path("TRACE_shm_smoke.json").unlink()
