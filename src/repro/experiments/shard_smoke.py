"""Sharded-storage smoke: pruning, bit-identity and shard-parallel sweeps.

CI runs this module to prove the sharded physical path stays wired
end-to-end on a real workload: a small SSB instance is partitioned with the
correlation-chosen shard key (the ``ssb-sharded`` registry variant), and
the module asserts that

* every workload query answers **bit-identically** to the unsharded
  reference heap file — same selected source rows, same aggregate inputs —
  while shard pruning avoids a positive number of pages across the suite;
* a 2-worker shard-parallel sweep returns exactly the serial plan choices
  (plan strings, cost dataclasses and masks compare equal, not approx);
* the trace artifact records the new machinery at work: ``shard.prune``
  spans plus positive ``engine.shard.shards_pruned`` and
  ``engine.shard.shard_parallel_tasks`` counters.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.engine import EvalSession, ParallelSweep, use_session
from repro.obs import observed
from repro.storage.disk import DiskModel
from repro.storage.executor import PhysicalDatabase, PhysicalObject
from repro.storage.layout import HeapFile
from repro.storage.sharded import (
    run_workload_shard_parallel,
    sharded_fact_object,
)
from repro.workloads.registry import make

FACT = "lineorder"


def _span_names(spans: list[dict]) -> set[str]:
    out: set[str] = set()
    for node in spans:
        out.add(node["name"])
        out |= _span_names(node.get("children", []))
    return out


def _selected_sources(hf, result) -> np.ndarray:
    return np.sort(np.asarray(hf.source_rowids)[result.mask])


def run_shard_smoke(path: str | Path = "TRACE_shard_smoke.json") -> dict:
    """Run the sharded/unsharded comparison, write and verify the trace."""
    inst = make("ssb-sharded", scale=0.02, seed=7)
    spec = inst.sharding[FACT]
    flat = inst.flat_tables[FACT]
    disk = DiskModel()
    db = PhysicalDatabase(
        [sharded_fact_object(flat, FACT, inst.primary_keys[FACT], spec, disk)]
    )
    ref = PhysicalDatabase(
        [PhysicalObject(HeapFile(flat, tuple(inst.primary_keys[FACT]), disk,
                                 name=FACT))]
    )
    shf = db.object(FACT).heapfile
    ref_hf = ref.object(FACT).heapfile

    # Bit-identity across the whole workload, with pruning doing real work.
    pages_avoided = 0
    for q in inst.workload:
        res = db.run(q).result
        res_ref = ref.run(q).result
        assert np.array_equal(
            _selected_sources(shf, res), _selected_sources(ref_hf, res_ref)
        ), f"{q.name}: sharded answer diverges from unsharded reference"
        pages_avoided += res.pages_avoided
    assert pages_avoided > 0, "no query pruned any shard"

    # Shard-parallel sweep: bit-identical to serial.  The serial arm must
    # execute under the session, not replay the plans the loop above
    # memoized.
    db.invalidate_plans()
    with observed("shard-smoke") as obs:
        with use_session(EvalSession()) as session:
            serial = {q.name: db.run(q) for q in inst.workload}
            sweep = ParallelSweep(workers=2)
            parallel = run_workload_shard_parallel(
                db, inst.workload, sweep, session=session
            )
    for name, s in serial.items():
        p = parallel[name]
        assert p.object_name == s.object_name and p.plan == s.plan
        assert p.result.cost == s.result.cost
        assert np.array_equal(p.result.mask, s.result.mask)

    written = obs.write(path)
    report = json.loads(written.read_text())
    names = _span_names(report["trace"]["spans"])
    assert "shard.prune" in names, sorted(names)
    counters = report["metrics"]["counters"]
    assert counters.get("engine.shard.shards_pruned", 0) > 0, counters
    assert counters.get("engine.shard.shard_parallel_tasks", 0) > 0, counters
    report["pages_avoided"] = pages_avoided
    return report


if __name__ == "__main__":
    report = run_shard_smoke()
    counters = report["metrics"]["counters"]
    print(
        "sharded smoke OK: bit-identical answers, "
        f"{report['pages_avoided']} pages avoided serially, "
        f"{counters.get('engine.shard.shards_pruned', 0):.0f} shards pruned, "
        f"{counters.get('engine.shard.shard_parallel_tasks', 0):.0f} "
        "shard-parallel tasks"
    )
    if os.environ.get("REPRO_KEEP_TRACE", "0") != "1":
        Path("TRACE_shard_smoke.json").unlink()
