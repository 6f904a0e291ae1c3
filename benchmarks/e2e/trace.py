"""The traced pass: spans around the layers' public entry points.

Installed only for the one traced pass of a workload, from outside the
program: each entry point in ``ENTRY_POINTS`` is replaced by a wrapper that
records a span (name, start, end, parent) in memory.  Spans inside ``src/``
and ``repro.obs`` counters are not read.  A layer's self time is its span
minus the interval its child spans cover; the spans are written out once,
when the pass ends.

Forked sweep workers inherit the wrappers but record into their own copy of
the list, which dies with them: worker time shows up as self time of the
``engine.parallel.map`` span that waited for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (span name = layer metric prefix, module, entry point)
ENTRY_POINTS = (
    ("workloads.dedup", "repro.workloads.compress", "dedup_log"),
    ("workloads.compress", "repro.workloads.compress", "compress_workload"),
    ("stats.profile", "repro.stats.collector", "TableStatistics.__init__"),
    ("stats.estimate_layout", "repro.stats.collector",
     "TableStatistics.estimate_layout"),
    ("costmodel.query_seconds", "repro.costmodel.correlation_aware",
     "CorrelationAwareCostModel.query_seconds"),
    ("design.enumerate", "repro.design.enumerate",
     "CandidateEnumerator.enumerate"),
    ("design.feedback", "repro.design.feedback", "run_ilp_feedback"),
    ("design.ilp_formulation", "repro.design.ilp_formulation",
     "choose_candidates"),
    ("design.update", "repro.design.designer", "CoraddDesigner.update"),
    ("design.migration", "repro.design.migration", "execute_transition"),
    ("ilp.solve", "repro.ilp.solver", "solve"),
    ("cm.design", "repro.cm.designer", "CMDesigner.design"),
    ("cm.build", "repro.cm.correlation_map", "CorrelationMap.__init__"),
    ("engine.run", "repro.storage.executor", "PhysicalDatabase.run"),
    ("engine.parallel.map", "repro.engine.parallel", "ParallelSweep.map"),
    ("storage.heapfile", "repro.storage.layout", "HeapFile.__init__"),
    ("storage.refresh", "repro.storage.update", "RefreshExecutor.apply"),
)


class Tracer:
    """In-memory span recorder for one pass (single-threaded)."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.recording = False
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # Facts about calls that only their return value shows.
        self.ilp_backends: dict[str, int] = defaultdict(int)
        self.ilp_nonoptimal = 0
        self.sweep_stats: list[dict] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_solve(self, args, solution) -> None:
        self.ilp_backends[solution.backend] += 1
        self.ilp_nonoptimal += solution.status != "optimal"

    def _after_map(self, args, result) -> None:
        stats = args[0].last_stats
        if stats:
            self.sweep_stats.append(dict(stats))

    # ----------------------------------------------------------- installing

    def install(self) -> "Tracer":
        after = {
            "ilp.solve": self._after_solve,
            "engine.parallel.map": self._after_map,
        }
        for name, module_name, qualname in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after.get(name))
            self._patch(owner, attr, original, wrapper)
            if not owner_name:
                # ``from m import f`` copies the binding: patch every repro
                # module whose attribute *is* the original function.
                for other_name, other in list(sys.modules.items()):
                    if (
                        other is not module
                        and other_name.startswith("repro")
                        and getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting

    def layer_metrics(self) -> dict[str, float]:
        """``<span>.self_s`` and ``<span>.calls`` per entry point, plus the
        total time covered by any span (``covered_s``)."""
        child_s = [0.0] * len(self.spans)
        covered = 0.0
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                covered += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), inner in zip(self.spans, child_s):
            out[f"{name}.self_s"] += (end - start) - inner
            out[f"{name}.calls"] += 1
        out["covered_s"] = covered
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }))
