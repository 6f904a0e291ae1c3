"""What one pass of one workload measures, and how it is checked.

A pass is a sequence of *phases* — ``perf_counter`` pairs at the benchmark's
own call sites, named after the layer metric they feed.  The timed region of
a pass is the sum of its phases; oracle checks run between phases with the
clock stopped.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager

from benchmarks.e2e.oracle import Oracle


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has reaped
    (forked sweep workers are joined before ``ParallelSweep.map`` returns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Recorder:
    """Phase timers, counts from public return values, and check tallies."""

    def __init__(self, oracle: Oracle, tracer=None) -> None:
        self.oracle = oracle
        self.tracer = tracer
        self.phase_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.pipeline_cpu_s = 0.0
        self.workload_model_s = 0.0
        self.maintenance_model_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.sessions: list = []

    @property
    def pipeline_s(self) -> float:
        return sum(self.phase_s.values())

    @contextmanager
    def phase(self, name: str):
        """Time one phase into ``phase_s[name]`` (phases never nest)."""
        if self.tracer is not None:
            self.tracer.recording = True
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] += time.perf_counter() - start
            self.pipeline_cpu_s += _cpu_seconds() - cpu0
            if self.tracer is not None:
                self.tracer.recording = False

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def session(self):
        """A fresh ``EvalSession`` whose cache counters feed the hit rate."""
        from repro.engine import EvalSession

        session = EvalSession()
        self.sessions.append(session)
        return session

    # ------------------------------------------------------------- scoring

    def score_design(self, design) -> None:
        """Checks that need no data: the design fits its budget and its ILP
        solved to optimality.  Deploying it is priced into the maintenance
        metric by the migration module's own build model: one seek, a
        sequential read of the fact and a sequential write of the object."""
        self.check(design.size_bytes <= design.budget_bytes)
        self.check(design.ilp.status == "optimal")
        disk = design.disk
        for cand in design.chosen:
            source = design.flat_tables[cand.fact].total_bytes()
            self.maintenance_model_s += disk.seek_cost_s + (
                source + cand.size_bytes
            ) / (disk.sequential_mb_per_s * 1024 * 1024)

    def score_evaluation(self, db, workload, choices, prefix="storage") -> None:
        """One deployed database answered ``workload`` with ``choices``
        (query name -> PlanChoice): add its frequency-weighted simulated
        seconds and modeled I/O, and check every answer against the oracle."""
        for query in workload:
            choice = choices[query.name]
            cost = choice.result.cost
            self.workload_model_s += query.frequency * cost.seconds
            self.counts[f"{prefix}.pages_read"] += cost.pages_read
            self.counts[f"{prefix}.seeks"] += cost.seeks
            self.check(self.oracle.check(db, query, choice))

    def score_refresh(self, outcome) -> None:
        self.maintenance_model_s += outcome.seconds
        self.counts["storage.refresh.page_reads"] += outcome.page_reads
        self.counts["storage.refresh.page_writes"] += outcome.page_writes
        self.counts["storage.refresh.compactions"] += outcome.compactions
        self.counts["storage.refresh.rows"] += outcome.rows

    def cache_hit_rate(self) -> float:
        hits = misses = 0
        for session in self.sessions:
            for key, value in session.stats.items():
                if key.endswith("_hits"):
                    hits += value
                elif key.endswith("_misses"):
                    misses += value
        return hits / (hits + misses) if hits + misses else 0.0
