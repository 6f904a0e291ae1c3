"""Forked design sweeps over one inherited session, on the standard-library
process pool.

CORADD is evaluated over budget *ladders*; each budget's evaluation is
independent given the data (caching is observationally invisible, so
evaluation order — and therefore process placement — cannot change any
result).  A :class:`ParallelSweep` exploits that:

1. the parent **warms** the shared :class:`~repro.engine.session.
   EvalSession` by running the first work item serially (the cheapest budget
   seeds the caches every later budget reuses: heap files, CM designs,
   masks, scan costs).  A sweep without a session has no cache to warm and
   hands out every item;
2. the remaining items go to a :class:`concurrent.futures.
   ProcessPoolExecutor` whose workers are **forked** from the parent, so
   they inherit the session — the very object, copy-on-write, heap files and
   all.  Nothing but item indices is shipped from parent to worker, and an
   idle worker pulls the next index from the pool's queue, so a straggler
   item delays only itself;
3. each item comes home as its result, with the worker's pid and the
   seconds the item took (the ``last_stats`` accounting).  Nothing else
   comes home: what a worker adds to its copy of the session dies with the
   worker;
4. **one recovery rule**: an item that does not come home — it raised, its
   result could not be pickled, or a worker died and broke the pool — runs
   again in the parent once the pool is shut down, serially, under the
   parent session, where no fault site fires.  So results are bit-identical
   to serial under any fault schedule (see :mod:`repro.engine.faults`).
   There is no timeout: an item that hangs holds up the sweep as it would a
   serial loop.

This is the only parallel path, and nothing about it is chosen by the
caller but the pool size.  With ``workers <= 1``, on platforms without
``fork`` (Windows), or when at most one item would be left to hand out after
the warm-up, the sweep is a plain serial loop under the ambient session —
same results, no subprocesses.  Workers inherit the parent via fork, so work
functions may be closures; only task indices and results cross process
boundaries.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.engine import faults
from repro.engine.session import EvalSession, ambient_scope, use_session
from repro.obs.trace import span


def fork_available() -> bool:
    """Whether the platform can fork worker processes."""
    return "fork" in mp.get_all_start_methods()


#: In a worker: the ``(fn, items, session)`` of the sweep it was forked for.
_SWEEP: tuple | None = None


def _init_worker(fn, items, session, plan) -> None:
    """Pool initializer, run once in each forked worker.  Its arguments
    arrive through ``fork``, not pickle, which is why ``fn`` may be a
    closure.

    The fork inherited the parent's ambient session, tracer and drift
    monitor; they are dropped so a worker only ever evaluates under the
    session the sweep was given (or none), and records nothing the parent
    would never see (the monitor's EWMA is order-dependent — it only ever
    observes parent-side evaluations, which a serial run covers
    completely)."""
    global _SWEEP
    from repro.engine.session import _ACTIVE
    from repro.obs.drift import _MONITOR
    from repro.obs.trace import _TRACER

    for ambient in (_ACTIVE, _TRACER, _MONITOR):
        ambient.set(None)
    faults._FAULTS.set(plan)
    _SWEEP = (fn, items, session)


def _run_item(index: int):
    """Run item ``index`` in a worker: ``(pid, seconds, result)``, or
    ``None`` when the item raised — the parent then runs it itself."""
    fn, items, session = _SWEEP
    started = perf_counter()
    try:
        with ambient_scope(session):
            faults.fire("sweep.task", key=index)
            result = fn(items[index])
    except Exception:
        return None
    return os.getpid(), perf_counter() - started, result


class ParallelSweep:
    """Shards a sweep's work items across forked worker processes.

    ``workers`` is the pool size (``1`` means serial).  With a session the
    first item runs in the parent before fanning out, warming the session
    every worker then inherits — sweep items share most of their cache
    footprint.  What comes home is each item's result; the session keeps what the parent ran under it and gains nothing from the
    workers.  An item that does not come home runs in the parent (the
    module's one recovery rule).

    Results are returned in item order and are bit-identical to a serial
    run; the only observable differences are wall-clock, ``session.stats``
    and ``last_stats``.

    ``last_stats`` is the last ``map`` call's accounting.  It is empty
    unless that call forked workers (so empty after any serial fallback);
    after a forked run it holds exactly:

    * ``workers`` — the pool size the run used;
    * ``wall_seconds`` — parent wall clock of the whole forked ``map``;
    * ``worker_busy_seconds`` / ``worker_tasks`` — per worker that answered
      an item, seconds spent inside items and items answered;
    * ``tasks`` — items handed to the pool (all but the warm-up item);
    * ``parent_runs`` — items the pool did not bring home, which the parent
      ran.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.last_stats: dict = {}

    @property
    def parallel(self) -> bool:
        return self.workers > 1 and fork_available()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        session: EvalSession | None = None,
    ) -> list[Any]:
        """``[fn(item) for item in items]``, sharded across the pool.

        With ``session``, work runs under it ambiently: item 0 warms it in
        the parent and forked workers inherit it as the parent then holds
        it.  Their additions stay in their copies, so after a forked ``map``
        the session holds what the parent itself ran under it: item 0, and
        any item the pool did not bring home.
        """
        items = list(items)
        self.last_stats = {}
        # With a session item 0 warms it in the parent; a pool is worth
        # forking only when at least two items are left to hand out.
        handed_out = len(items) - (session is not None)
        if not self.parallel or handed_out < 2:
            with ambient_scope(session):
                return [fn(item) for item in items]
        return self._map_forked(fn, items, session)

    def _map_forked(
        self,
        fn: Callable[[Any], Any],
        items: list,
        session: EvalSession | None,
    ) -> list[Any]:
        # Imported here: only a forked sweep needs the pool, and importing
        # it costs every ``import repro`` tens of milliseconds.
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        results: list[Any] = [None] * len(items)
        started = perf_counter()
        if session is not None:
            with use_session(session):
                results[0] = fn(items[0])
        indices = range(int(session is not None), len(items))
        workers = min(self.workers, len(indices))
        per_worker: dict[int, list] = {}  # pid -> [busy seconds, tasks]
        stranded: list[int] = []
        with span("sweep.steal", tasks=len(indices)):
            pool = ProcessPoolExecutor(
                workers,
                mp_context=mp.get_context("fork"),
                initializer=_init_worker,
                initargs=(fn, items, session, faults.get_faults()),
            )
            try:
                futures = {}
                for index in indices:
                    try:
                        futures[index] = pool.submit(_run_item, index)
                    except BrokenProcessPool:
                        break
                for index in indices:
                    outcome = None
                    if index in futures:
                        try:
                            outcome = futures[index].result()
                        except Exception:
                            pass  # a broken pool, or an unpicklable result
                    if outcome is None:
                        stranded.append(index)
                        continue
                    pid, seconds, results[index] = outcome
                    busy = per_worker.setdefault(pid, [0.0, 0])
                    busy[0] += seconds
                    busy[1] += 1
            finally:
                pool.shutdown(cancel_futures=True)
            # The recovery rule: what did not come home runs here, under the
            # parent session.  Fault sites do not fire in the parent, so this
            # terminates under any fault schedule.
            with ambient_scope(session):
                for index in stranded:
                    results[index] = fn(items[index])
        self.last_stats = {
            "workers": workers,
            "tasks": len(indices),
            "wall_seconds": perf_counter() - started,
            "worker_busy_seconds": [busy for busy, _ in per_worker.values()],
            "worker_tasks": [tasks for _, tasks in per_worker.values()],
            "parent_runs": len(stranded),
        }
        return results
