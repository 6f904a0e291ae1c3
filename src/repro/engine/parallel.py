"""Multiprocess sharding of design sweeps over one inherited session.

CORADD is evaluated over budget *ladders*; each budget's evaluation is
independent given the data (PR 2 made caching observationally invisible, so
evaluation order — and therefore process placement — cannot change any
result).  A :class:`ParallelSweep` exploits that:

1. the parent **warms** the shared :class:`~repro.engine.session.
   EvalSession` by running the first work item serially (the cheapest budget
   seeds the caches every later budget reuses: heap files, CM designs,
   masks, scan costs).  A sweep without a session has no cache to warm and
   fans out at once;
2. **forked workers inherit the session** — the very object, copy-on-write,
   heap files and all — and evaluate under it.  Nothing is shipped from
   parent to worker: ``fork`` is the transport, and a worker respawned
   mid-sweep forks from the parent as it is then;
3. remaining items feed a **work-stealing dispatcher**: every worker holds
   at most one item, and the moment it reports a result it is handed the
   next pending item.  No worker owns a pre-cut chunk, so a straggler item
   (the big-budget ILP+materialize points) delays only itself while idle
   workers drain the rest of the ladder;
4. each item's result returns with that item's **metrics** (what the item
   counted and observed, and what it added to the session's cache
   counters), which the parent folds into its ambient registry on receipt.
   Nothing else comes home: what a worker adds to its copy of the session
   dies with the worker, and the parent's session holds what the warm-up
   item left in it;
5. the dispatcher is a **supervisor**: it waits on result pipes *and*
   process sentinels, so dead workers (crash, OOM, kill) and hung workers
   (``item_timeout_s``) are detected, their in-flight items requeued to
   survivors, replacements respawned with backoff, and — if the whole pool
   collapses — remaining items run serially in the parent.  Results stay
   bit-identical to serial under any fault schedule (each item's metrics
   merge exactly once; see :mod:`repro.engine.faults` for injecting
   deterministic chaos).

This is the only parallel path, and nothing about it is chosen by the
caller.  With ``workers <= 1``, on platforms without ``fork`` (Windows), or
when at most one item would be left to hand out after the warm-up, the
sweep is a plain serial loop under the ambient session — same results, no
subprocesses.  Workers inherit the parent via fork, so work functions may
be closures; only task indices, results and metrics payloads cross process
boundaries.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from collections import deque
from multiprocessing.connection import wait as mp_wait
from time import perf_counter, sleep
from typing import Any, Callable, Iterable, Sequence

from repro.engine import faults
from repro.engine.session import EvalSession, ambient_scope, use_session
from repro.obs.metrics import MetricsRegistry, count, get_metrics, use_metrics
from repro.obs.trace import span


def fork_available() -> bool:
    """Whether the platform can fork worker processes."""
    return "fork" in mp.get_all_start_methods()


def _clear_inherited_ambient() -> None:
    from repro.engine.session import _ACTIVE
    from repro.obs.drift import _MONITOR
    from repro.obs.metrics import _METRICS
    from repro.obs.trace import _TRACER

    # The fork inherited the parent's ambient session; drop it so workers
    # only ever evaluate under the session the sweep was given (or none).
    # Likewise the parent's observability state: worker metrics ship home
    # as registry payloads on result messages (forked copies of the
    # parent's registry/tracer/monitor would record into the void, and the
    # monitor's EWMA is order-dependent — it only ever observes parent-side
    # evaluations, which a serial run covers completely).
    _ACTIVE.set(None)
    _METRICS.set(None)
    _TRACER.set(None)
    _MONITOR.set(None)


def _steal_worker(worker_id: int, payload, inbox, outbox) -> None:
    """One work-stealing worker: evaluates under the session it inherited
    through fork, pulling item indices until the ``None`` sentinel.  Every
    finished item is answered with its result and its own metrics — what
    the item recorded, its wall clock, and what it added to the session's
    cache counters.  The terminal message carries the worker's busy seconds
    so the parent can account idle time per worker.

    Failure protocol, one message per failure so the supervisor can react:

    * an exception inside one item (including an injected ``raise`` fault)
      answers ``("item-error", ...)`` — the worker stays up, the failed
      attempt's metrics are dropped with it (the retry, on whichever host,
      reports its own), and the supervisor requeues the item elsewhere;
    * anything else answers ``("fatal", ...)`` and exits.
    """
    _clear_inherited_ambient()
    fn, items, session, plan = payload
    busy = 0.0
    try:
        with faults.use_faults(plan):
            if session is not None:
                # The inherited counters are the parent's to publish: this
                # worker reports only what it adds to them.
                session.mark_metrics_published()
            while True:
                try:
                    index = inbox.recv()
                except EOFError:
                    return  # parent went away; nothing to report to
                if index is None:
                    break
                started = perf_counter()
                registry = MetricsRegistry()
                try:
                    with ambient_scope(session), use_metrics(registry):
                        faults.fire("sweep.task", key=index)
                        result = fn(items[index])
                except Exception:
                    # The attempt's registry is dropped here, and so are the
                    # cache counters it ran up: the retry reports its own.
                    if session is not None:
                        session.mark_metrics_published()
                    outbox.send(
                        ("item-error", worker_id, index, traceback.format_exc())
                    )
                    continue
                elapsed = perf_counter() - started
                busy += elapsed
                registry.inc("sweep.steal.tasks")
                registry.observe("sweep.steal.task_seconds", elapsed)
                if session is not None:
                    session.publish_metrics(registry)
                outbox.send(
                    ("result", worker_id, index, result, registry.export())
                )
            outbox.send(("done", worker_id, busy))
    except BaseException:
        try:
            outbox.send(("fatal", worker_id, traceback.format_exc()))
        except OSError:
            pass


class _WorkerHandle:
    """Parent-side record of one live worker: its process, the two pipe
    ends the parent holds, and what it is currently working on."""

    __slots__ = ("wid", "proc", "inbox", "outbox", "in_flight",
                 "dispatched_at")

    def __init__(self, wid, proc, inbox, outbox) -> None:
        self.wid = wid
        self.proc = proc
        self.inbox = inbox      # parent writes item indices, then None
        self.outbox = outbox    # parent reads result/error/done messages
        self.in_flight: int | None = None
        self.dispatched_at = 0.0

    def close(self) -> None:
        for conn in (self.inbox, self.outbox):
            try:
                conn.close()
            except OSError:
                pass


class _RoundState:
    """Book-keeping for one dispatch round."""

    __slots__ = ("pending", "attempts", "parent_units", "on_result")

    def __init__(self, indices, on_result) -> None:
        self.pending = deque(indices)
        self.attempts: dict[int, int] = {}
        self.parent_units: list[int] = []
        self.on_result = on_result


class _StealPool:
    """Parent side of the steal scheduler: a supervisor over per-worker
    pipe pairs.  Dispatch is demand-driven — a worker is handed its next
    unit the moment its previous result arrives — which is what keeps every
    worker busy while any work remains, regardless of how skewed the
    per-item costs are.

    Supervision: instead of blocking on a result queue the parent waits on
    every worker's result pipe *and* process sentinel (:meth:`_pump`, the
    one place it waits at all), so

    * a worker that dies (SIGKILL, OOM, injected crash) is detected the
      moment its sentinel fires: its result pipe is drained first — a fully
      delivered result is taken normally and **not** retried, so its
      metrics merge exactly once — then its in-flight unit is requeued to
      the surviving workers;
    * a worker stuck past ``item_timeout_s`` on one unit is killed and
      treated the same way;
    * lost workers are respawned with exponential backoff up to
      ``max_respawns`` (a respawn forks from the parent as it is then, whose
      session is the one the survivors forked from: nothing a worker
      computes is written back to it);
    * a unit that keeps failing (``max_item_retries`` exceeded) — or any
      unit stranded when the whole pool has collapsed — is executed in the
      parent, serially, under the parent session: the sweep *degrades*
      rather than deadlocks, and results stay bit-identical to serial.

    All recovery events surface as ``sweep.faults.*`` counters.
    """

    def __init__(
        self,
        ctx,
        workers: int,
        payload,
        *,
        parent_run=None,
        item_timeout_s: float | None = None,
        max_respawns: int | None = None,
        max_item_retries: int = 2,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        self.ctx = ctx
        self.size = workers
        self.payload = payload
        self.parent_run = parent_run
        self.item_timeout_s = item_timeout_s
        self.max_respawns = workers if max_respawns is None else max_respawns
        self.max_item_retries = max_item_retries
        self.respawn_backoff_s = respawn_backoff_s
        self.workers: dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._round: _RoundState | None = None
        self.worker_busy: dict[int, float] = {}
        self.worker_tasks: dict[int, int] = {}
        self.deaths = 0
        self.hung_kills = 0
        self.item_errors = 0
        self.requeues = 0
        self.respawns = 0
        self.parent_runs = 0
        self.collapsed = False
        self.last_error: str | None = None
        for _ in range(workers):
            self._spawn()

    # ------------------------------------------------------------- lifecycle

    def _spawn(self) -> _WorkerHandle:
        wid = self._next_wid
        self._next_wid += 1
        child_in, parent_in = self.ctx.Pipe(duplex=False)
        parent_out, child_out = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_steal_worker,
            args=(wid, self.payload, child_in, child_out),
            daemon=True,
        )
        proc.start()
        child_in.close()
        child_out.close()
        handle = _WorkerHandle(wid, proc, parent_in, parent_out)
        self.workers[wid] = handle
        self.worker_busy.setdefault(wid, 0.0)
        self.worker_tasks.setdefault(wid, 0)
        return handle

    def _can_respawn(self) -> bool:
        return self.respawns < self.max_respawns

    def _ensure_workers(self, demand: int) -> None:
        """Respawn (with backoff) toward enough workers for the remaining
        demand — never above the configured pool size, never beyond the
        respawn budget."""
        busy = sum(1 for w in self.workers.values() if w.in_flight is not None)
        target = min(self.size, busy + demand)
        while len(self.workers) < target and self._can_respawn():
            delay = min(self.respawn_backoff_s * (2 ** self.respawns), 1.0)
            if delay > 0:
                sleep(delay)
            self.respawns += 1
            count("sweep.faults.respawns")
            self._spawn()

    # ------------------------------------------------------------ accounting

    def _requeue(self, index: int) -> None:
        state = self._round
        if state is None:
            return
        attempts = state.attempts.get(index, 0) + 1
        state.attempts[index] = attempts
        if attempts > self.max_item_retries:
            state.parent_units.append(index)
        else:
            self.requeues += 1
            count("sweep.faults.requeues")
            state.pending.append(index)

    def _handle_msg(self, w: _WorkerHandle, msg) -> str:
        """Process one worker message; returns ``"dead"`` when the worker
        announced its own demise and must be reaped.  A ``"result"`` is
        recorded with its metrics folded into the ambient registry — here
        and nowhere else, which is what makes that merge exactly-once.  A
        ``"done"`` message (the answer to :meth:`shutdown`'s sentinel)
        retires the worker cleanly, keeping its busy seconds."""
        tag = msg[0]
        state = self._round
        if tag == "result":
            _, _, index, result, metrics = msg
            w.in_flight = None
            self.worker_tasks[w.wid] = self.worker_tasks.get(w.wid, 0) + 1
            if state is not None:
                registry = get_metrics()
                if registry is not None:
                    registry.merge(metrics)
                state.on_result(index, result)
            return "ok"
        if tag == "item-error":
            _, _, index, tb = msg
            w.in_flight = None
            self.item_errors += 1
            self.last_error = tb
            count("sweep.faults.item_errors")
            self._requeue(index)
            return "ok"
        if tag == "fatal":
            self.last_error = msg[2]
            count("sweep.faults.worker_fatal")
            return "dead"
        if tag == "done":
            _, _, worker_seconds = msg
            self.worker_busy[w.wid] = worker_seconds
            self.workers.pop(w.wid, None)
            w.proc.join()
            w.close()
        return "ok"  # anything else is stale

    def _reap(self, w: _WorkerHandle) -> None:
        """A worker is gone (or being put down): drain its fully delivered
        messages — a complete result is taken normally and not retried —
        then join, close its pipes, and requeue whatever it still held."""
        if self.workers.pop(w.wid, None) is None:
            return
        while True:
            try:
                if not w.outbox.poll():
                    break
                msg = w.outbox.recv()
            except (EOFError, OSError):
                break
            self._handle_msg(w, msg)
        w.proc.join(timeout=5.0)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(timeout=5.0)
        w.close()
        self.deaths += 1
        count("sweep.faults.worker_deaths")
        if w.in_flight is not None:
            index, w.in_flight = w.in_flight, None
            self._requeue(index)

    # -------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        state = self._round
        if state is None or not state.pending:
            return
        for w in list(self.workers.values()):
            if not state.pending:
                break
            if w.in_flight is not None or w.wid not in self.workers:
                continue
            index = state.pending.popleft()
            try:
                w.inbox.send(index)
            except OSError:
                state.pending.appendleft(index)
                self._reap(w)
                continue
            w.in_flight = index
            w.dispatched_at = perf_counter()

    def _pump(self, timeout: float | None = None) -> None:
        """Block until a live worker has a message or has died (or
        ``timeout`` elapses), then handle what is ready: one message per
        readable pipe, a reap per dead worker.  A worker's pipe is served
        before its sentinel, so a worker that reported and exited is never
        mistaken for one that died.  :meth:`run_round` and :meth:`shutdown`
        each drive this with their own stop condition."""
        live = list(self.workers.values())
        ready = set(
            mp_wait(
                [w.outbox for w in live] + [w.proc.sentinel for w in live],
                timeout=timeout,
            )
        )
        for w in live:
            if w.outbox in ready:
                try:
                    msg = w.outbox.recv()
                except (EOFError, OSError):
                    self._reap(w)
                    continue
                if self._handle_msg(w, msg) == "dead":
                    self._reap(w)
            elif w.proc.sentinel in ready:
                self._reap(w)

    def _wait_timeout(self) -> float | None:
        if self.item_timeout_s is None:
            return None
        busy = [w for w in self.workers.values() if w.in_flight is not None]
        if not busy:
            return None
        now = perf_counter()
        remaining = min(
            self.item_timeout_s - (now - w.dispatched_at) for w in busy
        )
        return max(remaining + 0.002, 0.0)

    def _check_timeouts(self) -> None:
        if self.item_timeout_s is None:
            return
        now = perf_counter()
        for w in list(self.workers.values()):
            if w.wid not in self.workers or w.in_flight is None:
                continue
            if now - w.dispatched_at > self.item_timeout_s:
                self.hung_kills += 1
                count("sweep.faults.hung_kills")
                w.proc.kill()
                self._reap(w)

    def run_round(self, indices: Iterable[int], on_result) -> None:
        state = _RoundState(indices, on_result)
        self._round = state
        try:
            while True:
                self._ensure_workers(len(state.pending))
                self._dispatch()
                busy = any(
                    w.in_flight is not None for w in self.workers.values()
                )
                if not busy:
                    if not state.pending:
                        break
                    if self._can_respawn():
                        continue  # _ensure_workers will refill next pass
                    # Pool collapsed with work left: degrade to the parent.
                    self.collapsed = True
                    count("sweep.faults.pool_collapses")
                    state.parent_units.extend(state.pending)
                    state.pending.clear()
                    break
                self._pump(self._wait_timeout())
                self._check_timeouts()
        finally:
            self._round = None
        for index in state.parent_units:
            # Graceful degradation: poisoned or stranded units run serially
            # in the parent, under the parent session and the parent's own
            # registry — nothing is shipped, so nothing can merge twice.
            self.parent_runs += 1
            count("sweep.faults.parent_runs")
            if self.parent_run is None:
                raise RuntimeError(
                    "parallel sweep lost its workers and has no parent "
                    f"fallback:\n{self.last_error or '<no worker error>'}"
                )
            on_result(index, self.parent_run(index))

    def shutdown(self) -> None:
        """Stop every worker, collecting each one's busy seconds; a worker
        dying instead of reporting is reaped without them.  All pipe
        ends are closed — a drained pool must not pin fds or feeder state."""
        for w in list(self.workers.values()):
            try:
                w.inbox.send(None)
            except OSError:
                self._reap(w)
        while self.workers:
            self._pump()

    def terminate(self) -> None:
        """Hard stop: kill every worker and close every pipe end."""
        for w in self.workers.values():
            if w.proc.is_alive():
                w.proc.terminate()
        for w in self.workers.values():
            w.proc.join()
            w.close()
        self.workers.clear()


class ParallelSweep:
    """Shards a sweep's work items across forked worker processes.

    ``workers`` is the pool size (``1`` means serial).  With a session the
    first item runs in the parent before fanning out, warming the session
    every worker then inherits — sweep items share most of their cache
    footprint.  What comes home is each item's result and its metrics; the
    session keeps what the warm-up item left in it and gains nothing from
    the workers.

    Items are handed out one at a time to whichever worker goes idle, and
    the dispatcher supervises its pool (see :class:`_StealPool`): worker
    crashes, hangs and per-item exceptions are detected and recovered —
    requeue to survivors, bounded respawn, in-parent serial fallback — so a
    sweep completes with bit-identical results under any fault schedule.
    ``item_timeout_s`` bounds one item's wall clock (``None`` = no hang
    detection); ``max_respawns`` caps replacement workers (default: pool
    size); ``max_item_retries`` is how often a failing item is retried on
    workers before the parent runs it; ``respawn_backoff_s`` is the first
    respawn's delay, doubled per respawn.

    Results are returned in item order and are bit-identical to a serial
    run; the only observable differences are wall-clock, ``session.stats``
    and the ``sweep.*`` metrics.

    ``last_stats`` is the last ``map`` call's accounting.  It is empty
    unless that call forked workers (so empty after any serial fallback);
    after a forked run it holds exactly:

    * ``workers`` — the pool size the run used;
    * ``wall_seconds`` — parent wall clock of the whole forked ``map``;
    * ``worker_busy_seconds`` / ``worker_tasks`` — per worker (respawns
      included), seconds spent inside items and items answered;
    * ``tasks`` — items handed to the pool (all but the warm-up item);
    * ``supervision`` — fault/recovery counts: ``deaths``, ``hung_kills``,
      ``item_errors``, ``requeues``, ``respawns``, ``parent_runs``,
      ``pool_collapsed``.
    """

    def __init__(
        self,
        workers: int = 1,
        item_timeout_s: float | None = None,
        max_respawns: int | None = None,
        max_item_retries: int = 2,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        self.workers = max(1, int(workers))
        self.item_timeout_s = item_timeout_s
        self.max_respawns = max_respawns
        self.max_item_retries = max_item_retries
        self.respawn_backoff_s = respawn_backoff_s
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
        any item that fell back to the parent.
        """
        items = list(items)
        self.last_stats = {}
        # With a session item 0 warms it in the parent; a pool is worth
        # forking only when at least two items are left to hand out.
        handed_out = len(items) - (session is not None)
        if not self.parallel or handed_out < 2:
            with ambient_scope(session):
                results = [fn(item) for item in items]
            if session is not None:
                session.publish_metrics()
            return results
        return self._map_steal(fn, items, session)

    def _map_steal(
        self,
        fn: Callable[[Any], Any],
        items: list,
        session: EvalSession | None,
    ) -> list[Any]:
        results: list[Any] = [None] * len(items)
        started = perf_counter()
        warm = session is not None
        if warm:
            with use_session(session):
                results[0] = fn(items[0])
        indices = range(int(warm), len(items))
        workers = min(self.workers, len(indices))
        payload = (fn, items, session, faults.get_faults())

        def parent_run(index: int):
            # Degraded path: run a stranded item in the parent, under the
            # parent session and registry.  Worker fault sites do not
            # re-fire here; degradation must terminate even when an item's
            # fault spec matches every retry.
            with ambient_scope(session):
                return fn(items[index])

        pool = _StealPool(
            mp.get_context("fork"), workers, payload,
            parent_run=parent_run,
            item_timeout_s=self.item_timeout_s,
            max_respawns=self.max_respawns,
            max_item_retries=self.max_item_retries,
            respawn_backoff_s=self.respawn_backoff_s,
        )
        try:
            with span("sweep.steal", tasks=len(indices)):
                pool.run_round(indices, results.__setitem__)
            pool.shutdown()
        except BaseException:
            pool.terminate()
            raise
        count("sweep.steal.dispatched", len(indices))
        if session is not None:
            session.publish_metrics()
        wids = sorted(pool.worker_tasks)
        self.last_stats = {
            "workers": workers,
            "tasks": len(indices),
            "wall_seconds": perf_counter() - started,
            "worker_busy_seconds": [pool.worker_busy[w] for w in wids],
            "worker_tasks": [pool.worker_tasks[w] for w in wids],
            "supervision": {
                "deaths": pool.deaths,
                "hung_kills": pool.hung_kills,
                "item_errors": pool.item_errors,
                "requeues": pool.requeues,
                "respawns": pool.respawns,
                "parent_runs": pool.parent_runs,
                "pool_collapsed": pool.collapsed,
            },
        }
        return results
