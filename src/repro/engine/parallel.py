"""Multiprocess sharding of design sweeps over a shared, serializable cache.

CORADD is evaluated over budget *ladders*; each budget's evaluation is
independent given the data (PR 2 made caching observationally invisible, so
evaluation order — and therefore process placement — cannot change any
result).  A :class:`ParallelSweep` exploits that:

1. the parent **warms** the shared :class:`~repro.engine.session.
   EvalSession` by running the first work item serially (the cheapest budget
   seeds the caches every later budget reuses: base-fact sort orderings,
   CM designs, masks, scan costs) — and, when the caller supplies a
   :class:`WarmupProbe`, the warmup item's per-query CM probe phase is
   itself sharded across the pool first, so even the warmup is parallel.
   A sweep without a session has no cache to warm and fans out at once;
2. the session is exported as a :class:`~repro.engine.snapshot.
   SessionSnapshot` — with its large array payloads (and the heap-file
   columns behind them) moved into a :class:`~repro.engine.shm.ShmArena`
   of named shared-memory segments, so what crosses the process boundary
   is tokens, not megabytes — and **forked workers** install it into fresh
   sessions, attaching read-only zero-copy views;
3. remaining items feed a **work-stealing dispatcher**: every worker holds
   at most one item, and the moment it reports a result it is handed the
   next pending item.  No worker owns a pre-cut chunk, so a straggler item
   (the big-budget ILP+materialize points) delays only itself while idle
   workers drain the rest of the ladder;
4. each item's result returns with that item's cache **delta**, which the
   parent merges back commutatively — so a sweep leaves behind the same
   warm session a serial run would have;
5. the dispatcher is a **supervisor**: it waits on result pipes *and*
   process sentinels, so dead workers (crash, OOM, kill) and hung workers
   (``item_timeout_s``) are detected, their in-flight items requeued to
   survivors, replacements respawned with backoff, and — if the whole pool
   collapses — remaining items run serially in the parent.  Results stay
   bit-identical to serial under any fault schedule (deltas and metrics
   merge exactly once; see :mod:`repro.engine.faults` for injecting
   deterministic chaos).

This is the only parallel path, and nothing about it is chosen by the
caller.  What varies is selected from what the code observes: with
``workers <= 1``, fewer than two work items, or on platforms without
``fork`` (Windows), the sweep degrades to a plain serial loop under the
ambient session — same results, no subprocesses; without a usable
shared-memory mount (see :func:`repro.engine.shm.shm_available`), and for
workers respawned after a failed attach, snapshots cross as plain pickles
instead of tokens.  Workers inherit the parent via fork, so work functions
may be closures; only task indices, results and (delta) snapshots cross
process boundaries.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait
from time import perf_counter, sleep
from typing import Any, Callable, Iterable, Sequence

from repro.engine import faults, shm
from repro.engine.session import EvalSession, ambient_scope, use_session
from repro.engine.snapshot import (
    SessionSnapshot,
    export_snapshot,
    merge_snapshots,
    snapshot_nbytes,
    snapshot_shared_nbytes,
)
from repro.obs.metrics import MetricsRegistry, count, get_metrics, use_metrics
from repro.obs.trace import span


def fork_available() -> bool:
    """Whether the platform can fork worker processes."""
    return "fork" in mp.get_all_start_methods()


@dataclass(frozen=True)
class WarmupProbe:
    """Shards the warmup item's probe phase across the pool.

    ``tasks(item)`` runs in the parent under the session and yields the
    independent probe units of the sweep's first item (for design ladders:
    one (design, object, query) CM choice each — building the heap files on
    the way, which warms the sort-ordering cache the workers reuse).
    ``run(task)`` executes one unit in a worker under its session; only the
    cache side effects matter, results are discarded.  Probes must be
    observationally invisible — running them can only pre-fill caches the
    item's own evaluation would fill anyway (the same invariant that makes
    the whole sweep order-independent)."""

    tasks: Callable[[Any], Iterable[Any]]
    run: Callable[[Any], Any]


def _clear_inherited_ambient() -> None:
    from repro.engine.session import _ACTIVE
    from repro.obs.drift import _MONITOR
    from repro.obs.metrics import _METRICS
    from repro.obs.trace import _TRACER

    # The fork inherited the parent's ambient session; drop it so workers
    # only ever evaluate under their own snapshot-seeded session (or none).
    # Likewise the parent's observability state: worker metrics ship home
    # as registry payloads on result messages (forked copies of the
    # parent's registry/tracer/monitor would record into the void, and the
    # monitor's EWMA is order-dependent — it only ever observes parent-side
    # evaluations, which a serial run covers completely).
    _ACTIVE.set(None)
    _METRICS.set(None)
    _TRACER.set(None)
    _MONITOR.set(None)


def _steal_worker(worker_id: int, payload, syncs, inbox, outbox) -> None:
    """One work-stealing worker: installs the snapshot (plus any ``syncs``
    deltas it missed by being respawned mid-sweep), then loops pulling
    ``("task", i)`` / ``("probe", j)`` messages until the ``None`` sentinel.
    Every finished unit is answered with its result and cache delta; a
    ``("sync", delta)`` message folds parent-side updates (the probe round's
    merged caches plus the warmup item) into the worker session mid-flight.
    The terminal message carries the worker's lifetime metrics (shared-
    memory attach counters, busy seconds, residual session counters) so the
    parent can account idle time per worker.

    Failure protocol, one message per failure so the supervisor can react:

    * an exception inside one unit (including an injected ``raise`` fault)
      answers ``("item-error", ...)`` — the worker stays up, the baseline is
      re-keyed so no partial cache entries of the failed unit ever ride a
      later delta, and the supervisor requeues the unit elsewhere;
    * a failed snapshot/sync install (:class:`~repro.engine.shm.ShmAttachError`
      — the shared-memory segments are missing or corrupt for this process)
      answers ``("install-error", ...)`` and exits: the supervisor respawns
      replacements on pickled payloads instead;
    * anything else answers ``("fatal", ...)`` and exits.
    """
    _clear_inherited_ambient()
    shm.forget_attachments()
    fn, items, probe_run, probe_tasks, snapshot, collect_deltas, plan = payload
    lifetime = MetricsRegistry()
    session = None
    baseline = None
    busy = 0.0
    done = 0
    try:
        with faults.use_faults(plan):
            if snapshot is not None:
                session = EvalSession()
                try:
                    with use_metrics(lifetime):
                        snapshot.install(session)
                        for extra in syncs:
                            extra.install(session)
                except shm.ShmAttachError as exc:
                    outbox.send(("install-error", worker_id, str(exc)))
                    return
                baseline = session.cache_keys() if collect_deltas else None
            while True:
                try:
                    msg = inbox.recv()
                except EOFError:
                    return  # parent went away; nothing to report to
                if msg is None:
                    break
                kind, value = msg
                if kind == "sync":
                    if session is not None:
                        try:
                            with use_metrics(lifetime):
                                value.install(session)
                        except shm.ShmAttachError as exc:
                            outbox.send(("install-error", worker_id, str(exc)))
                            return
                        if collect_deltas:
                            baseline = session.cache_keys()
                    outbox.send(("synced", worker_id))
                    continue
                started = perf_counter()
                registry = MetricsRegistry()
                try:
                    with ambient_scope(session), use_metrics(registry):
                        faults.fire(
                            "sweep.probe" if kind == "probe" else "sweep.task",
                            key=value,
                        )
                        if kind == "probe":
                            probe_run(probe_tasks[value])
                            result = None
                        else:
                            result = fn(items[value])
                except Exception:
                    # Partial cache entries from the failed unit must never
                    # ride a later unit's delta: re-key the baseline so the
                    # retry (on another worker) merges its state exactly
                    # once.  The per-unit registry is dropped with the unit.
                    if session is not None and collect_deltas:
                        baseline = session.cache_keys()
                    outbox.send(
                        ("item-error", worker_id, kind, value,
                         traceback.format_exc())
                    )
                    continue
                elapsed = perf_counter() - started
                busy += elapsed
                done += 1
                registry.observe("sweep.steal.task_seconds", elapsed)
                delta = None
                if session is not None and collect_deltas:
                    session.publish_metrics(registry)
                    delta = export_snapshot(
                        session, exclude=baseline, metrics=registry.export()
                    )
                    baseline = session.cache_keys()
                outbox.send(("result", worker_id, kind, value, result, delta))
            if session is not None:
                session.publish_metrics(lifetime)
            lifetime.inc("sweep.steal.tasks", done)
            outbox.send(("done", worker_id, lifetime.export(), busy, done))
    except BaseException:
        try:
            outbox.send(("fatal", worker_id, traceback.format_exc()))
        except OSError:
            pass


class _WorkerHandle:
    """Parent-side record of one live worker: its process, the two pipe
    ends the parent holds, and what it is currently working on."""

    __slots__ = ("wid", "proc", "inbox", "outbox", "in_flight",
                 "dispatched_at", "synced")

    def __init__(self, wid, proc, inbox, outbox) -> None:
        self.wid = wid
        self.proc = proc
        self.inbox = inbox      # parent writes ("task", i) / ("sync", d) / None
        self.outbox = outbox    # parent reads result/error/done messages
        self.in_flight: tuple[str, int] | None = None
        self.dispatched_at = 0.0
        self.synced = False

    def close(self) -> None:
        for conn in (self.inbox, self.outbox):
            try:
                conn.close()
            except OSError:
                pass


class _RoundState:
    """Book-keeping for one dispatch round (probe or main)."""

    __slots__ = ("kind", "pending", "attempts", "parent_units", "deltas",
                 "on_result")

    def __init__(self, kind, indices, on_result) -> None:
        self.kind = kind
        self.pending = deque(indices)
        self.attempts: dict[int, int] = {}
        self.parent_units: list[int] = []
        self.deltas: list[SessionSnapshot] = []
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
      delivered result is merged normally and **not** retried, keeping
      delta/metric merges exactly-once — then its in-flight unit is requeued
      to the surviving workers;
    * a worker stuck past ``item_timeout_s`` on one unit is killed and
      treated the same way;
    * lost workers are respawned with exponential backoff up to
      ``max_respawns`` (respawns receive the original payload plus every
      sync delta shipped so far, so their caches match the survivors');
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
        fallback_payload=None,
        item_timeout_s: float | None = None,
        max_respawns: int | None = None,
        max_item_retries: int = 2,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        self.ctx = ctx
        self.size = workers
        self.payload = payload
        self.parent_run = parent_run
        self._fallback_payload = fallback_payload
        self._plain_payload = None
        self.item_timeout_s = item_timeout_s
        self.max_respawns = workers if max_respawns is None else max_respawns
        self.max_item_retries = max_item_retries
        self.respawn_backoff_s = respawn_backoff_s
        self.workers: dict[int, _WorkerHandle] = {}
        self._next_wid = 0
        self._syncs: list[SessionSnapshot] = []
        self._shm_poisoned = False
        self._round: _RoundState | None = None
        self.worker_busy: dict[int, float] = {}
        self.worker_tasks: dict[int, int] = {}
        self.done_payloads: list[dict] = []
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

    def _current_payload(self):
        if not self._shm_poisoned or self._fallback_payload is None:
            return self.payload
        if self._plain_payload is None:
            self._plain_payload = self._fallback_payload()
        return self._plain_payload

    def _spawn(self) -> _WorkerHandle:
        wid = self._next_wid
        self._next_wid += 1
        child_in, parent_in = self.ctx.Pipe(duplex=False)
        parent_out, child_out = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_steal_worker,
            args=(wid, self._current_payload(), list(self._syncs),
                  child_in, child_out),
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

    def _note_poisoned(self, message: str) -> None:
        if not self._shm_poisoned:
            self._shm_poisoned = True
            count("sweep.faults.attach_fallbacks")
        self.last_error = message

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
        announced its own demise and must be reaped.  A ``"done"`` message
        (the answer to :meth:`shutdown`'s sentinel) retires the worker
        cleanly, keeping its terminal accounting payload."""
        tag = msg[0]
        state = self._round
        if tag == "result":
            _, _, kind, index, result, delta = msg
            w.in_flight = None
            self.worker_tasks[w.wid] = self.worker_tasks.get(w.wid, 0) + 1
            if state is not None:
                if delta is not None:
                    state.deltas.append(delta)
                state.on_result(kind, index, result)
            return "ok"
        if tag == "item-error":
            _, _, _, index, tb = msg
            w.in_flight = None
            self.item_errors += 1
            self.last_error = tb
            count("sweep.faults.item_errors")
            self._requeue(index)
            return "ok"
        if tag == "synced":
            w.synced = True
            return "ok"
        if tag == "install-error":
            self._note_poisoned(msg[2])
            return "dead"
        if tag == "fatal":
            self.last_error = msg[2]
            count("sweep.faults.worker_fatal")
            return "dead"
        if tag == "done":
            _, _, payload, worker_seconds, _ = msg
            self.worker_busy[w.wid] = worker_seconds
            self.done_payloads.append(payload)
            self.workers.pop(w.wid, None)
            w.proc.join()
            w.close()
        return "ok"  # anything else is stale

    def _reap(self, w: _WorkerHandle) -> None:
        """A worker is gone (or being put down): drain its fully delivered
        messages — a complete result is merged normally and not retried —
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
            _, index = w.in_flight
            w.in_flight = None
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
                w.inbox.send((state.kind, index))
            except OSError:
                state.pending.appendleft(index)
                self._reap(w)
                continue
            w.in_flight = (state.kind, index)
            w.dispatched_at = perf_counter()

    def _pump(self, timeout: float | None = None) -> None:
        """Block until a live worker has a message or has died (or
        ``timeout`` elapses), then handle what is ready: one message per
        readable pipe, a reap per dead worker.  A worker's pipe is served
        before its sentinel, so a worker that reported and exited is never
        mistaken for one that died.  :meth:`run_round`, :meth:`sync` and
        :meth:`shutdown` each drive this with their own stop condition."""
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

    def run_round(
        self, kind: str, indices: Iterable[int], on_result
    ) -> list[SessionSnapshot]:
        state = _RoundState(kind, indices, on_result)
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
            # in the parent, under the parent session — cache effects land
            # directly, so no delta is shipped (or could be double-merged).
            self.parent_runs += 1
            count("sweep.faults.parent_runs")
            if self.parent_run is None:
                raise RuntimeError(
                    "parallel sweep lost its workers and has no parent "
                    f"fallback:\n{self.last_error or '<no worker error>'}"
                )
            result = self.parent_run(kind, index)
            on_result(kind, index, result)
        return state.deltas

    def sync(self, delta: SessionSnapshot) -> None:
        """Ship a parent-side delta to every live worker and wait for acks.
        The delta is also remembered for any worker respawned later."""
        self._syncs.append(delta)
        for w in list(self.workers.values()):
            w.synced = False
            try:
                w.inbox.send(("sync", delta))
            except OSError:
                self._reap(w)
        while not all(w.synced for w in self.workers.values()):
            self._pump()

    def shutdown(self) -> None:
        """Stop every worker, collecting terminal accounting payloads; a
        worker dying instead of reporting is reaped without one.  All pipe
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
    first item runs in the parent before fanning out, seeding the snapshot
    every worker starts from — sweep items share most of their cache
    footprint.  ``collect_deltas=False`` skips shipping worker cache deltas
    back to the parent — the right call when the session is a throwaway
    driving a single sweep, since the deltas' only purpose is leaving a
    reusable warm session behind.

    Items are handed out one at a time to whichever worker goes idle, and
    the dispatcher supervises its pool (see :class:`_StealPool`): worker
    crashes, hangs and per-item exceptions are detected and recovered —
    requeue to survivors, bounded respawn, in-parent serial fallback — so a
    sweep completes with bit-identical results under any fault schedule.
    ``item_timeout_s`` bounds one unit's wall clock (``None`` = no hang
    detection); ``max_respawns`` caps replacement workers (default: pool
    size); ``max_item_retries`` is how often a failing unit is retried on
    workers before the parent runs it; ``respawn_backoff_s`` is the first
    respawn's delay, doubled per respawn.  Snapshots travel through shared
    memory whenever :func:`repro.engine.shm.shm_available` says they can.

    Results are returned in item order and are bit-identical to a serial
    run; the only observable differences are wall-clock, ``session.stats``
    and the ``sweep.*`` / ``engine.shm.*`` metrics.

    ``last_stats`` is the last ``map`` call's accounting.  It is empty
    unless that call forked workers (so empty after any serial fallback);
    after a forked run it holds exactly:

    * ``workers`` — the pool size the run used;
    * ``wall_seconds`` — parent wall clock of the whole forked ``map``;
    * ``worker_busy_seconds`` / ``worker_tasks`` — per worker (respawns
      included), seconds spent inside units and units answered;
    * ``tasks`` / ``probe_tasks`` — units dispatched in all, and how many
      of them were warm-up probes;
    * ``shm_bytes`` / ``shm_segments`` — what the arena registered (both
      ``0`` on the pickled transport);
    * ``snapshot_array_bytes`` / ``snapshot_shared_bytes`` — array bytes
      inside the pickled snapshot vs. referenced through shared memory;
    * ``supervision`` — fault/recovery counts: ``deaths``, ``hung_kills``,
      ``item_errors``, ``requeues``, ``respawns``, ``parent_runs``,
      ``shm_fallback``, ``pool_collapsed``.
    """

    def __init__(
        self,
        workers: int = 1,
        collect_deltas: bool = True,
        item_timeout_s: float | None = None,
        max_respawns: int | None = None,
        max_item_retries: int = 2,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        self.workers = max(1, int(workers))
        self.collect_deltas = collect_deltas
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
        probe: WarmupProbe | None = None,
    ) -> list[Any]:
        """``[fn(item) for item in items]``, sharded across the pool.

        With ``session``, work runs under it ambiently: the parent's cache
        state is snapshot into every worker and worker deltas are merged
        back, so after ``map`` returns the session is as warm as a serial
        sweep would have left it.  ``probe`` shards the warmup item's probe
        phase across the pool before the item runs.
        """
        items = list(items)
        self.last_stats = {}
        if not self.parallel or len(items) < 2:
            with ambient_scope(session):
                results = [fn(item) for item in items]
            if session is not None:
                session.publish_metrics()
            return results
        return self._map_steal(fn, items, session, probe)

    def _map_steal(
        self,
        fn: Callable[[Any], Any],
        items: list,
        session: EvalSession | None,
        probe: WarmupProbe | None,
    ) -> list[Any]:
        results: list[Any] = [None] * len(items)
        # A session is what there is to warm and to ship: with one, item 0
        # runs in the parent (after its probes, if any) and the rest fan
        # out against a snapshot; without one, every item fans out at once.
        warm = session is not None
        arena = shm.ShmArena() if (warm and shm.shm_available()) else None
        started = perf_counter()
        probe_tasks: list = []
        if warm and probe is not None:
            with use_session(session):
                probe_tasks = list(probe.tasks(items[0]))
        if warm and not probe_tasks:
            # No probe round: warm the first item before the single export,
            # so its caches ride the snapshot instead of a later sync.
            with use_session(session):
                results[0] = fn(items[0])
        main_indices = list(range(1 if warm else 0, len(items)))
        workers = min(self.workers, max(len(main_indices), len(probe_tasks)))
        if arena is not None:
            session.share_heapfiles(arena)
        snapshot = export_snapshot(session, arena=arena) if warm else None
        baseline = session.cache_keys() if probe_tasks else None
        plan = faults.get_faults()
        payload = (
            fn, items,
            probe.run if probe is not None else None,
            probe_tasks, snapshot, self.collect_deltas, plan,
        )

        def parent_run(kind: str, index: int):
            # Degraded path: run a stranded unit in the parent, under the
            # parent session — cache effects land directly, no delta ships.
            # Worker fault sites do not re-fire here; degradation must
            # terminate even when a unit's fault spec matches every retry.
            with ambient_scope(session):
                if kind == "probe":
                    probe.run(probe_tasks[index])
                    return None
                return fn(items[index])

        def fallback_payload():
            # Shared memory failed for some worker: respawns get a plain
            # pickled snapshot (exported fresh — worker deltas only merge
            # into the parent after the rounds, so this equals the original
            # snapshot's cache state, just by value).
            plain = export_snapshot(session) if session is not None else None
            return (
                fn, items,
                probe.run if probe is not None else None,
                probe_tasks, plain, self.collect_deltas, plan,
            )

        ctx = mp.get_context("fork")
        pool = _StealPool(
            ctx, workers, payload,
            parent_run=parent_run,
            fallback_payload=fallback_payload,
            item_timeout_s=self.item_timeout_s,
            max_respawns=self.max_respawns,
            max_item_retries=self.max_item_retries,
            respawn_backoff_s=self.respawn_backoff_s,
        )
        deltas: list[SessionSnapshot] = []
        try:
            if probe_tasks:
                with span("sweep.steal", phase="probe", tasks=len(probe_tasks)):
                    probe_deltas = pool.run_round(
                        "probe", range(len(probe_tasks)), lambda k, i, r: None
                    )
                self._merge_back(session, probe_deltas)
                # The warmup item now runs cache-hot in the parent: its CM
                # choices were just probed in parallel.
                with use_session(session):
                    results[0] = fn(items[0])
                # If shared memory already failed for some worker, ship the
                # sync by value — re-poisoning respawned workers with refs
                # they cannot attach would collapse the pool for nothing.
                sync_arena = None if pool._shm_poisoned else arena
                sync = export_snapshot(session, exclude=baseline, arena=sync_arena)
                pool.sync(sync)
            with span("sweep.steal", phase="main", tasks=len(main_indices)):
                deltas = pool.run_round(
                    "task", main_indices,
                    lambda kind, i, result: results.__setitem__(i, result),
                )
            pool.shutdown()
        except BaseException:
            pool.terminate()
            raise
        finally:
            if arena is not None:
                arena.dispose()
        self._merge_back(session, deltas)
        registry = get_metrics()
        if registry is not None:
            for done_payload in pool.done_payloads:
                registry.merge(done_payload)
        if arena is not None:
            count("engine.shm.bytes", arena.bytes_registered)
            count("engine.shm.segments", arena.segments)
        count("sweep.steal.dispatched", len(main_indices) + len(probe_tasks))
        if session is not None:
            session.publish_metrics()
        wids = sorted(pool.worker_tasks)
        self.last_stats = {
            "workers": workers,
            "tasks": len(main_indices) + len(probe_tasks),
            "probe_tasks": len(probe_tasks),
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
                "shm_fallback": pool._shm_poisoned,
                "pool_collapsed": pool.collapsed,
            },
            "shm_bytes": arena.bytes_registered if arena is not None else 0,
            "shm_segments": arena.segments if arena is not None else 0,
            "snapshot_array_bytes": (
                snapshot_nbytes(snapshot) if snapshot is not None else 0
            ),
            "snapshot_shared_bytes": (
                snapshot_shared_nbytes(snapshot) if snapshot is not None else 0
            ),
        }
        return results

    @staticmethod
    def _merge_back(
        session: EvalSession | None, deltas: list[SessionSnapshot]
    ) -> None:
        if session is None or not deltas:
            return
        merged = merge_snapshots(*deltas)
        merged.install(session)
        if merged.metrics:
            registry = get_metrics()
            if registry is not None:
                registry.merge(merged.metrics)
