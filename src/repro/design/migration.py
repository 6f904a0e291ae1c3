"""Design diffs and migration plans: evolving a live database.

A production designer facing workload drift cannot afford to rebuild every
object from scratch at each redesign — and, per Kimura et al.'s follow-up on
index deployment order (arXiv 1107.3606), *when* each object comes online
matters too, because the workload keeps running during the transition.

:class:`DesignDiff` compares two :class:`~repro.design.designer.Design`s at
the :class:`~repro.design.designer.ObjectSpec` level and emits a
:class:`MigrationPlan`:

* **drops** — objects of the old design absent from (or structurally
  changed in) the new one; they free space first;
* **builds** — new or rebuilt objects, ordered by *benefit per byte*: the
  frequency-weighted expected-seconds improvement of the queries the object
  serves, divided by its build size — so the migration front-loads the
  cheapest wins exactly as the deployment-order paper prescribes;
* **cm_refreshes** — objects whose heap file survives but whose assigned
  query set changed, needing only their Correlation Maps redesigned.

:meth:`DesignDiff.apply` executes the plan against an existing
:class:`~repro.storage.executor.PhysicalDatabase` in place, reusing the
ambient :class:`~repro.engine.EvalSession` caches (sort orderings, CM
builds, masks) across the transition, and finally reorders the object map
to match a from-scratch materialization — so the migrated database is
bit-identical (plans, costs, masks) to ``new.materialize()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.design.designer import Design, ObjectSpec
from repro.engine import EvalSession, ambient_scope, get_session
from repro.engine import faults
from repro.relational.query import Workload
from repro.storage.executor import PhysicalDatabase, PhysicalObject

_INF = float("inf")


@dataclass(frozen=True)
class MigrationStep:
    """One action of a migration plan."""

    action: str  # "drop" | "build" | "refresh-cms"
    name: str
    size_bytes: int = 0
    benefit: float = 0.0  # frequency-weighted expected seconds recovered

    @property
    def benefit_per_byte(self) -> float:
        if self.size_bytes <= 0:
            return _INF if self.benefit > 0 else 0.0
        return self.benefit / self.size_bytes

    def __repr__(self) -> str:
        return (
            f"MigrationStep({self.action} {self.name!r}, "
            f"{self.size_bytes / (1 << 20):.1f}MB, benefit={self.benefit:.3g}s)"
        )


@dataclass
class MigrationPlan:
    """What to do, in order: drop, then build by benefit-per-byte, then
    refresh CMs on surviving objects whose query assignment moved."""

    drops: list[MigrationStep]
    builds: list[MigrationStep]
    cm_refreshes: list[MigrationStep]
    kept: list[str]

    @property
    def is_empty(self) -> bool:
        return not (self.drops or self.builds or self.cm_refreshes)

    def summary(self) -> str:
        lines = [
            f"MigrationPlan: {len(self.drops)} drops, {len(self.builds)} builds, "
            f"{len(self.cm_refreshes)} CM refreshes, {len(self.kept)} kept"
        ]
        for step in self.drops:
            lines.append(f"  drop    {step.name}")
        for step in self.builds:
            bpb = step.benefit_per_byte
            bpb_text = "inf" if bpb == _INF else f"{bpb:.3g}"
            lines.append(
                f"  build   {step.name}  {step.size_bytes / (1 << 20):6.1f} MB  "
                f"benefit {step.benefit:.3g}s  ({bpb_text} s/B)"
            )
        for step in self.cm_refreshes:
            lines.append(f"  refresh {step.name} (CMs)")
        return "\n".join(lines)


class DesignDiff:
    """The difference between two designs, as physical work."""

    def __init__(self, old: Design, new: Design) -> None:
        self.old = old
        self.new = new
        self._old_specs = {s.name: s for s in old.object_specs()}
        self._new_specs = {s.name: s for s in new.object_specs()}

    # ------------------------------------------------------------- planning

    def _structure_matches(self, old_spec: ObjectSpec, new_spec: ObjectSpec) -> bool:
        """Whether the heap file + dense indexes can be kept as-is.  The
        backing flat table must be the *same object* (designs over different
        data must never share physical state) and the disk model equal."""
        return (
            old_spec.structure_key() == new_spec.structure_key()
            and self.old.flat_tables.get(old_spec.fact)
            is self.new.flat_tables.get(new_spec.fact)
            and self.old.disk == self.new.disk
        )

    def _cm_signature(self, design: Design, spec: ObjectSpec) -> tuple:
        """Identity of the CMs an object should carry: the assigned query
        fingerprints (names can differ across phases for identical queries)
        plus the CM knobs."""
        return (
            tuple(q.fingerprint() for q in design.spec_queries(spec)),
            design.use_cms,
            design.cm_budget_bytes,
        )

    def _build_size(self, spec: ObjectSpec) -> int:
        """Bytes charged to building ``spec``: the chosen candidate's size
        when one backs it (MV heap + clustered overhead, or a re-clustering's
        PK-index charge), else 0 (reverting a fact to its PK order)."""
        if spec.cand_id is not None:
            for cand in self.new.chosen:
                if cand.cand_id == spec.cand_id:
                    return cand.size_bytes
        return 0

    def _benefit(self, spec: ObjectSpec) -> float:
        """Frequency-weighted expected seconds the new object recovers for
        the queries assigned to it, relative to the old design's
        expectation (queries the old design never saw contribute 0 — their
        baseline is unknown, and the ordering only needs relative ranks)."""
        total = 0.0
        for q in self.new.spec_queries(spec):
            before = self.old.expected_seconds.get(q.name)
            if before is None:
                continue
            total += q.frequency * max(0.0, before - self.new.expected_seconds[q.name])
        return total

    def plan(self) -> MigrationPlan:
        drops: list[MigrationStep] = []
        builds: list[MigrationStep] = []
        refreshes: list[MigrationStep] = []
        kept: list[str] = []
        for name, old_spec in self._old_specs.items():
            new_spec = self._new_specs.get(name)
            if new_spec is None:
                drops.append(MigrationStep("drop", name))
            elif not self._structure_matches(old_spec, new_spec):
                drops.append(MigrationStep("drop", name))
                builds.append(
                    MigrationStep(
                        "build",
                        name,
                        size_bytes=self._build_size(new_spec),
                        benefit=self._benefit(new_spec),
                    )
                )
            elif self._cm_signature(self.old, old_spec) != self._cm_signature(
                self.new, new_spec
            ):
                refreshes.append(
                    MigrationStep("refresh-cms", name, benefit=self._benefit(new_spec))
                )
            else:
                kept.append(name)
        for name, new_spec in self._new_specs.items():
            if name not in self._old_specs:
                builds.append(
                    MigrationStep(
                        "build",
                        name,
                        size_bytes=self._build_size(new_spec),
                        benefit=self._benefit(new_spec),
                    )
                )
        builds.sort(key=lambda s: (-s.benefit_per_byte, -s.benefit, s.name))
        return MigrationPlan(
            drops=drops, builds=builds, cm_refreshes=refreshes, kept=kept
        )

    # ------------------------------------------------------------- applying

    def apply(
        self,
        db: PhysicalDatabase,
        session: EvalSession | None = None,
        plan: MigrationPlan | None = None,
    ) -> PhysicalDatabase:
        """Execute the migration against ``db`` in place and return it.

        Drops first (freeing budgeted space), then builds in deployment
        order, then CM refreshes on surviving heap files.  The object map is
        finally reordered to the new design's materialization order, which
        makes plan tie-breaking — and therefore every executed plan, cost
        and mask — bit-identical to ``new.materialize()`` from scratch.
        """
        plan = plan if plan is not None else self.plan()
        session = session if session is not None else get_session()
        with ambient_scope(session):
            for step in plan.drops:
                db.remove(step.name)
            for step in plan.builds:
                db.add(self.new.build_object(self._new_specs[step.name], session))
            for step in plan.cm_refreshes:
                obj = db.object(step.name)
                obj.cms = self.new.design_cms_for(
                    obj.heapfile, self._new_specs[step.name]
                )
            db.objects = {
                spec.name: db.objects[spec.name] for spec in self.new.object_specs()
            }
            db.invalidate_plans()
        return db


# --------------------------------------------------------------- transitions
#
# arXiv 1107.3606's actual objective: the workload keeps *executing while*
# the migration deploys, so what matters is not just which objects to build
# but the total query (and refresh) cost accumulated across the transition's
# intermediate states.  ``execute_transition`` runs a migration plan step by
# step, charging the workload against each intermediate database for the
# modelled duration of the ongoing build, optionally interleaving refresh
# batches through a :class:`~repro.storage.update.RefreshExecutor` — live
# mutations mid-migration, the full-stack invalidation test.  With no
# refreshes the final database is bit-identical to :meth:`DesignDiff.apply`.


@dataclass(frozen=True)
class TransitionStep:
    """One deployment step and what the world cost while it ran."""

    action: str  # "build" | "drop" | "refresh-cms" | "refresh" (stream tail)
    name: str
    build_seconds: float
    query_seconds: float  # workload cost charged during this step
    refresh_seconds: float  # refresh maintenance applied during this step


@dataclass
class TransitionReport:
    """Scored execution of one migration plan."""

    steps: list[TransitionStep] = field(default_factory=list)
    order: list[str] = field(default_factory=list)
    final_db: PhysicalDatabase | None = None

    @property
    def query_seconds(self) -> float:
        """The deployment-order objective: workload cost integrated over the
        transition's intermediate states."""
        return sum(s.query_seconds for s in self.steps)

    @property
    def refresh_seconds(self) -> float:
        return sum(s.refresh_seconds for s in self.steps)

    @property
    def build_seconds(self) -> float:
        return sum(s.build_seconds for s in self.steps)

    @property
    def total_seconds(self) -> float:
        return self.query_seconds + self.refresh_seconds + self.build_seconds

    def summary(self) -> str:
        lines = [
            f"Transition: {len(self.steps)} steps, "
            f"{self.build_seconds:.3g}s building, "
            f"{self.query_seconds:.3g}s intermediate queries, "
            f"{self.refresh_seconds:.3g}s refresh maintenance"
        ]
        for s in self.steps:
            lines.append(
                f"  {s.action:<12} {s.name:<12} build {s.build_seconds:8.3g}s  "
                f"queries {s.query_seconds:8.3g}s  refresh {s.refresh_seconds:8.3g}s"
            )
        return "\n".join(lines)


def _build_duration_seconds(diff: DesignDiff, spec: ObjectSpec) -> float:
    """Modelled wall-clock of building one object: sequential read of the
    source plus sequential write of the result (a sort's I/O floor)."""
    disk = diff.new.disk
    out_bytes = diff._build_size(spec)
    if out_bytes <= 0:
        flat = diff.new.flat_tables.get(spec.fact)
        out_bytes = flat.total_bytes() if flat is not None else disk.page_size
    src_bytes = 0
    flat = diff.new.flat_tables.get(spec.fact)
    if flat is not None:
        src_bytes = flat.total_bytes()
    total = src_bytes + out_bytes
    return disk.seek_cost_s + total / (disk.sequential_mb_per_s * 1024 * 1024)


@dataclass
class MigrationJournal:
    """Write-ahead record of one ``execute_transition`` run.

    The journal tracks the migration's planned step sequence, how far it
    got (``completed`` is a prefix counter — steps execute in a fixed
    order), and everything needed to undo the work so far: dropped objects,
    the pre-refresh CM lists, the names this run built, and the original
    object-map order.  A transition that dies at any step boundary leaves
    the journal (and the database) in a state from which either

    * :meth:`resume` — call ``execute_transition`` again with the same
      journal — replays the plan, *skipping* every completed step (objects
      already built are not rebuilt; refresh batches already consumed are
      not re-applied) and finishing into the exact target design, or
    * :meth:`rollback` restores the pre-migration database: built objects
      removed, dropped objects re-added, refreshed CMs restored, original
      object order and plan cache reinstated.

    The database is in-process state, so the journal is too; a storage
    backend with real persistence would serialize exactly these fields.
    Progress is the journal's own ``state`` and ``completed`` fields.
    """

    state: str = "idle"  # "idle" | "in-progress" | "committed" | "aborted"
    planned: list[tuple[str, str]] = field(default_factory=list)
    completed: int = 0
    refreshes_consumed: int = 0
    step_refreshes: dict[int, int] = field(default_factory=dict)
    removed: dict[str, PhysicalObject] = field(default_factory=dict)
    refreshed_cms: dict[str, list] = field(default_factory=dict)
    built: list[str] = field(default_factory=list)
    old_order: list[str] = field(default_factory=list)

    @property
    def in_progress(self) -> bool:
        return self.state == "in-progress"

    def begin(self, planned: list[tuple[str, str]], db: PhysicalDatabase) -> None:
        if self.state == "idle":
            self.planned = list(planned)
            self.old_order = list(db.objects)
            self.state = "in-progress"
            return
        if self.state != "in-progress":
            raise RuntimeError(f"cannot reuse a {self.state} migration journal")
        if self.planned != list(planned):
            raise RuntimeError(
                "journal does not match this migration: expected steps "
                f"{self.planned}, got {list(planned)}"
            )

    def mark_done(self, index: int) -> None:
        if index != self.completed:
            raise RuntimeError(
                f"journal out of order: completing step {index} "
                f"with {self.completed} done"
            )
        self.completed = index + 1

    def commit(self) -> None:
        self.state = "committed"

    def resume(self, diff: DesignDiff, db: PhysicalDatabase, **kwargs) -> TransitionReport:
        """Finish an interrupted transition: replays ``execute_transition``
        with this journal, skipping every completed step."""
        if self.state != "in-progress":
            raise RuntimeError(f"cannot resume a {self.state} migration")
        return execute_transition(diff, db, journal=self, **kwargs)

    def rollback(self, db: PhysicalDatabase) -> PhysicalDatabase:
        """Abort: undo every journaled effect, restoring the pre-migration
        database (same objects, same CM lists, same object-map order —
        bit-identical plans).  Idempotent; valid until :meth:`commit`."""
        if self.state == "committed":
            raise RuntimeError("cannot roll back a committed migration")
        for name in self.built:
            if name in db.objects:
                db.remove(name)
        for name, obj in self.removed.items():
            if name not in db.objects:
                db.add(obj)
        for name, cms in self.refreshed_cms.items():
            if name in db.objects:
                db.object(name).cms = list(cms)
        db.objects = {name: db.objects[name] for name in self.old_order}
        db.invalidate_plans()
        self.state = "aborted"
        return db


def execute_transition(
    diff: DesignDiff,
    db: PhysicalDatabase,
    session: EvalSession | None = None,
    plan: MigrationPlan | None = None,
    order: list[str] | None = None,
    workload: Workload | None = None,
    workload_rate: float = 1.0,
    refreshes: list | None = None,
    refresh_executor=None,
    journal: MigrationJournal | None = None,
) -> TransitionReport:
    """Execute ``diff``'s migration against ``db`` while the workload runs.

    Deployment semantics:

    * pure drops happen up front (they free space and cost nothing to the
      intermediate workload — base facts still cover every query);
    * a drop-for-rebuild happens immediately before its rebuild, so queries
      stay answerable at every step boundary;
    * builds run in ``order`` (default: the plan's benefit-per-byte order).
      While build *i* runs — for its modelled duration — the workload
      executes against the current intermediate database at
      ``workload_rate`` executions per second; that cost is the
      1107.3606 objective this function scores;
    * during each build window, one pending refresh batch (when given) is
      applied through ``refresh_executor`` — the update stream does not
      pause for the migration; the object being built receives the batches
      it missed via catch-up replay once online, and leftovers are applied
      after the last build;
    * finally CMs refresh on surviving objects and the object map is
      reordered — with no refreshes the resulting database is bit-identical
      to :meth:`DesignDiff.apply`.

    Every step is journaled into ``journal`` (one is created internally
    when not supplied — pass your own to make the run crash-safe): if the
    transition dies between steps, the same journal either
    :meth:`~MigrationJournal.resume`\\ s the run — completed steps are
    skipped, already-consumed refresh batches are not re-applied — or
    :meth:`~MigrationJournal.rollback`\\ s the database to its
    pre-migration state.  ``migration.step`` is a fault-injection site
    keyed by step boundary (0 before the first step, ``i`` after step
    ``i-1``), which is how the chaos tests kill the transition at every
    boundary.
    """
    plan = plan if plan is not None else diff.plan()
    session = session if session is not None else get_session()
    workload = workload if workload is not None else diff.new.workload
    all_refreshes = list(refreshes or [])
    if all_refreshes and refresh_executor is None:
        raise ValueError("refreshes given without a refresh_executor")
    report = TransitionReport(order=[s.name for s in plan.builds])
    if order is not None:
        by_name = {s.name: s for s in plan.builds}
        if sorted(order) != sorted(by_name):
            raise ValueError(
                f"order {order} does not match the plan's builds "
                f"{sorted(by_name)}"
            )
        builds = [by_name[name] for name in order]
        report.order = list(order)
    else:
        builds = list(plan.builds)

    rebuild_names = {s.name for s in builds}
    pure_drops = [s for s in plan.drops if s.name not in rebuild_names]
    journal = journal if journal is not None else MigrationJournal()
    fresh = journal.state == "idle"
    journal.begin(
        [("drop", s.name) for s in pure_drops]
        + [("build", s.name) for s in builds]
        + [("refresh-cms", s.name) for s in plan.cm_refreshes],
        db,
    )
    # A resumed run must not re-apply batches the first run already
    # consumed; the journal records consumption as it happens.
    pending = all_refreshes[journal.refreshes_consumed:]

    with ambient_scope(session):
        if fresh:
            faults.fire("migration.step", key=0)
        index = 0
        for step in pure_drops:
            if index >= journal.completed:
                journal.removed.setdefault(step.name, db.remove(step.name))
                report.steps.append(
                    TransitionStep("drop", step.name, 0.0, 0.0, 0.0)
                )
                journal.mark_done(index)
                faults.fire("migration.step", key=index + 1)
            index += 1
        for step in builds:
            if index < journal.completed:
                index += 1
                continue
            spec = diff._new_specs[step.name]
            duration = _build_duration_seconds(diff, spec)
            # A rebuild's old object is gone for the whole build window, so
            # drop it *before* pricing the intermediate workload.  On a
            # resume, a name already in ``journal.built`` is this run's own
            # half-deployed object, not old-design state — discard it
            # without overwriting the journaled original.
            if step.name in db.objects:
                prev = db.remove(step.name)
                if step.name not in journal.built:
                    journal.removed.setdefault(step.name, prev)
            # The workload keeps running against the *current* state for
            # the whole build.
            intermediate = db.total_seconds(workload) * workload_rate * duration
            refresh_seconds = 0.0
            if pending and not journal.step_refreshes.get(index):
                refresh_seconds = refresh_executor.apply(pending.pop(0)).seconds
                journal.step_refreshes[index] = 1
                journal.refreshes_consumed += 1
            built = diff.new.build_object(spec, session)
            if step.name not in journal.built:
                journal.built.append(step.name)
            db.add(built)
            if refresh_executor is not None:
                # An object built mid-stream materializes the design-time
                # snapshot: replay the batches it missed (online build
                # catch-up) so it answers queries consistently.
                refresh_seconds += refresh_executor.catch_up(built)
            report.steps.append(
                TransitionStep(
                    "build", step.name, duration, intermediate, refresh_seconds
                )
            )
            journal.mark_done(index)
            faults.fire("migration.step", key=index + 1)
            index += 1
        # The stream does not stop because the migration did.
        leftover = 0.0
        while pending:
            leftover += refresh_executor.apply(pending.pop(0)).seconds
            journal.refreshes_consumed += 1
        for step in plan.cm_refreshes:
            if index >= journal.completed:
                obj = db.object(step.name)
                journal.refreshed_cms.setdefault(step.name, list(obj.cms))
                obj.cms = diff.new.design_cms_for(
                    obj.heapfile, diff._new_specs[step.name]
                )
                report.steps.append(
                    TransitionStep("refresh-cms", step.name, 0.0, 0.0, 0.0)
                )
                journal.mark_done(index)
                faults.fire("migration.step", key=index + 1)
            index += 1
        if leftover:
            report.steps.append(
                TransitionStep("refresh", "<stream tail>", 0.0, 0.0, leftover)
            )
        db.objects = {
            spec.name: db.objects[spec.name] for spec in diff.new.object_specs()
        }
        db.invalidate_plans()
    journal.commit()
    report.final_db = db
    return report


def score_deployment_order(
    diff: DesignDiff,
    db: PhysicalDatabase,
    order: list[str] | None = None,
    session: EvalSession | None = None,
    workload: Workload | None = None,
    workload_rate: float = 1.0,
) -> TransitionReport:
    """Score a deployment order without disturbing ``db``.

    The transition runs against a copy (heap files are shared — scoring
    applies no refreshes — but each :class:`PhysicalObject` wrapper is
    duplicated so the plan's CM-refresh step cannot leak into ``db``), so
    several candidate orders can be compared cheaply: with an active
    session, each object is built once and every subsequent order replays
    it from cache.
    """
    from repro.storage.executor import PhysicalObject

    scratch = PhysicalDatabase()
    scratch.objects = {
        name: PhysicalObject(
            obj.heapfile, list(obj.cms), list(obj.btree_keys), obj.fact
        )
        for name, obj in db.objects.items()
    }
    return execute_transition(
        diff,
        scratch,
        session=session,
        order=order,
        workload=workload,
        workload_rate=workload_rate,
    )
