"""The shared evaluation engine (see :mod:`repro.engine.session`).

Public surface::

    from repro.engine import EvalSession, use_session, get_session

    with use_session() as session:      # one session per budget sweep
        for budget in ladder:
            evaluate_design(designer.design(budget))
        print(session.stats)

A sweep is a loop under one session: the designs of a budget ladder share
what they materialize, so the session carries almost all of the work from
one budget to the next.  :class:`~repro.engine.parallel.ParallelSweep` is
that loop, kept by name for its callers; it starts no processes.

Fault injection (see :mod:`repro.engine.faults`): a contextvar-ambient
:class:`~repro.engine.faults.FaultPlan` raises at a named site, which is how
the chaos tests interrupt a migration at every step boundary::

    from repro.engine import FaultPlan, FaultSpec, use_faults

    with use_faults(FaultPlan(FaultSpec("migration.step", key=2))):
        execute_transition(diff, db, journal=journal)   # raises InjectedFault
"""

from repro.engine.context import EvalContext
from repro.engine.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    get_faults,
    use_faults,
)
from repro.engine.parallel import ParallelSweep
from repro.engine.session import (
    EvalSession,
    ambient_scope,
    get_session,
    use_session,
)

__all__ = [
    "EvalContext",
    "EvalSession",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ParallelSweep",
    "ambient_scope",
    "get_faults",
    "get_session",
    "use_faults",
    "use_session",
]
