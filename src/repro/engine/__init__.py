"""The shared evaluation engine (see :mod:`repro.engine.session`).

Public surface::

    from repro.engine import EvalSession, use_session, get_session

    with use_session() as session:      # one session per budget sweep
        for budget in ladder:
            evaluate_design(designer.design(budget))
        print(session.stats)

Parallel sweeps (see :mod:`repro.engine.parallel`)::

    from repro.engine import EvalSession, ParallelSweep

    session = EvalSession()
    sweep = ParallelSweep(workers=4)    # serial fallback when workers=1
    evaluated = sweep.map(evaluate, designs, session=session)

There is one parallel path — a forked standard-library process pool — and
one session: neither takes a switch that selects an older behaviour.

Forked workers inherit the session they evaluate under — ``fork`` is the
only parent -> worker transport.  What comes home is each item's result;
what a worker adds to its copy of the session stays there.

Fault tolerance (see :mod:`repro.engine.faults`): every forked sweep has
one recovery rule — an item a worker does not bring home (it raised, or a
worker died) runs again in the parent — and a contextvar-ambient
:class:`~repro.engine.faults.FaultPlan` injects deterministic
crashes/hangs/exceptions for chaos tests::

    from repro.engine import FaultPlan, FaultSpec, use_faults

    with use_faults(FaultPlan(FaultSpec("sweep.task", "crash", key=2))):
        sweep.map(evaluate, designs, session=EvalSession())
"""

from repro.engine.context import EvalContext
from repro.engine.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    get_faults,
    use_faults,
)
from repro.engine.parallel import ParallelSweep, fork_available
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
    "fork_available",
    "get_faults",
    "get_session",
    "use_faults",
    "use_session",
]
