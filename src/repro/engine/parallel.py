"""Design sweeps, in process.

A budget ladder's designs share almost all of their evaluation work — the
MVs, clustered files and CMs they materialize — through one
:class:`~repro.engine.session.EvalSession`, so a sweep is a loop over its
items under that session.  Forking workers to share the loop out was
measured to lose or tie (SSB at 240k rows, four budgets: 1.06x forked,
0.98x with the parent materializing every design first) and was removed;
:class:`ParallelSweep` keeps its signature for the callers that name it.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.engine.session import EvalSession, ambient_scope


class ParallelSweep:
    """``map`` is ``[fn(item) for item in items]`` under the given session.

    ``workers`` is accepted and ignored.  ``last_stats`` stays empty: there
    is no pool to account for.
    """

    def __init__(self, workers: int = 1) -> None:
        self.last_stats: dict = {}

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        session: EvalSession | None = None,
    ) -> list[Any]:
        with ambient_scope(session):
            return [fn(item) for item in items]
