"""Deterministic fault injection for chaos tests.

The fault layer is a contextvar-ambient :class:`FaultPlan` — an ordered set of
:class:`FaultSpec` rules, each naming an instrumented *site*.  Production code
calls :func:`fire` at each site; with no ambient plan the call is a
dictionary lookup returning ``None``, so the hooks are free in normal
operation.  A matching rule raises :class:`InjectedFault`, which is how
``tests/test_faults.py`` interrupts a migration at every step boundary and
checks that the journal resumes to the exact target design or rolls back to
the exact source one.

Instrumented sites (``key`` passed by the caller):

=================  ==========================  ================================
site               key                         fired by
=================  ==========================  ================================
``migration.step`` step boundary index         :func:`repro.design.migration.execute_transition`
=================  ==========================  ================================
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


class InjectedFault(RuntimeError):
    """Raised by a matching fault rule; carries the site and spec."""

    def __init__(self, site: str, key, spec: "FaultSpec"):
        super().__init__(f"injected fault at {site}[{key!r}]")
        self.site = site
        self.key = key
        self.spec = spec


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: raise at ``site`` whenever the match holds.

    ``kind`` is ``"raise"``, the one kind a process can survive.
    ``key=None`` matches every key at the site.  ``at`` restricts the rule to
    the Nth matching call (0-based); ``times`` caps how often the rule fires
    (``None`` = every match).
    """

    site: str
    kind: str = "raise"
    key: object = None
    at: int | None = None
    times: int | None = None

    def __post_init__(self) -> None:
        if self.kind != "raise":
            raise ValueError(f"unknown fault kind {self.kind!r}; expected 'raise'")


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` rules with match
    counters."""

    def __init__(self, *specs: FaultSpec):
        self.specs = tuple(specs)
        self._hits: dict[int, int] = {}
        self._fired: dict[int, int] = {}

    def fire(self, site: str, key=None) -> None:
        for idx, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.key is not None and spec.key != key:
                continue
            hits = self._hits.get(idx, 0)
            self._hits[idx] = hits + 1
            if spec.at is not None and hits != spec.at:
                continue
            fired = self._fired.get(idx, 0)
            if spec.times is not None and fired >= spec.times:
                continue
            self._fired[idx] = fired + 1
            raise InjectedFault(site, key, spec)


_FAULTS: ContextVar[FaultPlan | None] = ContextVar("repro_fault_plan", default=None)


def get_faults() -> FaultPlan | None:
    """The ambient fault plan, or ``None`` when chaos is off."""
    return _FAULTS.get()


@contextmanager
def use_faults(plan: FaultPlan | None):
    """Install ``plan`` as the ambient fault plan for the dynamic scope."""
    token = _FAULTS.set(plan)
    try:
        yield plan
    finally:
        _FAULTS.reset(token)


def fire(site: str, key=None) -> None:
    """Raise any ambient fault matching ``site``/``key``; no-op without a
    plan."""
    plan = _FAULTS.get()
    if plan is not None:
        plan.fire(site, key)
