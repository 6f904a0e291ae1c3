"""Deterministic fault injection for chaos tests.

The fault layer is a contextvar-ambient :class:`FaultPlan` — an ordered set of
:class:`FaultSpec` rules, each naming an instrumented *site* and a failure
*kind*.  Production code calls :func:`fire` at each site; with no ambient plan
the call is a dictionary lookup returning ``None``, so the hooks are free in
normal operation.  Because plans are plain data with per-process match
counters, the same plan drives every chaos test (``tests/test_faults.py``:
a crash-injected sweep recovers to bit-identical results, an interrupted
migration resumes to the exact target design), and a seeded plan replays
the exact same fault schedule on every run.

Instrumented sites (``key`` passed by the caller):

=================  ==========================  ================================
site               key                         fired by
=================  ==========================  ================================
``sweep.task``     item index                  sweep worker, per item
``migration.step`` step boundary index         :func:`repro.design.migration.execute_transition`
=================  ==========================  ================================

Fault kinds:

* ``"crash"`` — ``os._exit(23)``: the process dies without cleanup, exactly
  like a SIGKILL from the outside.
* ``"hang"`` — sleep for ``delay_s`` seconds, then continue normally.
* ``"raise"`` — raise :class:`InjectedFault`.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


KINDS = ("raise", "crash", "hang")


class InjectedFault(RuntimeError):
    """Raised by a ``kind="raise"`` fault; carries the site and spec."""

    def __init__(self, site: str, key, spec: "FaultSpec"):
        super().__init__(f"injected fault at {site}[{key!r}]")
        self.site = site
        self.key = key
        self.spec = spec


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: fire ``kind`` at ``site`` whenever the match holds.

    ``key=None`` matches every key at the site.  ``at`` restricts the rule to
    the Nth matching call (0-based, counted per process); ``times`` caps how
    often the rule fires per process (``None`` = every match).  Sites fire
    in sweep workers only, so an item the pool loses runs in the parent
    without faults.
    """

    site: str
    kind: str = "raise"
    key: object = None
    at: int | None = None
    times: int | None = None
    delay_s: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")

    def describe(self) -> str:
        where = self.site if self.key is None else f"{self.site}@{self.key}"
        mods = []
        if self.at is not None:
            mods.append(f"at={self.at}")
        if self.times is not None:
            mods.append(f"times={self.times}")
        suffix = f" ({', '.join(mods)})" if mods else ""
        return f"{where}:{self.kind}{suffix}"


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` rules with match counters.

    Counters are per-process state: a forked sweep worker inherits the
    parent's counts at fork time, so every worker starts from the same state
    — which is what keeps injected schedules deterministic.
    """

    def __init__(self, *specs: FaultSpec, seed: int | None = None):
        self.specs = tuple(specs)
        self.seed = seed
        self._hits: dict[int, int] = {}
        self._fired: dict[int, int] = {}

    def __bool__(self) -> bool:
        return bool(self.specs)

    def describe(self) -> str:
        return "; ".join(spec.describe() for spec in self.specs) or "<empty>"

    def fire(self, site: str, key=None) -> FaultSpec | None:
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
            if spec.kind == "crash":
                os._exit(23)
            if spec.kind == "hang":
                time.sleep(spec.delay_s)
                return spec
            raise InjectedFault(site, key, spec)
        return None

    @classmethod
    def random(
        cls,
        seed: int,
        n_items: int,
        kinds: tuple[str, ...] = ("crash", "raise"),
        rate: float = 0.25,
        delay_s: float = 30.0,
    ) -> "FaultPlan":
        """A seeded random schedule over the ``sweep.task`` site's first
        ``n_items`` item indices.

        Each key independently draws a fault with probability ``rate``; the
        same seed always yields the same schedule, so property tests can
        shrink failures to a single integer.
        """
        rng = random.Random(seed)
        specs = []
        for key in range(n_items):
            if rng.random() < rate:
                kind = rng.choice(list(kinds))
                specs.append(
                    FaultSpec("sweep.task", kind, key=key, delay_s=delay_s)
                )
        return cls(*specs, seed=seed)


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


def fire(site: str, key=None) -> FaultSpec | None:
    """Fire any ambient fault matching ``site``/``key``; no-op without a plan."""
    plan = _FAULTS.get()
    if plan is None:
        return None
    return plan.fire(site, key)
