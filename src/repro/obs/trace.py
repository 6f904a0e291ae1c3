"""Hierarchical span tracing: contextvar-nested, near-zero cost when off.

A :class:`Tracer` records a tree of :class:`Span`\\ s — one per ``with
span("name"):`` block — each carrying ``perf_counter`` start/end times and a
free-form attribute dict.  Tracers are installed ambiently (the same
:class:`contextvars.ContextVar` idiom as :func:`repro.engine.use_session`),
so instrumented code never threads a tracer argument through call chains:

* :func:`span` — the module-level entry point every instrumented layer
  calls.  With no tracer active it returns a shared no-op singleton
  (:data:`NULL_SPAN`): the disabled path is one ``ContextVar.get`` plus an
  identity check, which is what makes instrumentation of the designer, the
  executor and the refresh path observationally invisible and essentially
  free when nobody is watching;
* :func:`annotate` — attach attributes to the innermost active span from
  code that did not open it (e.g. the warm-start internals of
  :mod:`repro.ilp.solver` annotating the enclosing ``ilp.solve`` span);
* :meth:`Tracer.render` / :meth:`Tracer.to_dict` — a text tree for eyeballs
  and a JSON-ready dict for artifacts (the ``TRACE_*.json`` reports the
  benchmarks emit).

Spans are the program's one stopwatch: a stage's time is its span's
``seconds``, and counts come from the values the instrumented calls return.

Tracing is *observational*: spans never feed back into plan choices, costs
or masks, so results with tracing on are bit-identical to results with it
off (enforced by ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator

TRACE_VERSION = 1


def jsonable(value):
    """Best-effort conversion of an attribute value to a JSON-serializable
    one (numpy scalars unwrap, tuples/sets become lists, everything else
    falls back to ``str``)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


class Span:
    """One timed block of work: name, attributes, children, seconds."""

    __slots__ = ("name", "attrs", "children", "start", "end", "_tracer")

    def __init__(self, name: str, attrs: dict | None, tracer: "Tracer") -> None:
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.children: list["Span"] = []
        self.start = 0.0
        self.end = 0.0
        self._tracer = tracer

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else None
        (parent.children if parent is not None else tracer.spans).append(self)
        tracer._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        self._tracer._stack.pop()
        return False

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            out["attrs"] = {k: jsonable(v) for k, v in self.attrs.items()}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s, {len(self.children)} children)"


class _NullSpan:
    """The shared disabled-path span: entering yields None, annotating and
    exiting do nothing.  A singleton, so ``span(...)`` allocates nothing
    when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """An in-memory collector of span trees (no I/O, no threads)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        """A new span, to be used as a context manager.  Unlike the
        module-level :func:`span`, this always records — callers holding a
        tracer explicitly (e.g. :mod:`repro.experiments.evolving`, which
        *reports* span durations) use it so their timings exist regardless
        of the ambient state."""
        return Span(name, attrs, self)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def total_seconds(self) -> float:
        return sum(span.seconds for span in self.spans)

    def to_dict(self) -> dict:
        return {
            "version": TRACE_VERSION,
            "spans": [span.to_dict() for span in self.spans],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """The span forest as an indented text tree with millisecond
        timings and inline attributes."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            label = "  " * depth + span.name
            attrs = " ".join(
                f"{k}={jsonable(v)}" for k, v in sorted(span.attrs.items())
            )
            line = f"{label:<44} {span.seconds * 1e3:12.3f} ms"
            if attrs:
                line += f"  [{attrs}]"
            lines.append(line)
            for child in span.children:
                walk(child, depth + 1)

        for root in self.spans:
            walk(root, 0)
        return "\n".join(lines)


# ------------------------------------------------------------- ambient tracer

_TRACER: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)


def get_tracer() -> Tracer | None:
    """The ambient tracer, or None when tracing is disabled."""
    return _TRACER.get()


@contextmanager
def use_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (a fresh one when None) as the ambient tracer for
    the duration of the ``with`` block."""
    active = tracer if tracer is not None else Tracer()
    token = _TRACER.set(active)
    try:
        yield active
    finally:
        _TRACER.reset(token)


def span(name: str, **attrs):
    """A context manager timing the enclosed block under the ambient
    tracer.  Disabled path (no tracer): returns the shared
    :data:`NULL_SPAN` — one contextvar read, zero allocation."""
    tracer = _TRACER.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost active span (no-op when tracing
    is disabled or no span is open)."""
    tracer = _TRACER.get()
    if tracer is not None and tracer._stack:
        tracer._stack[-1].attrs.update(attrs)
