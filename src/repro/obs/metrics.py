"""Metrics: counters, gauges and histograms with a *commutative* merge.

A :class:`MetricsRegistry` is a plain in-memory store of named metrics,
installed ambiently (:func:`use_metrics`) the same way evaluation sessions
and tracers are.  Instrumented layers call the module-level helpers
(:func:`count`, :func:`observe`, :func:`set_gauge`), which no-op in one
contextvar read when no registry is active — so the disabled path costs
nothing measurable and the instrumentation cannot perturb results.

The merge contract is what lets the forked workers of a
:class:`~repro.engine.parallel.ParallelSweep` send each item's metrics home
on its result message: a registry exports to a plain picklable payload
(:meth:`MetricsRegistry.export`), and payloads merge commutatively —

* **counters** add (order-free for the integral hit/byte/row counts every
  instrumented layer emits);
* **gauges** combine by ``max`` (a gauge here reports a high-water mark;
  last-writer-wins would depend on merge order);
* **histograms** merge component-wise: counts and totals add, min/min and
  max/max, per-bucket counts add (buckets are powers of two of the observed
  value, so two workers bucket identically by construction).

Merging worker payloads in any order therefore yields the same registry,
whichever worker answers first.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

_INF = float("inf")

#: Bucket index for non-positive observations (durations and byte counts
#: are >= 0; an exact zero gets its own bucket below every power of two).
_ZERO_BUCKET = -1075


def _bucket(value: float) -> int:
    """``floor(log2(value))`` via frexp — the histogram bucket index."""
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.frexp(value)[1] - 1


@dataclass
class Histogram:
    """A mergeable summary of observations: count/total/min/max plus
    power-of-two bucket counts (enough shape for latency reporting without
    storing samples)."""

    count: int = 0
    total: float = 0.0
    min: float = _INF
    max: float = -_INF
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = _bucket(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls(
            count=int(data["count"]),
            total=float(data["total"]),
            min=_INF if data.get("min") is None else float(data["min"]),
            max=-_INF if data.get("max") is None else float(data["max"]),
        )
        hist.buckets = {int(b): int(n) for b, n in data.get("buckets", {}).items()}
        return hist


class MetricsRegistry:
    """Named counters, gauges and histograms; exportable and mergeable."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ----------------------------------------------------------- recording

    def inc(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------- reading

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Histogram | None:
        return self.histograms.get(name)

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # ----------------------------------------------------- export and merge

    def export(self) -> dict:
        """A plain picklable/JSON-able payload of every metric — the form
        that crosses process boundaries and lands in trace reports."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict() for name, hist in self.histograms.items()
            },
        }

    to_dict = export

    def merge(self, payload: "dict | MetricsRegistry") -> None:
        """Fold another registry (or an exported payload) into this one,
        using the commutative per-kind rules documented above."""
        if isinstance(payload, MetricsRegistry):
            payload = payload.export()
        for name, value in payload.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in payload.get("gauges", {}).items():
            prev = self.gauges.get(name)
            self.gauges[name] = value if prev is None else max(prev, value)
        for name, data in payload.get("histograms", {}).items():
            incoming = Histogram.from_dict(data)
            hist = self.histograms.get(name)
            if hist is None:
                self.histograms[name] = incoming
            else:
                hist.merge(incoming)


def merge_payloads(*payloads: dict) -> dict:
    """Pure commutative merge of exported payloads (the rule
    :meth:`MetricsRegistry.merge` applies to each worker payload)."""
    merged = MetricsRegistry()
    for payload in payloads:
        if payload:
            merged.merge(payload)
    return merged.export() if len(merged) else {}


# ----------------------------------------------------------- ambient registry

_METRICS: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics", default=None
)


def get_metrics() -> MetricsRegistry | None:
    """The ambient registry, or None when metrics are disabled."""
    return _METRICS.get()


@contextmanager
def use_metrics(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (a fresh one when None) ambiently for the
    duration of the ``with`` block."""
    active = registry if registry is not None else MetricsRegistry()
    token = _METRICS.set(active)
    try:
        yield active
    finally:
        _METRICS.reset(token)


def count(name: str, n: float = 1) -> None:
    """Increment counter ``name`` on the ambient registry (no-op when none
    is active — one contextvar read)."""
    registry = _METRICS.get()
    if registry is not None:
        registry.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` on the ambient registry."""
    registry = _METRICS.get()
    if registry is not None:
        registry.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the ambient registry (merge combines by max)."""
    registry = _METRICS.get()
    if registry is not None:
        registry.set_gauge(name, value)
