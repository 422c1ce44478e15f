"""``repro.obs`` — the simulation-time observability layer.

Three legs, bundled by :class:`Observability` so a component needs one
reference to get all of them:

- :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms with label sets and sim-clock timestamps (Prometheus-style
  text + JSON export);
- :class:`~repro.obs.trace.Tracer` — causal spans carrying
  ticket/file/transfer ids through the whole request path;
- a :class:`~repro.netlogger.log.NetLogger` — the ULM event log the
  lifeline analysis in :mod:`repro.netlogger.analysis` consumes.

A bundle is in one of two states: :meth:`Observability.create` wires
all three legs, and a bare ``Observability()`` has none, so every emit
helper is a no-op. Instrumented components always hold a bundle (the
bare one when the caller passes none) and emit through its helpers
without checking first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.trace import Span, Tracer
from repro.sim.core import Environment

if TYPE_CHECKING:  # repro.netlogger imports repro.net, which imports us
    from repro.netlogger.log import NetLogger


@dataclass
class Observability:
    """The bundle instrumented components carry.

    ``Observability()`` is the off state: no legs, every helper a
    no-op. The analysis tier (``repro.obs.timeseries`` /
    ``critical_path`` / ``slo``) reads a wired bundle; ``timeseries``
    is attached by scenario helpers (e.g.
    ``EsgTestbed.start_timeseries``) when windowed recording is on.
    """

    logger: Optional[NetLogger] = None
    metrics: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    timeseries: Optional[TimeSeriesRecorder] = None

    @classmethod
    def create(cls, env: Environment, host: str = "localhost",
               prog: str = "repro",
               logger: Optional[NetLogger] = None) -> "Observability":
        """A fully-wired bundle; pass ``logger`` to share an existing
        event log."""
        if logger is None:
            from repro.netlogger.log import NetLogger
            logger = NetLogger(env, host=host, prog=prog)
        return cls(logger=logger,
                   metrics=MetricsRegistry(env, logger=logger),
                   tracer=Tracer(env))

    # -- emit helpers (each checks its own leg) ----------------------------
    def event(self, name: str, host: Optional[str] = None,
              prog: Optional[str] = None, **fields) -> None:
        """Append a ULM event (no-op without a logger)."""
        if self.logger is not None:
            self.logger.event(name, host=host, prog=prog, **fields)

    def count(self, name: str, amount: float = 1.0, **labels) -> None:
        """Increment a counter (no-op without metrics)."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge (no-op without metrics)."""
        if self.metrics is not None:
            self.metrics.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record a histogram observation (no-op without metrics)."""
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, **labels)

    def span(self, name: str, trace: Optional[str] = None,
             parent: Optional[Span] = None, **fields) -> Optional[Span]:
        """Open a span (None without a tracer — callers must guard)."""
        if self.tracer is None:
            return None
        return self.tracer.start(name, trace=trace, parent=parent,
                                 **fields)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TimeSeriesRecorder",
    "Tracer",
]
