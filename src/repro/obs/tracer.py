"""The event bus: one :class:`Tracer` per traced simulation run.

Agents, the network, timers, and the invariant monitor all reach the
tracer through ``Simulator.tracer`` — a single plumbing point that is
``None`` by default, so an untraced run pays exactly one attribute load
and an ``is None`` test per would-be event (unobservable on full runs;
the layered benchmark's ``obs.*`` ratios record what attaching one
costs).

Besides fanning events out to its sinks, the tracer keeps cheap run-level
aggregates — event counts by kind and by node, plus named
:class:`~repro.metrics.stats.Histogram`\\ s fed via :meth:`observe` —
which :func:`~repro.harness.runner.run_trace` folds into
``RunResult.obs`` / ``RunSummary.obs`` so traced artifacts ride the
``repro.exec`` cache alongside the results they explain.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.metrics.stats import Histogram
from repro.obs.events import TraceEvent
from repro.obs.sink import TraceSink


class Tracer:
    """Collects trace events, fans them out to sinks, keeps aggregates."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks: tuple[TraceSink, ...] = sinks
        self.events_by_kind: Counter[str] = Counter()
        self.events_by_node: Counter[str] = Counter()
        self.histograms: dict[str, Histogram] = {}
        self.emitted = 0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        time: float,
        kind: str,
        node: str | None = None,
        source: str | None = None,
        seqno: int | None = None,
        **detail: Any,
    ) -> None:
        """Record one event (the instrumented layers' entry point)."""
        event = TraceEvent(time, kind, node, source, seqno, detail or None)
        self.events_by_kind[kind] += 1
        if node is not None:
            self.events_by_node[node] += 1
        self.emitted += 1
        for sink in self.sinks:
            sink.emit(event)

    def observe(self, name: str, value: float) -> None:
        """Feed ``value`` into the named histogram (created on demand)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram()
            self.histograms[name] = histogram
        histogram.add(value)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """The run-level aggregate exported through ``RunSummary.obs``."""
        return {
            "events_emitted": self.emitted,
            "events_by_kind": dict(sorted(self.events_by_kind.items())),
            "events_by_node": dict(sorted(self.events_by_node.items())),
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(emitted={self.emitted}, sinks={len(self.sinks)})"
