"""The pluggable workload registry and spec-string grammar.

A *workload* decides when each data packet is multicast and by whom —
the offered-traffic side of an experiment, orthogonal to the protocol,
the topology, and the fault plan.  Every workload family the harness can
run is described by one :class:`WorkloadSpec` (mirroring
:class:`~repro.harness.registry.ProtocolSpec`): a factory that turns the
family's parameters into a deterministic generator of
:class:`SendEvent`\\ s.  The spec-string grammar is::

    family[:key=value[,key=value...]]

e.g. ``zipf:alpha=1.1,objects=500``, ``flash_crowd:peak=20x,ramp=5s``,
``multi_source:senders=4``, or a single positional value where the
family takes one (``trace:WRN951128``).  :func:`compile_workload` parses
and validates a spec string into a :class:`Workload`, whose
:meth:`~Workload.events` method materializes the seeded event stream for
a concrete trace.

Determinism contract: event generation draws from one
:class:`~repro.sim.rng.RngRegistry` stream derived from
``(seed, trace name, canonical spec)`` and nothing else, so the same
spec + seed yields the identical stream for every protocol — workloads
offer the *same* traffic to SRM and CESRM — and registering new families
never perturbs existing ones (name-isolated streams).

A new family plugs in with one call:

.. code-block:: python

    from repro.workloads import WORKLOADS, WorkloadSpec

    WORKLOADS.register(WorkloadSpec(name="my-burst", factory=my_factory))

where ``my_factory(params)`` validates the raw parameter mapping and
returns a ``generate(trace, rng)`` callable yielding :class:`SendEvent`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.harness import specstr
from repro.harness.registries import Registry
from repro.sim.rng import RngRegistry
from repro.traces.model import LossTrace

#: ``generate(trace, rng)`` — yields the send events of one run.
Generator = Callable[[LossTrace, random.Random], Iterable["SendEvent"]]

#: ``factory(params)`` — validates raw parameters, returns a generator.
GeneratorFactory = Callable[[Mapping[str, str]], Generator]


class WorkloadError(ValueError):
    """Raised for malformed spec strings, unknown families or parameters,
    and generators that emit invalid event streams."""


@dataclass(frozen=True)
class SendEvent:
    """One data-packet transmission requested by a workload.

    ``time`` is the offset from the run's ``transmission_start``;
    ``sender`` names the multicasting host (the tree source or any
    receiver — SRM is any-source); ``seqno`` is the sender-local sequence
    number; ``obj`` tags the application object the packet belongs to
    (popularity-driven families use it, constant-rate ones leave it 0).
    """

    time: float
    sender: str
    seqno: int
    obj: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the harness needs to run one workload family."""

    #: Registry name (the spec string's ``family`` part).
    name: str
    #: Builds a generator from the raw ``key=value`` parameter mapping;
    #: must raise :class:`WorkloadError` on unknown keys or bad values.
    factory: GeneratorFactory
    #: One-line description for ``cesrm workloads`` listings.
    description: str = ""
    #: Documented parameters: ``name -> "default — meaning"``.
    params_doc: Mapping[str, str] = field(default_factory=dict)
    #: Extra metadata for listings and experiments.
    tags: tuple[str, ...] = field(default=())


#: The workload surface (see :mod:`repro.harness.registries`); its
#: spec-string error wording predates the shared grammar and is pinned
#: by tests.
WORKLOADS: Registry[WorkloadSpec] = Registry("workload", error=WorkloadError)


class Workload:
    """A compiled workload: a validated family + parameters pair that can
    materialize its deterministic event stream for any trace."""

    def __init__(self, name: str, params: Mapping[str, str], generate: Generator):
        self.name = name
        self.params = dict(params)
        self._generate = generate

    @property
    def spec(self) -> str:
        """The canonical spec string (what digests and summaries record)."""
        return specstr.canonical_spec(self.name, self.params)

    def events(self, trace: LossTrace, seed: int = 0) -> tuple[SendEvent, ...]:
        """The full, validated event stream for ``trace`` under ``seed``.

        Deterministic in ``(spec, trace, seed)``: the generator's only
        entropy source is a registry stream named by the canonical spec
        under a ``workload:<trace>`` fork, so it is isolated from every
        agent/synthesis stream by construction.
        """
        rng = RngRegistry(seed).fork(f"workload:{trace.name}").stream(self.spec)
        events = tuple(self._generate(trace, rng))
        _validate_events(events, trace, self.spec)
        return events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Workload({self.spec!r})"


def compile_workload(spec: str) -> Workload:
    """Parse and validate ``spec`` into a :class:`Workload` (the single
    validation point — :class:`~repro.exec.jobs.RunJob` and the CLI both
    call this, so a typo fails before any simulation starts)."""
    ws, params = WORKLOADS.resolve(spec)
    return Workload(ws.name, params, ws.factory(dict(params)))


def _validate_events(
    events: tuple[SendEvent, ...], trace: LossTrace, spec: str
) -> None:
    """Reject streams the protocol stack cannot recover: unknown senders,
    negative/NaN times, and per-sender sequence gaps (a skipped seqno
    would register as a permanently unrepairable loss at every receiver).
    """
    if not events:
        raise WorkloadError(f"workload {spec!r} generated no events")
    hosts = set(trace.tree.hosts)
    per_sender: dict[str, set[int]] = {}
    for ev in events:
        if ev.sender not in hosts:
            raise WorkloadError(
                f"workload {spec!r} uses unknown sender {ev.sender!r}"
            )
        if not math.isfinite(ev.time) or ev.time < 0.0:
            raise WorkloadError(
                f"workload {spec!r} scheduled an event at invalid time {ev.time!r}"
            )
        seen = per_sender.setdefault(ev.sender, set())
        if ev.seqno in seen:
            raise WorkloadError(
                f"workload {spec!r} repeats seqno {ev.seqno} at {ev.sender!r}"
            )
        seen.add(ev.seqno)
    for sender, seqnos in per_sender.items():
        if seqnos != set(range(len(seqnos))):
            raise WorkloadError(
                f"workload {spec!r} leaves sequence gaps at {sender!r} "
                f"(seqnos must cover 0..{len(seqnos) - 1})"
            )


__all__ = [
    "Generator",
    "GeneratorFactory",
    "SendEvent",
    "WORKLOADS",
    "Workload",
    "WorkloadError",
    "WorkloadSpec",
    "compile_workload",
]
