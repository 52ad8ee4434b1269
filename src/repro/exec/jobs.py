"""Declarative, hashable simulation-run specs.

A :class:`RunJob` pins down everything that determines a run's outcome:
the trace (by name, plus the synthesis seed and replay cap that shape it),
the protocol, and the full :class:`~repro.harness.config.SimulationConfig`.
Its :meth:`~RunJob.key` is a stable content digest of that spec; its
:meth:`~RunJob.digest` additionally folds in a fingerprint of the
``repro`` source tree, so cached results self-invalidate whenever the
simulator's code changes.
"""

from __future__ import annotations

import hashlib
import json
from copy import deepcopy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Mapping

from repro.exec.summary import (
    RunSummary,
    SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
)
from repro.faults import FaultPlan
from repro.harness import runner
from repro.harness.config import CONFIG_AXES, SimulationConfig, axis, declared_axes
from repro.harness.registry import PROTOCOLS


@dataclass(frozen=True)
class RunJob:
    """One protocol-over-trace simulation, fully specified and hashable."""

    trace: str
    protocol: str
    config: SimulationConfig
    #: Seed and replay cap passed to trace *synthesis* (the replay cap
    #: scales the calibrated loss targets, so it is part of the trace
    #: identity, not just a truncation).
    trace_seed: int = 0
    trace_max_packets: int | None = None
    #: Deterministic fault schedule executed during the run.  Part of the
    #: run's identity: it folds into :meth:`key`/:meth:`digest`, but only
    #: when non-empty, so fault-free digests match pre-fault builds.
    faults: FaultPlan = FaultPlan()
    #: Declarative :mod:`repro.workloads` spec driving the send schedule;
    #: ``""`` means the legacy source-paced schedule.
    workload: str = axis(
        "",
        compile="repro.workloads:compile_workload",
        flag_help="drive the send schedule with a repro.workloads spec, e.g. "
        "zipf:alpha=1.1,objects=500 (default: the source-paced schedule; "
        "`cesrm workloads` lists the families)",
        dimension=1,
    )
    #: Declarative :mod:`repro.churn` spec installing a membership
    #: join/leave process over the run; ``""`` means static membership.
    churn: str = axis(
        "",
        compile="repro.churn:compile_churn",
        flag_help="install a membership join/leave process over the run, e.g. "
        "churn:rate=0.5,leave=0.4 (default: static membership; see "
        "docs/topologies.md for the grammar)",
        dimension=4,
    )

    def __post_init__(self) -> None:
        # Validate eagerly so a typo fails at job construction, not in
        # a pool worker three layers down.
        PROTOCOLS.get(self.protocol)
        check_trace(self.trace)
        for declared in JOB_AXES:
            declared.check(getattr(self, declared.name))

    # ------------------------------------------------------------------
    # Serialization (the spec must cross process boundaries)
    # ------------------------------------------------------------------
    @cached_property
    def _wire(self) -> dict[str, Any]:
        """The wire form, built once per instance: a warm batch asks a
        job for its key, digest and label several times over.  Never
        handed out (:meth:`to_dict` copies it), so nothing can corrupt
        the identity it names."""
        data: dict[str, Any] = {
            "trace": self.trace,
            "protocol": self.protocol,
            "config": config_to_dict(self.config),
            "trace_seed": self.trace_seed,
            "trace_max_packets": self.trace_max_packets,
        }
        if not self.faults.empty:
            data["faults"] = self.faults.to_dict()
        for declared in JOB_AXES:
            value = getattr(self, declared.name)
            if value != declared.default:
                data[declared.name] = value
        return data

    def to_dict(self) -> dict[str, Any]:
        return deepcopy(self._wire)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunJob":
        # Wire-format compatibility: entries written before fault support
        # or before an axis existed lack those keys and decode to the
        # defaults.
        return cls(
            trace=data["trace"],
            protocol=data["protocol"],
            config=config_from_dict(data["config"]),
            trace_seed=data["trace_seed"],
            trace_max_packets=data["trace_max_packets"],
            faults=FaultPlan.from_dict(data.get("faults", {"events": []})),
            **{a.name: data[a.name] for a in JOB_AXES if a.name in data},
        )

    # ------------------------------------------------------------------
    # Digests
    # ------------------------------------------------------------------
    def key(self) -> str:
        """Content digest of the spec alone (names the cache slot)."""
        return self._key

    @cached_property
    def _key(self) -> str:
        payload = json.dumps(
            {"schema": SCHEMA_VERSION, "job": self._wire}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:40]

    def digest(self, fingerprint: str) -> str:
        """Spec digest folded with the source-tree ``fingerprint``: a
        cache entry is valid only while both match."""
        digest = self._digests.get(fingerprint)
        if digest is None:
            payload = json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "job": self._wire,
                    "fingerprint": fingerprint,
                },
                sort_keys=True,
            )
            digest = hashlib.sha256(payload.encode()).hexdigest()
            self._digests[fingerprint] = digest
        return digest

    @cached_property
    def _digests(self) -> dict[str, str]:
        """fingerprint -> :meth:`digest`, filled as fingerprints are asked."""
        return {}

    def describe(self) -> str:
        labels = (f"{k}={v}" for k, v in stored_axes(self._wire).items())
        return "/".join([self.protocol, self.trace, *labels])


#: The axes :class:`RunJob` is home to, and every axis of a run (the
#: config's ride inside the job).
JOB_AXES = declared_axes(RunJob)
RUN_AXES = JOB_AXES + CONFIG_AXES
_CONFIG_HOMED = frozenset(a.name for a in CONFIG_AXES)


def split_axes(
    values: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Axis values by home: ``(RunJob keywords, SimulationConfig
    changes)``."""
    job: dict[str, Any] = {}
    config: dict[str, Any] = {}
    for name, value in values.items():
        (config if name in _CONFIG_HOMED else job)[name] = value
    return job, config


def stored_axes(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The axes a :meth:`RunJob.to_dict` payload carries: those off their
    defaults, which is all the wire form records — and what tells two
    otherwise identical runs apart in a listing.  A non-empty fault plan
    is told apart the same way, as ``faults=<events>:<first 8 hex of its
    canonical-JSON sha256>``."""
    axes = {a.name: payload[a.name] for a in JOB_AXES if a.name in payload}
    config = payload["config"]
    axes.update((a.name, config[a.name]) for a in CONFIG_AXES if a.name in config)
    faults = payload.get("faults")
    if faults:
        text = json.dumps(faults, sort_keys=True)
        axes["faults"] = (
            f"{len(faults['events'])}:"
            f"{hashlib.sha256(text.encode()).hexdigest()[:8]}"
        )
    return axes


def check_trace(trace: str) -> None:
    """Raise ``ValueError`` unless ``trace`` is a job's runnable trace: a
    Table 1 trace name, a named world (:mod:`repro.traces.worlds`) or a
    valid generative topology spec."""
    from repro.net.families import is_topology_spec, parse_topology_spec
    from repro.traces.worlds import WORLDS
    from repro.traces.yajnik import YAJNIK_TRACES

    if is_topology_spec(trace):
        parse_topology_spec(trace)  # TopologyError is a ValueError
        return
    if trace not in WORLDS and trace not in {meta.name for meta in YAJNIK_TRACES}:
        raise ValueError(
            f"unknown trace {trace!r}: expected a Yajnik name "
            f"({', '.join(meta.name for meta in YAJNIK_TRACES[:3])}, ...), "
            f"a world ({', '.join(WORLDS)}) or a topology spec like "
            f"tree:depth=3,fanout=4"
        )


def synthesize_job_trace(
    trace: str, seed: int = 0, max_packets: int | None = None
):
    """Resolve a job's ``trace`` field: a generative topology spec
    (``tree:depth=3,fanout=2``) builds its own tree; a plain name is a
    named world or a Table 1 trace.  Deterministic in the arguments."""
    from repro.net.families import is_topology_spec, synthesize_topology_trace
    from repro.traces.synthesize import synthesize_trace
    from repro.traces.worlds import WORLDS, synthesize_world
    from repro.traces.yajnik import trace_meta

    if is_topology_spec(trace):
        return synthesize_topology_trace(trace, seed=seed, max_packets=max_packets)
    if trace in WORLDS:
        return synthesize_world(trace, seed=seed, max_packets=max_packets)
    return synthesize_trace(trace_meta(trace), seed=seed, max_packets=max_packets)


def run_job(
    job: RunJob, synthetic=None, tracer=None, profiler=None
) -> runner.RunResult:
    """Run ``job`` — the one place a job spec turns into a ``run_trace``
    call.  ``synthetic`` is the job's already-synthesized trace when the
    caller holds one; ``tracer`` / ``profiler`` are :mod:`repro.obs` hooks."""
    if synthetic is None:
        synthetic = synthesize_job_trace(
            job.trace, seed=job.trace_seed, max_packets=job.trace_max_packets
        )
    return runner.run_trace(
        synthetic,
        job.protocol,
        job.config,
        tracer=tracer,
        profiler=profiler,
        faults=job.faults,
        **{a.name: getattr(job, a.name) for a in JOB_AXES},
    )


def execute_job(job: RunJob) -> RunSummary:
    """Synthesize the job's trace and run it — the worker-side entry
    point (deterministic in the job spec)."""
    return RunSummary.from_result(run_job(job))


@lru_cache(maxsize=8)
def source_fingerprint(root: str | None = None) -> str:
    """SHA-256 over the ``repro`` package sources (paths + contents).

    Folded into every job digest so cached runs invalidate when any
    simulator code changes.  ``root`` overrides the hashed tree (tests).
    """
    if root is None:
        import repro

        base = Path(repro.__file__).resolve().parent
    else:
        base = Path(root).resolve()
    hasher = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        hasher.update(str(path.relative_to(base)).encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()
