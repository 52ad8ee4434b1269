"""JSON-serializable reduction of a simulation run.

:class:`~repro.harness.runner.RunResult` cannot cross process or disk
boundaries as-is: its :class:`~repro.metrics.collector.MetricsCollector`
holds ``Counter``\\ s keyed by ``(host, PacketKind, Cast)`` enum tuples and
its crossings snapshot is keyed by tuples — neither survives ``json``.
:class:`RunSummary` flattens every statistic the report layer consumes
into plain lists/dicts (enums by value, tuples as lists) and rehydrates a
full ``RunResult`` on demand, so code downstream of the execution engine
never notices whether a run was fresh, pooled, or read from the cache.

The round trip is lossless: ``RunSummary.from_json(s.to_json())`` equals
``s``, and the rehydrated result reproduces every figure/table value of
the original bit-for-bit (floats survive JSON via ``repr`` round-trip).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import Any

from repro.harness.config import CONFIG_AXES, SimulationConfig
from repro.harness.runner import RunResult
from repro.metrics.collector import MetricsCollector, RecoveryRecord
from repro.metrics.overhead import OverheadBreakdown
from repro.net.packet import Cast, PacketKind
from repro.srm.constants import SrmParams

#: Bump when the summary layout changes; mismatching cache entries are
#: treated as misses rather than decoded.
SCHEMA_VERSION = 1

_CONFIG_FIELDS = tuple(f.name for f in fields(SimulationConfig))
_PARAMS_FIELDS = tuple(f.name for f in fields(SrmParams))
#: Enum member by stored value (a summary keeps enums by value).
_KINDS = {kind.value: kind for kind in PacketKind}
_CASTS = {cast.value: cast for cast in Cast}


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    """``SimulationConfig`` (with nested ``SrmParams``) as plain JSON data.

    An axis at its default is omitted, so default-config job keys and
    summaries stay byte-identical to builds that pre-date the axis — the
    same discipline as the optional summary blocks.  Every field of both
    classes is a scalar, so a field-tuple read is the whole encoding.
    """
    data = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    params = config.params
    data["params"] = {name: getattr(params, name) for name in _PARAMS_FIELDS}
    for declared in CONFIG_AXES:
        if data[declared.name] == declared.default:
            del data[declared.name]
    return data


def config_from_dict(data: dict[str, Any]) -> SimulationConfig:
    """Inverse of :func:`config_to_dict` (a missing axis key — the wire
    format before the axis existed — decodes to the field's default)."""
    payload = dict(data)
    payload["params"] = SrmParams(**payload["params"])
    return SimulationConfig(**payload)


@dataclass
class RunSummary:
    """Everything of one run that the figures, tables, and CLI consume."""

    protocol: str
    trace_name: str
    config: dict[str, Any]
    receivers: list[str]
    source: str
    rtt_to_source: dict[str, float]
    #: ``[host, kind value, cast value, count]`` rows, sorted.
    sends: list[list[Any]]
    losses_detected: dict[str, int]
    #: host -> ``[seq, latency, expedited, requests_sent]`` rows in
    #: completion order (the timeline re-sorts by seq itself).
    recoveries: dict[str, list[list[Any]]]
    duplicate_replies: dict[str, int]
    undetected_recoveries: dict[str, int]
    late_arrivals: dict[str, int]
    unrecovered_counts: dict[str, int]
    unrecovered_seqs: dict[str, list[int]]
    overhead: dict[str, int]
    #: ``[kind value, cast value, count]`` rows, sorted.
    crossings: list[list[Any]]
    n_packets: int
    total_losses: int
    sim_time: float
    events_processed: int
    wall_time: float
    schema: int = field(default=SCHEMA_VERSION)
    #: Observability summary (tracer counters / profiler hot-spots) of a
    #: traced run; None (and omitted from the JSON form) otherwise, so
    #: untraced summaries are byte-identical to pre-obs builds.
    obs: dict[str, Any] | None = None
    #: Fault-injection counters of a run that executed a non-empty
    #: :class:`~repro.faults.FaultPlan`; None (and omitted from the JSON
    #: form) otherwise, so fault-free summaries stay byte-identical to
    #: pre-fault builds.
    faults: dict[str, Any] | None = None
    #: Per-workload metrics of a run driven by an explicit
    #: :mod:`repro.workloads` spec; None (and omitted from the JSON form)
    #: on default-schedule runs, so those summaries stay byte-identical to
    #: pre-workload builds.
    workload: dict[str, Any] | None = None
    #: Per-policy cache statistics (inserts / improvements / rejects /
    #: evictions / hit rate / expedited fraction / per-source occupancy)
    #: of a run with an explicit :mod:`repro.core.cachelab` policy; None
    #: (and omitted from the JSON form) on default-cache runs, so those
    #: summaries stay byte-identical to pre-cachelab builds.
    cache: dict[str, Any] | None = None
    #: Membership-churn counters (joins / leaves / skipped-floor events /
    #: final membership) of a run with a non-empty :mod:`repro.churn`
    #: spec; None (and omitted from the JSON form) on static-membership
    #: runs, so those summaries stay byte-identical to pre-churn builds.
    churn: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # RunResult <-> RunSummary
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: RunResult) -> "RunSummary":
        metrics = result.metrics
        return cls(
            protocol=result.protocol,
            trace_name=result.trace_name,
            config=config_to_dict(result.config),
            receivers=list(result.receivers),
            source=result.source,
            rtt_to_source=dict(result.rtt_to_source),
            sends=sorted(
                [host, kind.value, cast.value, count]
                for (host, kind, cast), count in metrics.sends.items()
            ),
            losses_detected=dict(metrics.losses_detected),
            recoveries={
                host: [
                    [r.seq, r.latency, r.expedited, r.requests_sent]
                    for r in records
                ]
                for host, records in metrics.recoveries.items()
            },
            duplicate_replies=dict(metrics.duplicate_replies),
            undetected_recoveries=dict(metrics.undetected_recoveries),
            late_arrivals=dict(metrics.late_arrivals),
            unrecovered_counts=dict(metrics.unrecovered),
            unrecovered_seqs={
                host: list(seqs) for host, seqs in result.unrecovered.items()
            },
            overhead={
                "retransmissions": result.overhead.retransmissions,
                "multicast_control": result.overhead.multicast_control,
                "unicast_control": result.overhead.unicast_control,
            },
            crossings=sorted(
                [kind, cast, count]
                for (kind, cast), count in result.crossings_snapshot.items()
            ),
            n_packets=result.n_packets,
            total_losses=result.total_losses,
            sim_time=result.sim_time,
            events_processed=result.events_processed,
            wall_time=result.wall_time,
            **{name: getattr(result, name) for name in _OPTIONAL_BLOCKS},
        )

    def to_result(self) -> RunResult:
        """Rehydrate a full ``RunResult`` (enum keys restored).  This is
        most of what a warm job costs, so the per-row work is a table
        lookup and a bare tuple build, not ``Enum.__call__`` or a
        class ``__init__``."""
        metrics = MetricsCollector()
        metrics.sends = Counter(
            {
                (host, _KINDS[kind], _CASTS[cast]): count
                for host, kind, cast, count in self.sends
            }
        )
        metrics.losses_detected = Counter(self.losses_detected)
        new = tuple.__new__
        recoveries: dict[str, list[RecoveryRecord]] = defaultdict(list)
        for host, rows in self.recoveries.items():
            recoveries[host] = [
                new(RecoveryRecord, (host, seq, latency, expedited, requests))
                for seq, latency, expedited, requests in rows
            ]
        metrics.recoveries = recoveries
        metrics.duplicate_replies = Counter(self.duplicate_replies)
        metrics.undetected_recoveries = Counter(self.undetected_recoveries)
        metrics.late_arrivals = Counter(self.late_arrivals)
        metrics.unrecovered = Counter(self.unrecovered_counts)
        return RunResult(
            protocol=self.protocol,
            trace_name=self.trace_name,
            config=config_from_dict(self.config),
            receivers=tuple(self.receivers),
            source=self.source,
            metrics=metrics,
            overhead=OverheadBreakdown(**self.overhead),
            crossings_snapshot={
                (kind, cast): count for kind, cast, count in self.crossings
            },
            rtt_to_source=dict(self.rtt_to_source),
            unrecovered={
                host: list(seqs) for host, seqs in self.unrecovered_seqs.items()
            },
            n_packets=self.n_packets,
            total_losses=self.total_losses,
            sim_time=self.sim_time,
            events_processed=self.events_processed,
            wall_time=self.wall_time,
            **{name: getattr(self, name) for name in _OPTIONAL_BLOCKS},
        )

    # ------------------------------------------------------------------
    # JSON
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The summary as JSON-plain data, in field order.  The top-level
        dict and the ``config`` dict are fresh (callers patch
        ``wall_time``); the statistics inside are the summary's own
        objects, not copies — every field is already lists and dicts of
        scalars, and a deep copy of a 16k-receiver summary is 48k nodes.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["config"] = dict(self.config)
        for name in _OPTIONAL_BLOCKS:
            # Omitted when None: summaries of runs without the feature
            # stay byte-identical to builds without it.
            if data[name] is None:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSummary":
        schema = data.get("schema", 0)
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunSummary schema {schema!r} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSummary fields {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSummary":
        return cls.from_dict(json.loads(text))


_FIELD_NAMES = tuple(f.name for f in fields(RunSummary))
#: The optional blocks: the fields declared with a ``None`` default,
#: present only on runs that used the feature.
_OPTIONAL_BLOCKS = tuple(
    f.name for f in fields(RunSummary) if f.default is None
)
