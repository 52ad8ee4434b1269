"""Drivers that regenerate every table and figure of the paper's §4.

Each ``figureN`` / ``table1`` function returns plain data (dataclasses of
lists/dicts) that :mod:`repro.harness.report` renders as ASCII and the
benchmarks print.  An :class:`ExperimentContext` memoizes synthesized
traces and simulation runs so that figures sharing runs (1–4 all use the
same six traces) never simulate twice; it executes runs through the
:mod:`repro.exec` engine, so batches fan out over a process pool
(``jobs > 1``) and completed runs persist in an on-disk content-addressed
cache (``cache``) across invocations.  Every driver declares its full run
set up front via :meth:`ExperimentContext.prefetch`, which is what lets
the engine parallelize.

Trace length: real replays are 17k–149k packets; by default experiments
replay the first ``DEFAULT_MAX_PACKETS`` packets (loss targets scale
proportionally) so the whole suite stays laptop-fast.  Set the environment
variable ``REPRO_FULL_TRACES=1`` — or pass ``max_packets=None`` — for
full-length replays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, run_job, split_axes, synthesize_job_trace
from repro.exec.pool import ExecutionEngine
from repro.exec.summary import RunSummary
from repro.faults import FaultPlan
from repro.harness.analysis import (
    EXPEDITED_GAP_BAND_RTT,
    SRM_FIRST_ROUND_BAND_RTT,
    LatencyModel,
)
from repro.harness.config import SimulationConfig
from repro.harness.runner import RunResult
from repro.metrics.stats import mean
from repro.traces.model import SyntheticTrace
from repro.traces.yajnik import FIGURE_TRACES, YAJNIK_TRACES

#: Default per-trace replay length for experiments (None = full trace).
DEFAULT_MAX_PACKETS: int | None = 3000


def default_max_packets() -> int | None:
    """The replay cap honouring ``REPRO_FULL_TRACES`` / ``REPRO_MAX_PACKETS``."""
    if os.environ.get("REPRO_FULL_TRACES", "") not in ("", "0"):
        return None
    override = os.environ.get("REPRO_MAX_PACKETS", "")
    if override:
        return int(override)
    return DEFAULT_MAX_PACKETS


#: A run request: ``(trace, protocol)`` with the context's config, or
#: ``(trace, protocol, config)`` with an explicit one.
RunSpec = tuple


class ExperimentContext:
    """Shared state for a batch of experiments: one config, one seed, and
    memoized traces and runs, executed through the :mod:`repro.exec`
    engine (process-pool fan-out + persistent run cache)."""

    def __init__(
        self,
        config: SimulationConfig | None = None,
        seed: int = 0,
        max_packets: int | None | str = "default",
        jobs: int = 1,
        cache: RunCache | None = None,
        progress=None,
        faults: FaultPlan | None = None,
        axes: Mapping[str, Any] | None = None,
    ) -> None:
        if max_packets == "default":
            max_packets = default_max_packets()
        self.max_packets = max_packets  # type: ignore[assignment]
        self.seed = seed
        self.faults = faults if faults is not None else FaultPlan()
        # ``axes`` maps declared run axes to this batch's values; each is
        # validated at its home, the job or the config it is folded into.
        self._job_axes, config_axes = split_axes(axes or {})
        self.config = (config or SimulationConfig()).with_(
            seed=seed, max_packets=self.max_packets, **config_axes
        )
        self.engine = ExecutionEngine(jobs=jobs, cache=cache, progress=progress)
        self._traces: dict[str, SyntheticTrace] = {}
        self._runs: dict[tuple[str, str, SimulationConfig], RunResult] = {}

    def trace(self, name: str) -> SyntheticTrace:
        cached = self._traces.get(name)
        if cached is None:
            cached = synthesize_job_trace(
                name, seed=self.seed, max_packets=self.max_packets
            )
            self._traces[name] = cached
        return cached

    def job(
        self, name: str, protocol: str, config: SimulationConfig | None = None
    ) -> RunJob:
        """The declarative spec for one of this context's runs."""
        return RunJob(
            trace=name,
            protocol=protocol,
            config=config or self.config,
            trace_seed=self.seed,
            trace_max_packets=self.max_packets,
            faults=self.faults,
            **self._job_axes,
        )

    def _execute_local(self, job: RunJob) -> RunSummary:
        """Serial in-process executor reusing the memoized trace (jobs
        are always built by :meth:`job`, so the trace is this context's)."""
        return RunSummary.from_result(
            run_job(job, synthetic=self.trace(job.trace))
        )

    def prefetch(self, specs: Iterable[RunSpec]) -> None:
        """Execute (and memoize) a batch of runs in one engine pass, so
        cache misses fan out over the process pool together."""
        keys: list[tuple[str, str, SimulationConfig]] = []
        jobs: list[RunJob] = []
        for spec in specs:
            name, protocol, config = spec if len(spec) == 3 else (*spec, None)
            config = config or self.config
            key = (name, protocol, config)
            if key in self._runs or key in keys:
                continue
            keys.append(key)
            jobs.append(self.job(name, protocol, config))
        if not jobs:
            return
        results = self.engine.execute(jobs, local_executor=self._execute_local)
        for key, result in zip(keys, results):
            self._runs[key] = result

    def run(
        self, name: str, protocol: str, config: SimulationConfig | None = None
    ) -> RunResult:
        config = config or self.config
        key = (name, protocol, config)
        cached = self._runs.get(key)
        if cached is None:
            self.prefetch([(name, protocol, config)])
            cached = self._runs[key]
        return cached


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    index: int
    name: str
    n_receivers: int
    tree_depth: int
    period_ms: int
    target_packets: int
    target_losses: int
    synthesized_packets: int
    synthesized_losses: int

    @property
    def loss_error(self) -> float:
        """Relative deviation of synthesized losses from the (scaled)
        target."""
        if self.target_losses == 0:
            return 0.0
        return abs(self.synthesized_losses - self.target_losses) / self.target_losses


def table1(ctx: ExperimentContext) -> list[Table1Row]:
    """Reproduce Table 1: synthesize each trace and report target vs
    realized loss volumes (targets scale with any replay truncation)."""
    rows = []
    for meta in YAJNIK_TRACES:
        synthetic = ctx.trace(meta.name)
        trace = synthetic.trace
        scale = trace.n_packets / meta.n_packets
        rows.append(
            Table1Row(
                index=meta.index,
                name=meta.name,
                n_receivers=meta.n_receivers,
                tree_depth=meta.tree_depth,
                period_ms=meta.period_ms,
                target_packets=trace.n_packets,
                target_losses=max(1, round(meta.n_losses * scale)),
                synthesized_packets=trace.n_packets,
                synthesized_losses=trace.total_losses,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 1 — per-receiver average normalized recovery times
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure1Trace:
    trace: str
    receivers: tuple[str, ...]
    srm: list[float]
    cesrm: list[float]

    @property
    def reduction(self) -> float:
        """CESRM's mean relative latency reduction across receivers."""
        pairs = [
            (s, c) for s, c in zip(self.srm, self.cesrm) if s > 0
        ]
        if not pairs:
            return 0.0
        return mean([1.0 - c / s for s, c in pairs])


def figure1(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[Figure1Trace]:
    """Figure 1: per-receiver average normalized recovery time (RTT units),
    SRM vs CESRM, for the six typical traces."""
    ctx.prefetch((n, p) for n in traces for p in ("srm", "cesrm"))
    out = []
    for name in traces:
        srm = ctx.run(name, "srm")
        cesrm = ctx.run(name, "cesrm")
        receivers = srm.receivers
        out.append(
            Figure1Trace(
                trace=name,
                receivers=receivers,
                srm=[srm.avg_normalized_recovery_time(r) for r in receivers],
                cesrm=[cesrm.avg_normalized_recovery_time(r) for r in receivers],
            )
        )
    return out


# ----------------------------------------------------------------------
# Figure 2 — expedited vs non-expedited latency gap
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure2Trace:
    trace: str
    receivers: tuple[str, ...]
    #: Per-receiver (non-expedited − expedited) average normalized recovery
    #: time; None where a receiver lacks one of the two kinds.
    gaps: list[float | None]

    @property
    def mean_gap(self) -> float:
        values = [g for g in self.gaps if g is not None]
        return mean(values)


def figure2(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[Figure2Trace]:
    """Figure 2: per-receiver difference between non-expedited and
    expedited average normalized recovery times under CESRM."""
    ctx.prefetch((n, "cesrm") for n in traces)
    out = []
    for name in traces:
        cesrm = ctx.run(name, "cesrm")
        out.append(
            Figure2Trace(
                trace=name,
                receivers=cesrm.receivers,
                gaps=[cesrm.expedited_gap(r) for r in cesrm.receivers],
            )
        )
    return out


# ----------------------------------------------------------------------
# Figures 3 & 4 — per-receiver request / reply packet counts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PacketCountTrace:
    trace: str
    hosts: tuple[str, ...]  # source ("receiver 0") first
    srm: list[int]
    cesrm_multicast: list[int]
    cesrm_expedited: list[int]

    @property
    def srm_total(self) -> int:
        return sum(self.srm)

    @property
    def cesrm_total(self) -> int:
        return sum(self.cesrm_multicast) + sum(self.cesrm_expedited)


def figure3(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[PacketCountTrace]:
    """Figure 3: request packets sent per host — SRM multicast requests vs
    CESRM's multicast (fall-back) + unicast (expedited) requests."""
    return _packet_counts(ctx, traces, which="requests")


def figure4(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[PacketCountTrace]:
    """Figure 4: reply packets sent per host — SRM replies vs CESRM's
    fall-back + expedited replies."""
    return _packet_counts(ctx, traces, which="replies")


def _packet_counts(
    ctx: ExperimentContext, traces: tuple[str, ...], which: str
) -> list[PacketCountTrace]:
    ctx.prefetch((n, p) for n in traces for p in ("srm", "cesrm"))
    out = []
    for name in traces:
        srm = ctx.run(name, "srm")
        cesrm = ctx.run(name, "cesrm")
        hosts = srm.hosts
        if which == "requests":
            srm_counts = [srm.request_counts(h)["multicast"] for h in hosts]
            ces_multi = [cesrm.request_counts(h)["multicast"] for h in hosts]
            ces_exp = [cesrm.request_counts(h)["unicast"] for h in hosts]
        else:
            srm_counts = [srm.reply_counts(h)["multicast"] for h in hosts]
            ces_multi = [cesrm.reply_counts(h)["multicast"] for h in hosts]
            ces_exp = [cesrm.reply_counts(h)["expedited"] for h in hosts]
        out.append(
            PacketCountTrace(
                trace=name,
                hosts=hosts,
                srm=srm_counts,
                cesrm_multicast=ces_multi,
                cesrm_expedited=ces_exp,
            )
        )
    return out


# ----------------------------------------------------------------------
# Figure 5 — expedited success and transmission overhead, all 14 traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure5Row:
    trace: str
    #: Fig. 5a: 100 · (#expedited replies / #expedited requests).
    expedited_success_pct: float
    #: Fig. 5b: CESRM overhead categories as % of SRM's total overhead.
    retransmissions_pct: float
    multicast_control_pct: float
    unicast_control_pct: float

    @property
    def total_pct(self) -> float:
        return (
            self.retransmissions_pct
            + self.multicast_control_pct
            + self.unicast_control_pct
        )


def figure5(
    ctx: ExperimentContext, traces: tuple[str, ...] | None = None
) -> list[Figure5Row]:
    """Figure 5: per-trace expedited success percentage and CESRM's
    transmission overhead relative to SRM's, for all 14 traces."""
    names = traces or tuple(meta.name for meta in YAJNIK_TRACES)
    ctx.prefetch((n, p) for n in names for p in ("srm", "cesrm"))
    rows = []
    for name in names:
        srm = ctx.run(name, "srm")
        cesrm = ctx.run(name, "cesrm")
        pct = cesrm.overhead.as_percent_of(srm.overhead)
        rows.append(
            Figure5Row(
                trace=name,
                expedited_success_pct=100.0 * cesrm.metrics.expedited_success_rate,
                retransmissions_pct=pct["retransmissions"],
                multicast_control_pct=pct["multicast_control"],
                unicast_control_pct=pct["unicast_control"],
            )
        )
    return rows


# ----------------------------------------------------------------------
# §3.4 — analytical model vs simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Section34Result:
    model_non_expedited_rtt: float
    model_expedited_rtt: float
    model_gap_rtt: float
    simulated_srm_avg_rtt: dict[str, float]
    simulated_gap_rtt: dict[str, float]
    srm_band: tuple[float, float] = SRM_FIRST_ROUND_BAND_RTT
    gap_band: tuple[float, float] = EXPEDITED_GAP_BAND_RTT


def section_3_4(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> Section34Result:
    """Cross-check Eq. (1)/(2) against the simulated averages (§3.4/§4.4)."""
    model = LatencyModel(
        params=ctx.config.params,
        reorder_delay_rtt=0.0,
    )
    ctx.prefetch((n, p) for n in traces for p in ("srm", "cesrm"))
    srm_avgs = {}
    gaps = {}
    for name in traces:
        srm = ctx.run(name, "srm")
        cesrm = ctx.run(name, "cesrm")
        srm_avgs[name] = mean(
            [srm.avg_normalized_recovery_time(r) for r in srm.receivers]
        )
        trace_gaps = [g for g in (cesrm.expedited_gap(r) for r in cesrm.receivers) if g is not None]
        gaps[name] = mean(trace_gaps)
    return Section34Result(
        model_non_expedited_rtt=model.non_expedited_rtt,
        model_expedited_rtt=model.expedited_rtt,
        model_gap_rtt=model.expected_gap_rtt,
        simulated_srm_avg_rtt=srm_avgs,
        simulated_gap_rtt=gaps,
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationRow:
    label: str
    trace: str
    avg_normalized_latency: float
    expedited_success_pct: float
    retransmission_units: int
    control_units: int
    unrecovered: int


def _ablation_row(label: str, result: RunResult) -> AblationRow:
    lat = mean([result.avg_normalized_recovery_time(r) for r in result.receivers])
    return AblationRow(
        label=label,
        trace=result.trace_name,
        avg_normalized_latency=lat,
        expedited_success_pct=100.0 * result.metrics.expedited_success_rate,
        retransmission_units=result.overhead.retransmissions,
        control_units=result.overhead.control,
        unrecovered=result.unrecovered_losses,
    )


def ablation_policy(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[AblationRow]:
    """Most-recent-loss vs most-frequent-loss selection (§3.2/§4.3)."""
    specs = [
        (name, "cesrm", ctx.config.with_(policy=policy))
        for name in traces
        for policy in ("most-recent", "most-frequent")
    ]
    ctx.prefetch(specs)
    return [
        _ablation_row(cfg.policy, ctx.run(name, protocol, cfg))
        for name, protocol, cfg in specs
    ]


def ablation_cache_capacity(
    ctx: ExperimentContext,
    capacities: tuple[int, ...] = (1, 2, 4, 16, 64),
    trace: str = "WRN951113",
) -> list[AblationRow]:
    """Cache size sweep: the most-recent policy needs only one entry."""
    specs = [
        (trace, "cesrm", ctx.config.with_(cache_capacity=capacity))
        for capacity in capacities
    ]
    ctx.prefetch(specs)
    return [
        _ablation_row(
            f"capacity={cfg.cache_capacity}", ctx.run(name, protocol, cfg)
        )
        for name, protocol, cfg in specs
    ]


def ablation_reorder_delay(
    ctx: ExperimentContext,
    delays: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.25),
    trace: str = "WRN951113",
) -> list[AblationRow]:
    """REORDER-DELAY sweep: expedited latency grows with the guard."""
    specs = [
        (trace, "cesrm", ctx.config.with_(reorder_delay=delay))
        for delay in delays
    ]
    ctx.prefetch(specs)
    return [
        _ablation_row(
            f"reorder={cfg.reorder_delay * 1000:.0f}ms",
            ctx.run(name, protocol, cfg),
        )
        for name, protocol, cfg in specs
    ]


def ablation_lossy_recovery(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES[:3]
) -> list[AblationRow]:
    """Recovery packets dropped at the per-link trace rates (§4.3's
    variation, reported in [10]): latencies grow slightly, CESRM's
    advantage persists."""
    specs = [
        (name, protocol, ctx.config.with_(lossy_recovery=lossy))
        for name in traces
        for lossy in (False, True)
        for protocol in ("srm", "cesrm")
    ]
    ctx.prefetch(specs)
    return [
        _ablation_row(
            f"{protocol}/{'lossy' if cfg.lossy_recovery else 'lossless'}",
            ctx.run(name, protocol, cfg),
        )
        for name, protocol, cfg in specs
    ]


def ablation_link_delay(
    ctx: ExperimentContext,
    delays: tuple[float, ...] = (0.010, 0.020, 0.030),
    trace: str = "WRN951113",
) -> list[AblationRow]:
    """§4.3 ran 10/20/30 ms links and saw very similar (normalized)
    results; this sweep reproduces that insensitivity."""
    specs = [
        (trace, protocol, ctx.config.with_(propagation_delay=delay))
        for delay in delays
        for protocol in ("srm", "cesrm")
    ]
    ctx.prefetch(specs)
    return [
        _ablation_row(
            f"{protocol}/{cfg.propagation_delay * 1000:.0f}ms",
            ctx.run(name, protocol, cfg),
        )
        for name, protocol, cfg in specs
    ]


@dataclass(frozen=True)
class RouterAssistRow:
    trace: str
    protocol: str
    retransmission_units: int
    expedited_reply_crossings: int
    avg_normalized_latency: float


def router_assist_comparison(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[RouterAssistRow]:
    """§3.3: router-assisted CESRM localizes expedited replies (subcast),
    cutting retransmission exposure versus plain CESRM at equal latency."""
    ctx.prefetch(
        (n, p) for n in traces for p in ("cesrm", "cesrm-router")
    )
    rows = []
    for name in traces:
        for protocol in ("cesrm", "cesrm-router"):
            result = ctx.run(name, protocol)
            erepl = sum(
                n
                for (kind, _), n in result.crossings_snapshot.items()
                if kind == "erepl"
            )
            rows.append(
                RouterAssistRow(
                    trace=name,
                    protocol=protocol,
                    retransmission_units=result.overhead.retransmissions,
                    expedited_reply_crossings=erepl,
                    avg_normalized_latency=mean(
                        [
                            result.avg_normalized_recovery_time(r)
                            for r in result.receivers
                        ]
                    ),
                )
            )
    return rows
