"""Drivers that regenerate every table and figure of the paper's §4.

Each ``figureN`` / ``table1`` function returns plain data (dataclasses of
lists/dicts) that :mod:`repro.harness.report` renders as ASCII and the
claim table (:mod:`repro.harness.claims`) judges.  An
:class:`ExperimentContext` memoizes synthesized traces and simulation
runs so that figures sharing runs (1–4 all use the same six traces)
never simulate twice; it executes runs through the
:mod:`repro.exec` engine, so batches fan out over a process pool
(``jobs > 1``) and completed runs persist in an on-disk content-addressed
cache (``cache``) across invocations.  Every driver declares its full run
set up front via :meth:`ExperimentContext.prefetch`, which is what lets
the engine parallelize.

Trace length: real replays are 17k–149k packets; by default experiments
replay the first ``DEFAULT_MAX_PACKETS`` packets (loss targets scale
proportionally) so the whole suite stays laptop-fast.  Pass
``max_packets=None`` (the CLI's ``--full``) for full-length replays.

The drivers below the paper's figures run fixed-size worlds of their own
(group-size and bandwidth sweeps, crash and churn scenarios, workload and
cache-policy grids over small synthetic trees).  Those worlds are not
Table 1 rows, so they run in-process through ``run_trace`` at their own
sizes and seeds: the context's replay cap, seed and run cache do not
apply to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple

from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, run_job, split_axes, synthesize_job_trace
from repro.exec.pool import ExecutionEngine
from repro.exec.summary import RunSummary
from repro.faults import FaultPlan, LinkFlap, NodeCrash
from repro.harness.analysis import (
    EXPEDITED_GAP_BAND_RTT,
    SRM_FIRST_ROUND_BAND_RTT,
    LatencyModel,
)
from repro.harness.config import SimulationConfig
from repro.harness.runner import RunResult, build_simulation, run_trace
from repro.metrics.stats import mean
from repro.net.packet import PacketKind
from repro.traces.model import SyntheticTrace
from repro.traces.yajnik import FIGURE_TRACES, YAJNIK_TRACES

#: Default per-trace replay length for experiments (None = full trace).
DEFAULT_MAX_PACKETS: int | None = 3000


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
            max_packets = DEFAULT_MAX_PACKETS
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


def _ablate(ctx: ExperimentContext, specs: list, label) -> list[AblationRow]:
    """Run ``(trace, protocol, config)`` specs as one batch; ``label``
    names each row from its protocol and config."""
    ctx.prefetch(specs)
    return [_ablation_row(label(p, cfg), ctx.run(name, p, cfg)) for name, p, cfg in specs]


def ablation_policy(
    ctx: ExperimentContext, traces: tuple[str, ...] = FIGURE_TRACES
) -> list[AblationRow]:
    """Most-recent-loss vs most-frequent-loss selection (§3.2/§4.3)."""
    specs = [
        (name, "cesrm", ctx.config.with_(policy=policy))
        for name in traces
        for policy in ("most-recent", "most-frequent")
    ]
    return _ablate(ctx, specs, lambda _, cfg: cfg.policy)


def ablation_cache_capacity(
    ctx: ExperimentContext,
    capacities: tuple[int, ...] = (1, 2, 4, 16, 64),
    trace: str = "WRN951113",
) -> list[AblationRow]:
    """Cache size sweep: the most-recent policy needs only one entry."""
    specs = [(trace, "cesrm", ctx.config.with_(cache_capacity=c)) for c in capacities]
    return _ablate(ctx, specs, lambda _, cfg: f"capacity={cfg.cache_capacity}")


def ablation_reorder_delay(
    ctx: ExperimentContext,
    delays: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.25),
    trace: str = "WRN951113",
) -> list[AblationRow]:
    """REORDER-DELAY sweep: expedited latency grows with the guard."""
    specs = [(trace, "cesrm", ctx.config.with_(reorder_delay=d)) for d in delays]
    return _ablate(ctx, specs, lambda _, cfg: f"reorder={cfg.reorder_delay * 1000:.0f}ms")


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
    return _ablate(
        ctx, specs, lambda p, cfg: f"{p}/{'lossy' if cfg.lossy_recovery else 'lossless'}"
    )


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
    return _ablate(ctx, specs, lambda p, cfg: f"{p}/{cfg.propagation_delay * 1000:.0f}ms")


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


# ----------------------------------------------------------------------
# §4.2 — loss-location accuracy; the [10] loss-locality analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttributionRow:
    trace: str
    #: Share of selected link combinations with posterior above 95 %.
    above_95: float
    #: Largest per-link gap between the subtree and MLE rate estimators.
    estimator_gap: float


def attribution(ctx: ExperimentContext) -> list[AttributionRow]:
    """§4.2: attribute every trace's losses to link combinations."""
    from repro.traces.attribution import Attributor
    from repro.traces.inference import estimate_link_rates_mle, estimate_link_rates_subtree

    rows = []
    for meta in YAJNIK_TRACES:
        trace = ctx.trace(meta.name).trace
        rates = estimate_link_rates_subtree(trace)
        mle = estimate_link_rates_mle(trace)
        result = Attributor(trace.tree, rates).attribute_trace(trace)
        rows.append(
            AttributionRow(
                meta.name,
                result.posterior_fraction_above(0.95),
                max(abs(rates[link] - mle[link]) for link in rates),
            )
        )
    return rows


@dataclass(frozen=True)
class LocalityRow:
    trace: str
    mean_burst: float
    #: Conditional over marginal loss probability (temporal locality).
    locality_gain: float
    #: Share of loss events on the three lossiest links (spatial locality).
    top3_links: float
    #: How often each selection policy names the responsible link.
    most_recent_accuracy: float
    most_frequent_accuracy: float


def trace_locality(ctx: ExperimentContext) -> list[LocalityRow]:
    """The [10]-style loss-locality analysis of every trace."""
    from repro.traces.analysis import analyze_trace

    rows = []
    for meta in YAJNIK_TRACES:
        found = analyze_trace(ctx.trace(meta.name))
        rows.append(
            LocalityRow(
                meta.name,
                found.mean_burst_length,
                found.mean_locality_gain,
                found.concentration.top_fraction(3),
                found.policies.most_recent_accuracy,
                found.policies.most_frequent_accuracy,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Protocols head to head: the design space, adaptive timers, group size,
# bandwidth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolRow:
    #: The trace, or the sweep point (group size, bandwidth) it ran at.
    label: str
    protocol: str
    avg_normalized_latency: float
    retransmission_units: int
    multicast_control_units: int
    requests: int
    unrecovered: int


def _protocol_row(label: str, result: RunResult) -> ProtocolRow:

    return ProtocolRow(
        label,
        result.protocol,
        mean([result.avg_normalized_recovery_time(r) for r in result.receivers]),
        result.overhead.retransmissions,
        result.overhead.multicast_control,
        result.metrics.total_sends(PacketKind.RQST),
        result.unrecovered_losses,
    )


def protocol_family(
    ctx: ExperimentContext,
    traces: tuple[str, ...] = FIGURE_TRACES[:3],
    protocols: tuple[str, ...] = ("srm", "srm-adaptive", "cesrm", "cesrm-router", "lms", "rmtp"),
) -> list[ProtocolRow]:
    """§1's recovery architectures on identical traces."""
    ctx.prefetch((n, p) for n in traces for p in protocols)
    return [_protocol_row(n, ctx.run(n, p)) for n in traces for p in protocols]


def ablation_adaptive_timers(ctx: ExperimentContext) -> list[ProtocolRow]:
    """Fixed vs adaptive SRM request timers (ToN '97 §V)."""
    return protocol_family(ctx, FIGURE_TRACES[:4], ("srm", "srm-adaptive"))


def _world(name, n_receivers, depth, period, n_packets, losses, seed) -> SyntheticTrace:
    """A synthetic trace over a random tree of the given shape."""
    from repro.traces.synthesize import SynthesisParams, synthesize_trace

    params = SynthesisParams(name, n_receivers, depth, period, n_packets, losses)
    return synthesize_trace(params, seed=seed)


def scalability(ctx: ExperimentContext) -> list[ProtocolRow]:
    """Group size 8 → 40 receivers at a constant per-receiver loss rate
    (1 200 packets per size, synthesis seed 2)."""
    rows = []
    for size in (8, 16, 24, 40):
        world = _world(f"scale-{size}", size, 5, 0.08, 1200, round(0.05 * size * 1200), 2)
        rows += [_protocol_row(str(size), run_trace(world, p)) for p in ("srm", "cesrm")]
    return rows


def congestion(ctx: ExperimentContext) -> list[ProtocolRow]:
    """Repair-storm congestion: shrink the link bandwidth under a fixed
    16-receiver, 900-packet workload (synthesis seed 4)."""
    world = _world("congestion", 16, 5, 0.08, 900, 900, 4)
    return [
        _protocol_row(
            f"{bandwidth / 1e6:.2f} Mbps",
            run_trace(world, p, SimulationConfig(bandwidth_bps=bandwidth, drain_time=60.0)),
        )
        for bandwidth in (4e6, 1.5e6, 0.75e6)
        for p in ("srm", "cesrm")
    ]


# ----------------------------------------------------------------------
# Membership churn: cached and designated repliers crash (§3.3/§5)
# ----------------------------------------------------------------------
def _link_drop_world(name, tree_seed, n_receivers, depth, n_packets, period, dropped):
    """A random tree whose deepest interior link (two or more receivers
    on each side) drops exactly the packets ``dropped(seq)`` names.
    Returns ``(world, link)``."""
    from repro.net.topology import build_random_tree
    from repro.sim.rng import RngRegistry
    from repro.traces.model import LossTrace

    tree = build_random_tree(n_receivers, depth, RngRegistry(tree_seed).stream("topology"))
    interior = [
        (u, v) for u, v in tree.links
        if 2 <= len(tree.subtree_receivers(v)) <= len(tree.receivers) - 2
    ]
    link = max(interior, key=lambda link: tree.node_depth(link[1]))
    behind = tree.subtree_receivers(link[1])
    lost = bytes(1 if dropped(seq) else 0 for seq in range(n_packets))
    seqs = {r: lost if r in behind else bytes(n_packets) for r in tree.receivers}
    rates = dict.fromkeys(tree.links, 0.0)
    rates[link] = sum(lost) / n_packets
    combos = {seq: frozenset({link}) for seq in range(n_packets) if lost[seq]}
    return SyntheticTrace(LossTrace(name, tree, period, seqs), rates, combos), link


class SurvivorStats(NamedTuple):
    """Recovery outcome at the receivers a run left alive."""

    avg_normalized_latency: float
    recoveries: int
    expedited_fraction: float
    unrecovered: int


def _survivor_stats(result: RunResult, dead=()) -> SurvivorStats:
    live = [r for r in result.receivers if r not in dead]
    expedited = sum(result.metrics.recovery_count(r, expedited=True) for r in live)
    total = sum(result.metrics.recovery_count(r) for r in live)
    return SurvivorStats(
        mean([x for r in live for x in result.normalized_latencies(r)]),
        total,
        expedited / total if total else 0.0,
        sum(len(result.unrecovered.get(r, ())) for r in live),
    )


class ChurnOutcome(NamedTuple):
    crashes: int
    stats: SurvivorStats
    last_expedited_seq: int


def churn(ctx: ExperimentContext) -> ChurnOutcome:
    """Crash whichever replier a receiver behind the lossy link has
    cached, at one and two thirds of the run (10 receivers, every odd
    packet of 120 dropped on one interior link, tree seed 5).

    Each crash is a :class:`~repro.faults.NodeCrash` of the run's fault
    plan.  Its victim is read from the observer's cache in a probe that
    replays the same deterministic run up to the crash instant."""
    world, link = _link_drop_world("churn", 5, 10, 4, 120, 0.25, lambda seq: seq % 2)
    tree = world.trace.tree
    observer = next(r for r in tree.receivers if r in tree.subtree_receivers(link[1]))
    config = SimulationConfig()
    span = world.trace.n_packets * world.trace.period
    crashes: tuple[NodeCrash, ...] = ()
    for at in (config.transmission_start + span / 3, config.transmission_start + 2 * span / 3):
        # The probe crashes the observer at ``at``, which leaves its cache
        # as it was; everything before ``at`` is the real run's prefix.
        probe = build_simulation(
            world, "cesrm", config,
            faults=FaultPlan(events=(*crashes, NodeCrash(host=observer, at=at))),
        )
        probe.sim.run(until=at)
        cached = probe.agents[observer].cache.most_recent()
        if cached is not None and cached.replier != tree.source and all(
            c.host != cached.replier for c in crashes
        ):
            crashes += (NodeCrash(host=cached.replier, at=at),)
    result = run_trace(world, "cesrm", config, faults=FaultPlan(events=crashes))
    dead = {c.host for c in crashes}
    expedited = [
        record.seq
        for host in result.receivers if host not in dead
        for record in result.metrics.recoveries.get(host, []) if record.expedited
    ]
    return ChurnOutcome(len(crashes), _survivor_stats(result, dead), max(expedited, default=-1))


class LmsOutcome(NamedTuple):
    protocol: str
    churn: bool
    crashes: int
    unrecovered: int
    #: Multicast requests plus multicast replies sent.
    multicast_recovery: int


def lms_comparison(ctx: ExperimentContext) -> list[LmsOutcome]:
    """CESRM vs LMS with static membership and with the subtree's
    designated LMS replier crashed a third of the way in (12 receivers,
    every fourth of 400 packets dropped on one interior link, tree
    seed 3).  LMS's crash hook marks the host failed in its fabric and
    leaves the routers' designation stale."""
    from repro.lms.fabric import LmsFabric

    world, link = _link_drop_world("lms", 3, 12, 5, 400, 0.15, lambda seq: seq % 4 == 1)
    config = SimulationConfig(drain_time=40.0)
    victim = LmsFabric(world.trace.tree).replier_of(link[1])
    at = config.transmission_start + world.trace.n_packets * world.trace.period / 3
    out = []
    for protocol in ("cesrm", "lms"):
        for churned in (False, True):
            dead = (victim,) if churned and victim != world.trace.tree.source else ()
            plan = FaultPlan(events=tuple(NodeCrash(host=h, at=at) for h in dead))
            result = run_trace(world, protocol, config, faults=plan)
            sends = result.metrics.total_sends
            out.append(
                LmsOutcome(
                    protocol,
                    churned,
                    len(dead),
                    _survivor_stats(result, dead).unrecovered,
                    sends(PacketKind.RQST) + sends(PacketKind.REPL),
                )
            )
    return out


# ----------------------------------------------------------------------
# Off the paper's axes: replier crashes, workload families, cache policies
# ----------------------------------------------------------------------
class CrashRow(NamedTuple):
    crashed: int
    srm: SurvivorStats
    cesrm: SurvivorStats
    #: Crashes injected into the (SRM, CESRM) runs.
    injected: tuple[int, int]
    #: Stale cached pairs CESRM's failed expedited attempts evicted.
    cache_evictions: int

    @property
    def cesrm_advantage(self) -> float:
        """SRM minus CESRM survivor latency, in RTT."""
        return self.srm.avg_normalized_latency - self.cesrm.avg_normalized_latency


def replier_crashes(ctx: ExperimentContext) -> list[CrashRow]:
    """Crash the ``k`` = 0…3 most active expedited repliers of a clean
    CESRM run, 4 s apart from t = 10 s (8 receivers, 800 packets,
    synthesis seed 2, run seed 1)."""
    world = _world("bench-faults", 8, 3, 0.04, 800, 320, 2)
    config = SimulationConfig(seed=1)
    clean = run_trace(world, "cesrm", config)
    ranked = sorted(
        clean.receivers,
        key=lambda h: clean.metrics.sends_by_host_kind(h, PacketKind.EREPL),
        reverse=True,
    )
    rows = []
    for k in range(4):
        plan = FaultPlan(
            events=tuple(NodeCrash(host=h, at=10.0 + 4.0 * i) for i, h in enumerate(ranked[:k]))
        )
        srm, cesrm = (run_trace(world, p, config, faults=plan) for p in ("srm", "cesrm"))
        rows.append(
            CrashRow(
                k,
                _survivor_stats(srm, ranked[:k]),
                _survivor_stats(cesrm, ranked[:k]),
                tuple((run.faults or {}).get("crashes", 0) for run in (srm, cesrm)),
                (cesrm.faults or {}).get("cache_evictions", 0),
            )
        )
    return rows


class WorkloadRow(NamedTuple):
    workload: str
    protocol: str
    #: Packets the workload offered, of the trace's ``n_packets``.
    events: int
    n_packets: int
    senders: int
    stats: SurvivorStats


def workload_families(ctx: ExperimentContext) -> list[WorkloadRow]:
    """Every workload family × {SRM, CESRM} over one 8-receiver,
    600-packet synthetic tree (seed 7)."""
    world = _world("bench-workloads", 8, 3, 0.05, 600, 200, 7)
    rows = []
    for spec in ("cbr", "poisson", "zipf:alpha=1.2,objects=64,train=8",
                 "flash_crowd:peak=8,ramp=2", "diurnal:period=10s,min=0.3",
                 "multi_source:senders=4"):
        for protocol in ("srm", "cesrm"):
            result = run_trace(world, protocol, SimulationConfig(seed=7), workload=spec)
            rows.append(
                WorkloadRow(
                    spec,
                    protocol,
                    result.workload["events"],
                    world.trace.n_packets,
                    len(result.workload["senders"]),
                    _survivor_stats(result),
                )
            )
    return rows


class CachePolicyRow(NamedTuple):
    scenario: str
    policy: str
    #: The run's cache stats block (``RunResult.cache``).
    block: dict


def cache_policies(ctx: ExperimentContext) -> list[CachePolicyRow]:
    """Every cache policy under three cache-hostile scenarios on one
    10-receiver, 500-packet synthetic tree (seed 13): two receiver links
    flapping, two receivers crashing and restarting, and a flash crowd."""
    world = _world("bench-cachelab", 10, 4, 0.05, 500, 170, 13)
    tree = world.trace.tree
    receivers = tree.receivers
    flaps = tuple(
        LinkFlap(u=tree.parent(r), v=r, mean_up=1.5, mean_down=0.6, start=2.0)
        for r in (receivers[1], receivers[-2])
    )
    crashes = tuple(
        NodeCrash(host=r, at=4.0 + 3.0 * i, restart_after=2.5)
        for i, r in enumerate((receivers[0], receivers[len(receivers) // 2]))
    )
    scenarios = (
        ("churn", FaultPlan(events=flaps), None),
        ("replier_crash", FaultPlan(events=crashes), None),
        ("flash_crowd", None, "flash_crowd:peak=8,ramp=2"),
    )
    return [
        CachePolicyRow(
            name,
            policy,
            run_trace(
                world, "cesrm", SimulationConfig(seed=13, cache=policy),
                faults=faults, workload=workload,
            ).cache,
        )
        for name, faults, workload in scenarios
        for policy in ("paper:capacity=16", "lru:capacity=8", "lfu:capacity=8",
                       "ttl:capacity=16,ttl=2s", "prob:capacity=16,p=0.5", "unbounded")
    ]
