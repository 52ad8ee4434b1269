"""Build and run one trace-driven simulation (§4.3).

``run_trace`` reenacts a (synthetic) IP multicast transmission: the source
multicasts packet ``i`` at ``t0 + i·period``; the network drops packet
``i`` on exactly the links of the trace's link representation, reproducing
the measured per-receiver loss pattern; agents at the source and receivers
run whichever protocol the :mod:`repro.harness.registry` names; recovery
traffic is lossless by default (optionally Bernoulli-dropped at the
per-link rates for the lossy ablation).  Session exchange is lossless and
starts before the data so distances converge first.

Both kinds of loss injection — the trace replay and the lossy-recovery
ablation — are hop rules of a single :class:`~repro.faults.FaultInjector`,
the same primitive that executes declarative :class:`~repro.faults.FaultPlan`
schedules (link outages, crashes, duplication...) passed via ``faults=``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any

from repro.faults import FaultInjector, FaultPlan, recovery_loss_rule, trace_drop_rule
from repro.harness.config import SimulationConfig
from repro.harness.registry import PROTOCOLS
from repro.metrics.collector import MetricsCollector
from repro.metrics.overhead import OverheadBreakdown, overhead_breakdown
from repro.metrics.stats import mean
from repro.net.network import Network
from repro.net.packet import PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.spec.monitor import InvariantMonitor
from repro.srm.agent import SrmAgent
from repro.traces.model import SyntheticTrace


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    protocol: str
    trace_name: str
    config: SimulationConfig
    receivers: tuple[str, ...]
    source: str
    metrics: MetricsCollector
    overhead: OverheadBreakdown
    crossings_snapshot: dict[tuple[str, str], int]
    rtt_to_source: dict[str, float]
    unrecovered: dict[str, list[int]] = field(default_factory=dict)
    n_packets: int = 0
    total_losses: int = 0
    sim_time: float = 0.0
    events_processed: int = 0
    wall_time: float = 0.0
    #: Observability summary (tracer counters / profiler hot-spots) when the
    #: run was traced or profiled; None on an untraced run.
    obs: dict | None = None
    #: Fault-injection counters when the run carried a non-empty
    #: :class:`~repro.faults.FaultPlan`; None on a fault-free run (keeping
    #: fault-free summaries byte-identical to builds without fault support).
    faults: dict | None = None
    #: Per-workload metrics (offered load, expedited fraction, recovery
    #: latency percentiles) when the run was driven by an explicit
    #: :mod:`repro.workloads` spec; None on a default-schedule run (keeping
    #: those summaries byte-identical to builds without workload support).
    workload: dict | None = None
    #: Per-policy recovery-cache statistics when the run used an explicit
    #: :mod:`repro.core.cachelab` spec (``config.cache``); None on
    #: default-cache runs (keeping those summaries byte-identical to
    #: builds without cachelab support).
    cache: dict | None = None
    #: Membership-churn counters (joins/leaves/final membership) when the
    #: run carried a non-empty :mod:`repro.churn` spec; None on a
    #: static-membership run (keeping those summaries byte-identical to
    #: builds without churn support).
    churn: dict | None = None

    # ------------------------------------------------------------------
    # Figure-level derived quantities
    # ------------------------------------------------------------------
    def normalized_latencies(
        self, receiver: str, expedited: bool | None = None
    ) -> list[float]:
        """Recovery latencies of ``receiver`` in units of its RTT estimate
        to the source (the Figure 1/2 normalization)."""
        rtt = self.rtt_to_source[receiver]
        if rtt <= 0:
            return []
        return [
            latency / rtt
            for latency in self.metrics.recovery_latencies(receiver, expedited)
        ]

    def avg_normalized_recovery_time(
        self, receiver: str, expedited: bool | None = None
    ) -> float:
        """Per-receiver average normalized recovery time (Figure 1)."""
        return mean(self.normalized_latencies(receiver, expedited))

    def expedited_gap(self, receiver: str) -> float | None:
        """Figure 2: non-expedited minus expedited average normalized
        recovery time at ``receiver`` (None when either side is empty)."""
        expedited = self.normalized_latencies(receiver, expedited=True)
        fallback = self.normalized_latencies(receiver, expedited=False)
        if not expedited or not fallback:
            return None
        return mean(fallback) - mean(expedited)

    def request_counts(self, host: str) -> dict[str, int]:
        """Figure 3 bars: multicast vs expedited-unicast requests sent."""
        return {
            "multicast": self.metrics.sends_by_host_kind(host, PacketKind.RQST),
            "unicast": self.metrics.sends_by_host_kind(host, PacketKind.ERQST),
        }

    def reply_counts(self, host: str) -> dict[str, int]:
        """Figure 4 bars: fall-back vs expedited replies sent."""
        return {
            "multicast": self.metrics.sends_by_host_kind(host, PacketKind.REPL),
            "expedited": self.metrics.sends_by_host_kind(host, PacketKind.EREPL),
        }

    @property
    def hosts(self) -> tuple[str, ...]:
        """Source first (the paper's "receiver 0"), then the receivers."""
        return (self.source, *self.receivers)

    @property
    def recovered_losses(self) -> int:
        return sum(len(r) for r in self.metrics.recoveries.values())

    @property
    def unrecovered_losses(self) -> int:
        return sum(len(v) for v in self.unrecovered.values())


@dataclass
class Simulation:
    """A fully wired simulation, ready to run (exposed for tests)."""

    sim: Simulator
    network: Network
    agents: dict[str, SrmAgent]
    source_agent: SrmAgent
    trace: SyntheticTrace
    config: SimulationConfig
    metrics: MetricsCollector
    end_time: float
    fabric: Any | None = None
    monitor: InvariantMonitor | None = None
    faults: FaultInjector | None = None
    workload: Any | None = None
    churn: Any | None = None
    send_events: tuple = ()


def build_simulation(
    synthetic: SyntheticTrace,
    protocol: str,
    config: SimulationConfig,
    tracer=None,
    profiler=None,
    faults: FaultPlan | None = None,
    workload=None,
    churn: str = "",
) -> Simulation:
    """Wire up engine, network, loss injection, and agents for one run.

    ``protocol`` is resolved through the :mod:`repro.harness.registry`;
    anything registered there runs without touching this function.

    ``tracer`` / ``profiler`` are optional :mod:`repro.obs` hooks; they are
    deliberately not part of :class:`SimulationConfig` so that enabling them
    cannot perturb the run's configuration digest (and hence the run cache).
    ``faults`` is an optional :class:`~repro.faults.FaultPlan`; it *is* part
    of a run's identity and folds into :class:`~repro.exec.jobs.RunJob`
    digests instead (an empty/None plan leaves the run byte-identical to a
    plan-less build).
    ``workload`` is an optional :mod:`repro.workloads` spec string or
    compiled :class:`~repro.workloads.Workload`; like ``faults`` it is part
    of the run's identity, and ``None`` (or the empty spec) takes the
    original hard-coded source-paced schedule, byte for byte.
    ``churn`` is an optional :mod:`repro.churn` spec string (or compiled
    :class:`~repro.churn.ChurnPlan`); a non-empty spec installs a seeded
    join/leave process over the run, and the empty spec leaves the run
    byte-identical to a build without churn support.
    """
    spec = PROTOCOLS.get(protocol)
    plan = faults if faults is not None else FaultPlan()
    churn_plan = None
    if churn:
        from repro.churn import compile_churn

        churn_plan = compile_churn(churn) if isinstance(churn, str) else churn
        if churn_plan.empty:
            churn_plan = None
    if config.max_packets is not None:
        synthetic = synthetic.truncated(config.max_packets)
    trace = synthetic.trace
    tree = trace.tree
    if churn_plan is not None:
        # Churn patches the topology in place, and synthesized traces
        # (with their trees) are shared across runs — patch a private
        # clone so the trace stays pristine for the next run.
        tree = tree.clone()

    sim = Simulator()
    sim.tracer = tracer
    sim.profiler = profiler
    registry = RngRegistry(config.seed).fork(f"run:{protocol}:{trace.name}")
    metrics = MetricsCollector()
    network = Network(
        sim,
        tree,
        propagation_delay=config.propagation_delay,
        bandwidth_bps=config.bandwidth_bps,
        kernel=config.kernel,
    )
    # Loss injection (§4.3): the trace replay and the lossy-recovery
    # ablation are hop rules of the same injector that executes the plan.
    injector = FaultInjector(plan, sim, network, registry)
    injector.add_hop_rule(trace_drop_rule(synthetic.link_combos))
    if config.lossy_recovery:
        injector.add_hop_rule(
            recovery_loss_rule(synthetic.link_rates, registry.stream("recovery-loss"))
        )
    network.faults = injector

    fabric = spec.build_fabric(tree)

    # Everything but the host's name is per run, not per host: resolved
    # once here, shared by every agent.
    agent_cls = spec.agent_cls
    shared_kwargs: dict = dict(
        sim=sim,
        network=network,
        source=tree.source,
        params=config.params,
        metrics=metrics,
        session_period=config.session_period,
        detect_on_request=config.detect_on_request,
        **spec.extra_agent_kwargs(config),
    )
    if fabric is not None:
        shared_kwargs.update(fabric=fabric)
    stream = registry.stream

    def agent_stream(host: str):
        return stream(f"agent:{host}")

    # Every agent draws jitter from its own named stream, so membership
    # changes never perturb another host's randomness.  Streams are
    # hash-derived from (seed, name), so an agent asks this one shared
    # factory for its own on the first draw — most hosts never draw.
    shared_kwargs.update(rng=agent_stream)

    def make_agent(host: str) -> SrmAgent:
        # One recipe for initial members and churn joiners alike.
        return agent_cls(host_id=host, **shared_kwargs)

    agents: dict[str, SrmAgent] = {host: make_agent(host) for host in tree.hosts}

    hosts = tree.hosts
    if config.prime_distances:
        # Scale mode: the session exchange is O(n²) deliveries per
        # period, so at 10^4+ receivers we seed every estimator with an
        # analytic oracle and never start the session timers — the
        # oracle answers exactly what a lossless exchange converges to.
        from repro.srm.session import TreeDistanceOracle

        oracle: TreeDistanceOracle | None = TreeDistanceOracle(
            tree, config.propagation_delay
        )
        for agent in agents.values():
            agent.distances.prime(oracle)
    else:
        oracle = None
        # Stagger session starts across one period so they never
        # synchronize.
        for index, host in enumerate(hosts):
            offset = (index + 0.5) * config.session_period / (len(hosts) + 1)
            agents[host].start(session_offset=offset)

    # Schedule the whole data transmission: the legacy source-paced
    # schedule when no workload is given (kept verbatim — its floats are
    # golden-digest material), else the compiled workload's event stream.
    t0 = config.transmission_start
    source_agent = agents[tree.source]
    workload_obj = None
    send_events: tuple = ()
    if not workload:
        for seq in range(trace.n_packets):
            sim.schedule_at(t0 + seq * trace.period, source_agent.send_data, seq)
        end_of_data = trace.n_packets * trace.period
    else:
        from repro.workloads import (
            compile_workload,
            events_horizon,
            schedule_events,
        )

        workload_obj = (
            compile_workload(workload) if isinstance(workload, str) else workload
        )
        send_events = workload_obj.events(trace, config.seed)
        schedule_events(sim, agents, send_events, t0)
        end_of_data = events_horizon(send_events, trace.period)

    monitor = None
    if config.verify_period is not None:
        monitor = InvariantMonitor(sim, agents, period=config.verify_period)
        monitor.start()

    end_time = t0 + end_of_data + config.drain_time
    injector.install(
        agents, end_time=end_time, on_host_crash=spec.crash_callback(fabric)
    )
    churn_engine = None
    if churn_plan is not None:
        from repro.churn import ChurnEngine

        joiner_factory = make_agent
        if oracle is not None:
            def joiner_factory(host: str) -> SrmAgent:
                agent = make_agent(host)
                agent.distances.prime(oracle)
                return agent

        churn_engine = ChurnEngine(churn_plan, sim, network, registry)
        churn_engine.install(
            agents,
            end_time=end_time,
            agent_factory=joiner_factory,
            source_agent=source_agent,
        )
    return Simulation(
        sim=sim,
        network=network,
        agents=agents,
        source_agent=source_agent,
        trace=synthetic,
        config=config,
        metrics=metrics,
        end_time=end_time,
        fabric=fabric,
        monitor=monitor,
        faults=injector,
        workload=workload_obj,
        churn=churn_engine,
        send_events=send_events,
    )


def run_trace(
    synthetic: SyntheticTrace,
    protocol: str,
    config: SimulationConfig | None = None,
    tracer=None,
    profiler=None,
    faults: FaultPlan | None = None,
    workload=None,
    churn: str = "",
) -> RunResult:
    """Run one protocol over one trace and collect the paper's metrics."""
    config = config or SimulationConfig()
    wall_start = _time.perf_counter()
    simulation = build_simulation(
        synthetic, protocol, config, tracer=tracer, profiler=profiler,
        faults=faults, workload=workload, churn=churn,
    )
    sim = simulation.sim
    sim.run(until=simulation.end_time)
    if simulation.monitor is not None:
        simulation.monitor.check_now()  # final sweep at quiescence
        simulation.monitor.stop()
    for agent in simulation.agents.values():
        agent.stop()

    trace = simulation.trace.trace
    metrics = simulation.metrics
    unrecovered = {
        host: pending
        for host, agent in simulation.agents.items()
        if (pending := agent.unrecovered_losses())
    }
    for host, pending in unrecovered.items():
        metrics.unrecovered[host] = len(pending)

    rtts = {
        host: agent.rtt_to_source()
        for host, agent in simulation.agents.items()
        if host != trace.tree.source
    }
    obs = None
    if tracer is not None or profiler is not None:
        obs = {}
        if tracer is not None:
            tracer.close()
            obs["trace"] = tracer.summary()
        if profiler is not None:
            obs["profile"] = profiler.summary()
    return RunResult(
        protocol=protocol,
        trace_name=trace.name,
        config=config,
        receivers=trace.tree.receivers,
        source=trace.tree.source,
        metrics=metrics,
        overhead=overhead_breakdown(simulation.network.crossings),
        crossings_snapshot=simulation.network.crossings.snapshot(),
        rtt_to_source=rtts,
        unrecovered=unrecovered,
        n_packets=trace.n_packets,
        total_losses=trace.total_losses,
        sim_time=sim.now,
        events_processed=sim.events_processed,
        wall_time=_time.perf_counter() - wall_start,
        obs=obs,
        faults=(
            simulation.faults.stats()
            if simulation.faults is not None and not simulation.faults.plan.empty
            else None
        ),
        workload=(
            _workload_stats(simulation, metrics)
            if simulation.workload is not None
            else None
        ),
        cache=_cache_stats(simulation, metrics) if config.cache else None,
        churn=(
            simulation.churn.stats() if simulation.churn is not None else None
        ),
    )


def _workload_stats(simulation: Simulation, metrics: MetricsCollector) -> dict:
    from repro.workloads import workload_run_stats

    return workload_run_stats(
        simulation.workload, simulation.send_events, metrics, simulation.trace.trace
    )


def _cache_stats(simulation: Simulation, metrics: MetricsCollector) -> dict:
    """Aggregate per-policy cache counters across every agent holding
    per-source caches (CESRM variants), plus the run's expedited
    fraction — the y-axis of the policy frontier.

    Only called for runs with an explicit ``config.cache`` spec, so
    default summaries never grow this block.
    """
    from repro.core.cachelab import compile_cache_policy

    totals = {
        "inserts": 0,
        "improvements": 0,
        "rejects": 0,
        "capacity_evictions": 0,
        "replier_evictions": 0,
        "expirations": 0,
        "lookups": 0,
        "hits": 0,
    }
    occupancy: dict[str, int] = {}
    n_caches = 0
    for agent in simulation.agents.values():
        for source, cache in sorted(getattr(agent, "caches", {}).items()):
            n_caches += 1
            stats = cache.stats()
            for key in totals:
                totals[key] += stats[key]
            occupancy[source] = occupancy.get(source, 0) + stats["entries"]
    expedited = fallback = 0
    for records in metrics.recoveries.values():
        for record in records:
            if record.expedited:
                expedited += 1
            else:
                fallback += 1
    recoveries = expedited + fallback
    lookups = totals["lookups"]
    return {
        "spec": compile_cache_policy(simulation.config.cache).spec,
        "caches": n_caches,
        **totals,
        "evictions": totals["capacity_evictions"] + totals["replier_evictions"],
        "hit_rate": round(totals["hits"] / lookups, 6) if lookups else 0.0,
        "expedited_fraction": (
            round(expedited / recoveries, 6) if recoveries else 0.0
        ),
        "occupancy": occupancy,
    }
