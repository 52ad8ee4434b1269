"""The stable public facade of the reproduction.

Downstream code — the ``examples/``, notebooks, external experiments —
should import from here and nowhere else:

.. code-block:: python

    from repro.api import run_trace, SimulationConfig, FaultPlan

``repro.api`` re-exports, by explicit name, the full supported surface:

* running: :func:`run_trace`, :func:`build_simulation`,
  :class:`SimulationConfig`, :class:`RunResult`;
* the five pluggable surfaces, each one :class:`Registry` object used
  directly (``.register / .unregister / .get / .names() / .specs()``):
  ``PROTOCOLS`` (:class:`ProtocolSpec`), ``WORKLOADS``, ``TOPOLOGIES``,
  ``CACHE_POLICIES`` and ``SELECTION_POLICIES``;
* deterministic fault injection: :class:`FaultPlan` and its event types,
  :func:`sample_plan`, :class:`FaultInjector`;
* the trace substrate: :func:`synthesize_trace`, :func:`trace_meta`,
  :class:`SynthesisParams`, the §4.2 estimators and :class:`Attributor`;
* declarative workloads (:func:`compile_workload`, :class:`WorkloadSpec`)
  and generative topologies (:class:`TopologySpec`,
  :func:`build_topology`, :func:`synthesize_topology_trace`) plus the
  membership-churn axis (:func:`compile_churn`, :class:`ChurnPlan`);
* verification and observability hooks, CESRM's cache/policy extension
  points, and the low-level building blocks the multi-source example
  wires by hand (engine, network, metrics);
* fleet sweeps: :func:`load_sweep`/:func:`compile_sweep` grids,
  :func:`run_sweep` resumable execution, :class:`SweepStore` columnar
  results.

Everything importable from the historical deep paths
(``repro.harness.runner`` etc.) still works, but only the names listed
in ``__all__`` here are covenanted API.
"""

from __future__ import annotations

# -- engine + network building blocks ----------------------------------
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer, Timer
from repro.net.network import Network
from repro.net.packet import Cast, Packet, PacketKind
from repro.net.topology import MulticastTree, build_balanced_tree, build_random_tree

# -- trace substrate (§4.1–4.2) -----------------------------------------
from repro.traces.analysis import analyze_trace
from repro.traces.attribution import Attributor
from repro.traces.gilbert import GilbertModel
from repro.traces.inference import (
    estimate_link_rates_mle,
    estimate_link_rates_subtree,
)
from repro.traces.model import LossTrace, SyntheticTrace
from repro.traces.synthesize import SynthesisParams, synthesize_trace
from repro.traces.yajnik import FIGURE_TRACES, YAJNIK_TRACES, trace_meta

# -- protocols + extension points ---------------------------------------
from repro.core.agent import CesrmAgent
from repro.core.cachelab import (
    CACHE_POLICIES,
    CacheError,
    CachePolicy,
    CachePolicySpec,
    CompiledCachePolicy,
    LfuCache,
    LruCache,
    ProbabilisticCache,
    RecoveryPairCache,
    RecoveryTuple,
    TtlCache,
    UnboundedCache,
    compile_cache_policy,
    make_cache_policy,
)
from repro.core.policies import (
    MostFrequentLossPolicy,
    MostRecentLossPolicy,
    SELECTION_POLICIES,
    SelectionPolicy,
    make_policy,
    register_policy,
)
from repro.core.router_assist import RouterAssistedCesrmAgent
from repro.lms.agent import LmsAgent
from repro.lms.fabric import LmsFabric
from repro.rmtp.agent import RmtpAgent
from repro.rmtp.fabric import RmtpFabric
from repro.srm.agent import SrmAgent
from repro.srm.constants import SrmParams

# -- harness: running simulations ---------------------------------------
from repro.harness.config import SimulationConfig
from repro.harness.registry import PROTOCOLS, ProtocolSpec
from repro.harness.registries import Registry
from repro.harness.specstr import SpecError, canonical_spec, parse_spec
from repro.harness.runner import RunResult, Simulation, build_simulation, run_trace
from repro.harness.report import render_recovery_timeline

# -- deterministic fault injection --------------------------------------
from repro.faults import (
    EVENT_TYPES,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpecError,
    LinkDown,
    LinkFlap,
    NodeCrash,
    PacketDuplicate,
    PacketReorder,
    Partition,
    SessionSuppress,
    compile_fault_plan,
    is_fault_spec,
    parse_fault_event,
    sample_plan,
)

# -- workloads: declarative offered-traffic specs -----------------------
from repro.workloads import (
    WORKLOADS,
    SendEvent,
    Workload,
    WorkloadError,
    WorkloadSpec,
    compile_workload,
)

# -- generative topologies + membership churn ---------------------------
from repro.net.families import (
    TOPOLOGIES,
    TopologyError,
    TopologySpec,
    build_topology,
    synthesize_topology_trace,
)
from repro.churn import (
    ChurnError,
    ChurnPlan,
    compile_churn,
    validate_churn,
)

# -- verification, metrics, execution engine ----------------------------
from repro.spec import ALL_INVARIANTS, InvariantMonitor, InvariantViolation
from repro.metrics.collector import MetricsCollector
from repro.metrics.overhead import OverheadBreakdown, overhead_breakdown
from repro.metrics.stats import mean
from repro.exec import (
    ExecutionEngine,
    RunCache,
    RunJob,
    RunSummary,
    source_fingerprint,
)

# -- sweeps: declarative grids over the execution engine ----------------
from repro.sweep import (
    SweepCase,
    SweepError,
    SweepRunReport,
    SweepSpec,
    SweepStore,
    compile_sweep,
    load_sweep,
    run_sweep,
)

__all__ = [
    # engine + network
    "Simulator",
    "Timer",
    "PeriodicTimer",
    "RngRegistry",
    "Network",
    "Packet",
    "PacketKind",
    "Cast",
    "MulticastTree",
    "build_balanced_tree",
    "build_random_tree",
    # traces
    "LossTrace",
    "SyntheticTrace",
    "GilbertModel",
    "SynthesisParams",
    "synthesize_trace",
    "trace_meta",
    "YAJNIK_TRACES",
    "FIGURE_TRACES",
    "estimate_link_rates_subtree",
    "estimate_link_rates_mle",
    "Attributor",
    "analyze_trace",
    # protocols + extension points
    "SrmAgent",
    "SrmParams",
    "CesrmAgent",
    "RouterAssistedCesrmAgent",
    "LmsAgent",
    "LmsFabric",
    "RmtpAgent",
    "RmtpFabric",
    "RecoveryTuple",
    "RecoveryPairCache",
    "SELECTION_POLICIES",
    "SelectionPolicy",
    "MostRecentLossPolicy",
    "MostFrequentLossPolicy",
    "make_policy",
    "register_policy",
    # cache laboratory
    "CACHE_POLICIES",
    "CacheError",
    "CachePolicy",
    "CachePolicySpec",
    "CompiledCachePolicy",
    "LruCache",
    "LfuCache",
    "TtlCache",
    "ProbabilisticCache",
    "UnboundedCache",
    "compile_cache_policy",
    "make_cache_policy",
    # spec-string grammar + generic registry
    "SpecError",
    "parse_spec",
    "canonical_spec",
    "Registry",
    # harness
    "SimulationConfig",
    "RunResult",
    "Simulation",
    "run_trace",
    "build_simulation",
    "render_recovery_timeline",
    # protocol surface
    "PROTOCOLS",
    "ProtocolSpec",
    # faults
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "LinkDown",
    "LinkFlap",
    "Partition",
    "NodeCrash",
    "PacketDuplicate",
    "PacketReorder",
    "SessionSuppress",
    "EVENT_TYPES",
    "sample_plan",
    "FaultSpecError",
    "is_fault_spec",
    "parse_fault_event",
    "compile_fault_plan",
    # workloads
    "WORKLOADS",
    "Workload",
    "WorkloadSpec",
    "WorkloadError",
    "SendEvent",
    "compile_workload",
    # generative topologies + churn
    "TOPOLOGIES",
    "TopologySpec",
    "TopologyError",
    "build_topology",
    "synthesize_topology_trace",
    "ChurnPlan",
    "ChurnError",
    "compile_churn",
    "validate_churn",
    # verification + metrics + execution
    "InvariantMonitor",
    "InvariantViolation",
    "ALL_INVARIANTS",
    "MetricsCollector",
    "OverheadBreakdown",
    "overhead_breakdown",
    "mean",
    "ExecutionEngine",
    "RunCache",
    "RunJob",
    "RunSummary",
    "source_fingerprint",
    # sweeps
    "SweepSpec",
    "SweepCase",
    "SweepError",
    "SweepStore",
    "SweepRunReport",
    "compile_sweep",
    "load_sweep",
    "run_sweep",
]
