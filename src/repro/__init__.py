"""CESRM — Caching-Enhanced Scalable Reliable Multicast.

A from-scratch reproduction of *"Caching-Enhanced Scalable Reliable
Multicast"* (Livadas & Keidar, DSN 2004): the CESRM protocol, the SRM
baseline it extends, a deterministic discrete-event network simulator, a
trace substrate reproducing the Yajnik et al. MBone loss traces, the §4.2
link-loss inference pipeline, and a harness regenerating every table and
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import synthesize_trace, trace_meta, run_trace, SimulationConfig
>>> st = synthesize_trace(trace_meta("WRN951113"), seed=0, max_packets=2000)
>>> cfg = SimulationConfig(max_packets=2000)
>>> srm = run_trace(st, "srm", cfg)
>>> cesrm = run_trace(st, "cesrm", cfg)

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
table/figure reproductions.
"""

from repro.sim import Simulator, Timer, PeriodicTimer, RngRegistry
from repro.net import (
    MulticastTree,
    Network,
    Packet,
    PacketKind,
    Cast,
    build_balanced_tree,
    build_random_tree,
)
from repro.traces import (
    LossTrace,
    SyntheticTrace,
    GilbertModel,
    YAJNIK_TRACES,
    FIGURE_TRACES,
    trace_meta,
    synthesize_trace,
    estimate_link_rates_subtree,
    estimate_link_rates_mle,
    Attributor,
    analyze_trace,
)
from repro.srm import SrmAgent, SrmParams
from repro.core import (
    CesrmAgent,
    RouterAssistedCesrmAgent,
    RecoveryTuple,
    RecoveryPairCache,
    MostRecentLossPolicy,
    MostFrequentLossPolicy,
    SelectionPolicy,
    make_policy,
    register_policy,
)
from repro.lms import LmsAgent, LmsFabric
from repro.rmtp import RmtpAgent, RmtpFabric
from repro.spec import InvariantMonitor, InvariantViolation, ALL_INVARIANTS
from repro.harness import (
    SimulationConfig,
    RunResult,
    run_trace,
    build_simulation,
    PROTOCOLS,
    ProtocolSpec,
)
from repro.faults import FaultPlan, FaultInjector, sample_plan
from repro.metrics import MetricsCollector, OverheadBreakdown
from repro.exec import (
    ExecutionEngine,
    RunCache,
    RunJob,
    RunSummary,
    source_fingerprint,
)

__version__ = "1.0.0"

__all__ = [
    # simulation engine
    "Simulator",
    "Timer",
    "PeriodicTimer",
    "RngRegistry",
    # network
    "MulticastTree",
    "Network",
    "Packet",
    "PacketKind",
    "Cast",
    "build_balanced_tree",
    "build_random_tree",
    # traces
    "LossTrace",
    "SyntheticTrace",
    "GilbertModel",
    "YAJNIK_TRACES",
    "FIGURE_TRACES",
    "trace_meta",
    "synthesize_trace",
    "estimate_link_rates_subtree",
    "estimate_link_rates_mle",
    "Attributor",
    "analyze_trace",
    # protocols
    "SrmAgent",
    "SrmParams",
    "CesrmAgent",
    "RouterAssistedCesrmAgent",
    "RecoveryTuple",
    "RecoveryPairCache",
    "MostRecentLossPolicy",
    "MostFrequentLossPolicy",
    "SelectionPolicy",
    "make_policy",
    "register_policy",
    "LmsAgent",
    "LmsFabric",
    "RmtpAgent",
    "RmtpFabric",
    "InvariantMonitor",
    "InvariantViolation",
    "ALL_INVARIANTS",
    # harness
    "SimulationConfig",
    "RunResult",
    "run_trace",
    "build_simulation",
    "PROTOCOLS",
    "ProtocolSpec",
    # faults
    "FaultPlan",
    "FaultInjector",
    "sample_plan",
    # execution engine
    "ExecutionEngine",
    "RunCache",
    "RunJob",
    "RunSummary",
    "source_fingerprint",
    # metrics
    "MetricsCollector",
    "OverheadBreakdown",
    "__version__",
]
