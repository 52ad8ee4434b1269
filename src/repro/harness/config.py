"""Simulation configuration.

Defaults reproduce §4.3's setup exactly: 1.5 Mbps links, 20 ms per-link
delay, 1 KB payloads / 0 KB control packets, C1=C2=2, C3=1.5, D1=D2=1,
D3=1.5, REORDER-DELAY = 0, 1 s session period, lossless session exchange
and lossless recovery traffic, the most-recent-loss selection policy, and
a data transmission start delayed until distance estimates have converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from importlib import import_module
from typing import Any, NamedTuple

from repro.srm.constants import SrmParams


class Axis(NamedTuple):
    """One optional run axis, as the dataclass field made by :func:`axis`
    declares it (see "Adding a run axis" in DESIGN.md)."""

    name: str
    default: Any
    #: ``"module:function"`` compiling a spec-string value (raises
    #: ``ValueError`` on a bad one); imported on first use, because the
    #: spec compilers themselves import the harness.
    compile: str | None
    choices: tuple | None
    flag_help: str | None
    dimension: int

    def check(self, value: Any) -> None:
        """Raise ``ValueError`` unless ``value`` is valid for this axis."""
        if value == self.default:
            return
        if self.choices is not None and value not in self.choices:
            expected = " or ".join(repr(choice) for choice in self.choices)
            raise ValueError(
                f"unknown {self.name} {value!r} (expected {expected})"
            )
        if self.compile is not None:
            module, _, function = self.compile.partition(":")
            getattr(import_module(module), function)(value)


def axis(
    default: Any,
    *,
    compile: str | None = None,
    choices: tuple | None = None,
    flag_help: str | None = None,
    dimension: int = 0,
) -> Any:
    """Declare an optional run axis: a dataclass field whose declaration
    is the whole contract.  Every axis is validated eagerly at its home,
    folds into the wire form (job keys, summaries, cache entries) only
    when off ``default`` — a payload without the key decodes to
    ``default``, so adding an axis moves no existing digest — and labels
    a non-default run as ``name=value``.  ``flag_help`` adds the
    ``--<name>`` CLI flag; a non-zero ``dimension`` makes the axis a
    ``[grid]`` axis of sweep specs and a result-store column, in that
    column slot (the hand-written ``faults`` holds slot 2)."""
    declared = Axis("", default, compile, choices, flag_help, dimension)
    return field(default=default, metadata={"axis": declared})


def declared_axes(cls: type) -> tuple[Axis, ...]:
    """The axes ``cls`` declares with :func:`axis`, in field order, each
    under its field's name."""
    return tuple(
        f.metadata["axis"]._replace(name=f.name)
        for f in fields(cls)
        if "axis" in f.metadata
    )


#: Default per-trace replay length (packets) of the harness's Table 1
#: replays — experiments and sweep grids alike; the CLI's ``--full`` lifts
#: it.  Real replays are 17k–149k packets.
DEFAULT_MAX_PACKETS = 3000


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulation run (immutable; see :meth:`with_`)."""

    #: SRM scheduling constants (shared by CESRM's fall-back scheme).
    params: SrmParams = field(default_factory=SrmParams)
    #: One-way per-link propagation delay in seconds (§4.3 publishes 20 ms).
    propagation_delay: float = 0.020
    #: Per-link bandwidth (§4.3: 1.5 Mbps).
    bandwidth_bps: float = 1.5e6
    #: Session message period (§4.3: 1 s).
    session_period: float = 1.0
    #: CESRM's REORDER-DELAY (§4.3 uses 0: replay has no reordering).
    reorder_delay: float = 0.0
    #: Recovery-tuple cache capacity (most-recent-loss needs only 1).
    cache_capacity: int = 16
    #: Recovery-cache policy spec (see repro.core.cachelab), e.g.
    #: ``"lru:capacity=8"`` or ``"ttl:capacity=16,ttl=30s"``.  The empty
    #: string means the paper's policy at ``cache_capacity``.
    cache: str = axis(
        "",
        compile="repro.core.cachelab:compile_cache_policy",
        flag_help="recovery-cache policy spec for CESRM runs, e.g. "
        "lru:capacity=16 or ttl:capacity=16,ttl=30s (default: the paper's "
        "seqno-ordered cache; `cesrm caches` lists the policies)",
        dimension=3,
    )
    #: Expeditious-pair selection policy name (see repro.core.policies).
    policy: str = "most-recent"
    #: Detect losses from foreign repair requests (ns-2 SRM behaviour).
    detect_on_request: bool = True
    #: Drop recovery packets at the trace's per-link rates (§4.3 keeps
    #: recovery lossless by default; this is the lossy-recovery ablation).
    lossy_recovery: bool = False
    #: Session periods to wait before the data transmission starts, so
    #: distance estimates converge first (§4.3).
    warmup_periods: float = 3.0
    #: Simulated seconds to keep running after the last data packet so
    #: tail losses finish recovering.
    drain_time: float = 30.0
    #: Scale mode: skip the simulated session exchange and back every
    #: distance estimator with an analytic tree-distance oracle instead
    #: (:class:`repro.srm.session.TreeDistanceOracle`).  Sessions are
    #: O(n²) deliveries per period, which caps simulable group sizes
    #: around 10^3; primed runs reach 10^5+ receivers with the same
    #: timer math (the oracle returns exactly what a lossless exchange
    #: converges to).  False simulates the exchange.
    prime_distances: bool = axis(False)
    #: Forwarding-kernel selection: ``"python"`` — the pure-python
    #: per-hop reference path, the oracle every optimization is measured
    #: against — or ``"vector"`` — the numpy batched delivery-wave kernel
    #: (see ``repro.net.vector`` and docs/performance.md).  Both produce
    #: byte-identical ``RunSummary`` output (gated by
    #: ``tests/test_kernel_equivalence.py``).
    kernel: str = axis(
        "python",
        choices=("python", "vector"),
        flag_help="forwarding kernel: the pure-python reference path or the "
        "numpy batched delivery-wave kernel (`cesrm run --kernel vector`; "
        "both produce byte-identical results — see docs/performance.md)",
    )
    #: Master seed for all protocol jitter in the run.
    seed: int = 0
    #: Replay only the first N packets of the trace (None = full trace).
    max_packets: int | None = None
    #: Attach a repro.spec.InvariantMonitor to the run: every protocol
    #: invariant is checked at this cadence in simulated seconds (None
    #: disables verification; checking costs simulation speed).
    verify_period: float | None = None

    def __post_init__(self) -> None:
        if self.propagation_delay <= 0:
            raise ValueError("propagation_delay must be positive")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if self.session_period <= 0:
            raise ValueError("session_period must be positive")
        if self.reorder_delay < 0:
            raise ValueError("reorder_delay must be non-negative")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        # Eager validation: a typo'd axis value fails at config
        # construction, before any job is keyed or simulation built.
        for declared in CONFIG_AXES:
            declared.check(getattr(self, declared.name))
        if self.warmup_periods < 0:
            raise ValueError("warmup_periods must be non-negative")
        if self.drain_time < 0:
            raise ValueError("drain_time must be non-negative")
        if self.max_packets is not None and self.max_packets < 1:
            raise ValueError("max_packets must be >= 1 when set")
        if self.verify_period is not None and self.verify_period <= 0:
            raise ValueError("verify_period must be positive when set")

    @property
    def transmission_start(self) -> float:
        """When the source begins sending data (§4.3's delayed start)."""
        return self.warmup_periods * self.session_period + 0.25

    def with_(self, **changes: Any) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: The axes :class:`SimulationConfig` is home to.
CONFIG_AXES = declared_axes(SimulationConfig)
