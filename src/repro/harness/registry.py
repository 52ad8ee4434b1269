"""The pluggable protocol-session registry.

Every protocol the harness can run is described by one
:class:`ProtocolSpec`: the agent class to attach at each host, an optional
router-fabric factory (LMS routing state, RMTP designated-receiver rings),
a hook deriving protocol-specific agent kwargs from the run's
:class:`~repro.harness.config.SimulationConfig`, and an optional crash
hook the fault layer calls when a host dies (LMS records the crash against
its fabric so stale replier designations can be observed and repaired).

``build_simulation`` consults only :data:`PROTOCOLS` — there are no
protocol-name conditionals in the runner — so a new protocol (or a test
double) plugs in with one ``register`` call:

.. code-block:: python

    from repro.harness.registry import PROTOCOLS, ProtocolSpec

    PROTOCOLS.register(ProtocolSpec(name="my-srm", agent_cls=MySrmVariant))

The four shipped protocols (plus the two SRM/CESRM variants) register
themselves at import time, in the order the paper discusses them; that
order is what ``PROTOCOLS.names()`` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.agent import CesrmAgent
from repro.core.cachelab import compile_cache_policy
from repro.core.router_assist import RouterAssistedCesrmAgent
from repro.harness.config import SimulationConfig
from repro.harness.registries import Registry
from repro.lms.agent import LmsAgent
from repro.lms.fabric import LmsFabric
from repro.net.topology import MulticastTree
from repro.rmtp.agent import RmtpAgent
from repro.rmtp.fabric import RmtpFabric
from repro.srm.adaptive import AdaptiveSrmAgent
from repro.srm.agent import SrmAgent


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the harness needs to wire one protocol into a run."""

    #: Registry name (the CLI's ``--protocol`` value).
    name: str
    #: Agent class attached at every host (an :class:`SrmAgent` subclass).
    agent_cls: type[SrmAgent]
    #: One-line description for listings.
    description: str = ""
    #: Builds the protocol's shared router fabric from the tree, if it has
    #: one; the instance is passed to every agent as ``fabric=``.
    fabric_factory: Callable[[MulticastTree], Any] | None = None
    #: Derives protocol-specific agent constructor kwargs from the config
    #: (beyond the common sim/network/host/params/rng/metrics set).  The
    #: runner calls it once per run and passes the same dict to every host.
    agent_kwargs: Callable[[SimulationConfig], dict[str, Any]] | None = None
    #: Given the built fabric, returns the callable the fault layer invokes
    #: when a host crashes (None = the protocol needs no notification).
    crash_hook: Callable[[Any], Callable[[str], None] | None] | None = None
    #: Extra metadata for listings and experiments.
    tags: tuple[str, ...] = field(default=())

    @property
    def fabric(self) -> bool:
        """Whether the protocol runs a shared router fabric (a listing
        field of ``cesrm protocols``)."""
        return self.fabric_factory is not None

    def build_fabric(self, tree: MulticastTree) -> Any | None:
        return self.fabric_factory(tree) if self.fabric_factory is not None else None

    def extra_agent_kwargs(self, config: SimulationConfig) -> dict[str, Any]:
        return self.agent_kwargs(config) if self.agent_kwargs is not None else {}

    def crash_callback(self, fabric: Any | None) -> Callable[[str], None] | None:
        if self.crash_hook is None:
            return None
        return self.crash_hook(fabric)


#: The protocol surface (see :mod:`repro.harness.registries`).
PROTOCOLS: Registry[ProtocolSpec] = Registry("protocol", listing=("fabric",))


# ----------------------------------------------------------------------
# Built-in protocols
# ----------------------------------------------------------------------
def _cesrm_kwargs(config: SimulationConfig) -> dict[str, Any]:
    # Called once per build_simulation; the result is shared by every
    # agent of the run, initial members and churn joiners alike.  The
    # selection policy therefore travels by name — each agent makes its
    # own instance (policies may keep state) — while the cache policy,
    # which only stamps out per-(host, source) caches, is compiled here.
    kwargs = dict(
        policy=config.policy,
        cache_capacity=config.cache_capacity,
        reorder_delay=config.reorder_delay,
    )
    if config.cache:
        # Non-default recovery-cache policy: every agent builds its
        # per-source caches from the one compiled policy, seeded by the
        # run seed (stochastic admission stays isolated from protocol
        # jitter).  The default ("") path passes nothing, keeping agent
        # construction byte-identical to pre-cachelab runs.
        kwargs["cache_policy"] = compile_cache_policy(config.cache)
        kwargs["cache_seed"] = config.seed
    return kwargs


PROTOCOLS.register(
    ProtocolSpec(
        name="srm",
        agent_cls=SrmAgent,
        description="Scalable Reliable Multicast (§2): suppression-timer recovery",
    )
)
PROTOCOLS.register(
    ProtocolSpec(
        name="srm-adaptive",
        agent_cls=AdaptiveSrmAgent,
        description="SRM with adaptive request/reply timer adjustment",
    )
)
PROTOCOLS.register(
    ProtocolSpec(
        name="cesrm",
        agent_cls=CesrmAgent,
        description="Caching-Enhanced SRM (§3): expedited recovery over SRM",
        agent_kwargs=_cesrm_kwargs,
        tags=("expedited",),
    )
)
PROTOCOLS.register(
    ProtocolSpec(
        name="cesrm-router",
        agent_cls=RouterAssistedCesrmAgent,
        description="CESRM with router-assisted subcast replies (§3.3)",
        agent_kwargs=_cesrm_kwargs,
        tags=("expedited", "router-assisted"),
    )
)
PROTOCOLS.register(
    ProtocolSpec(
        name="lms",
        agent_cls=LmsAgent,
        description="Light-weight Multicast Services: router-steered recovery",
        fabric_factory=LmsFabric,
        crash_hook=lambda fabric: fabric.fail_host,
        tags=("router-assisted",),
    )
)
PROTOCOLS.register(
    ProtocolSpec(
        name="rmtp",
        agent_cls=RmtpAgent,
        description="RMTP: designated-receiver status/repair cycles",
        fabric_factory=RmtpFabric,
    )
)


__all__ = ["PROTOCOLS", "ProtocolSpec"]
