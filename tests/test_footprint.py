"""What an idle receiver costs: the per-host footprint contract.

CESRM's premise is that losses are rare and local, so at scale almost
every receiver only ever takes the next in-order packet.  Such a host
should cost a slotted agent record and a reception-column row, nothing
more: every stock agent class (and the estimator and timers it holds)
declares ``__slots__``, the session timer, the CESRM maps and the
selection policy are built on first use, and under ``kernel="vector"``
the link columns are the only link state.  This module pins each piece:

* no stock agent has an instance ``__dict__`` — a user subclass that
  adds attributes still works (with a dict of its own) and rides the
  reception columns exactly when its DATA path is still ``column_safe``;
* a budget in bytes per idle receiver, measured with ``tracemalloc``
  over ``build_simulation`` of a primed 2 000-receiver vector world;
* ``Network.link_state`` under vector reads the python kernel's values;
* a primed host that crashes and restarts starts no session exchange.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
import types

import pytest

from repro.core.agent import CesrmAgent
from repro.faults import FaultPlan
from repro.faults.plan import NodeCrash
from repro.harness.config import SimulationConfig
from repro.harness.registry import PROTOCOLS, ProtocolSpec
from repro.harness.runner import build_simulation, run_trace
from repro.net.families import synthesize_topology_trace
from repro.net.network import Network
from repro.net.packet import PacketKind
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.srm.agent import column_safe
from repro.srm.session import DistanceEstimator

from tests.helpers import Sink, control, payload, two_subtrees

#: 2 000 receivers behind 20 stub routers, no loss: every receiver idle.
IDLE_WORLD = "transit_stub:transits=2,stubs=10,hosts=100,packets=8,loss=1e-9"

#: Bytes ``build_simulation`` allocates per receiver of IDLE_WORLD
#: (``tracemalloc``), by CPython version: the measured value plus 5 %
#: (repeat runs agree to within 1 B).  3.11 measures 717.  Each of an
#: instance dict on ``CesrmAgent`` (with ``SrmAgent`` slotted its 16
#: attributes stay under the shared-key limit), an eagerly built session
#: timer or a ``LinkState`` per directed link under vector costs more
#: than the margin, and fails this.  Allocator accounting differs between
#: versions, so a version is held to a budget only once it has been
#: measured on it; until then the test reports its cost as an expected
#: failure.  Larger worlds cost less per receiver (fixed costs spread
#: thinner: 697 B at 10 000 receivers on 3.11), so CI's 10 000-receiver
#: check holds them to the same number.
IDLE_RECEIVER_BUDGETS = {(3, 11): 753}

SMALL_WORLD = "transit_stub:transits=2,stubs=3,hosts=6,packets=12,loss=5e-3"


def _primed(kernel: str = "vector", **overrides) -> SimulationConfig:
    base = dict(seed=5, prime_distances=True, drain_time=2.0, kernel=kernel)
    base.update(overrides)
    return SimulationConfig(**base)


def _trace(spec: str = SMALL_WORLD, seed: int = 4, packets: int = 12):
    return synthesize_topology_trace(spec, seed=seed, max_packets=packets)


# ----------------------------------------------------------------------
# Slotted records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", PROTOCOLS.specs(), ids=lambda spec: spec.name)
def test_stock_agents_have_no_instance_dict(spec):
    """Checked after a lossy run with sessions on, so every lazily built
    piece (timers, per-source state, CESRM maps, policy) exists too."""
    trace = _trace()
    assert trace.trace.total_losses > 0
    simulation = build_simulation(trace, spec.name, SimulationConfig(seed=5))
    simulation.sim.run(until=simulation.end_time)
    for agent in simulation.agents.values():
        assert type(agent) is spec.agent_cls
        assert not hasattr(agent, "__dict__"), type(agent).__name__
        assert not hasattr(agent.distances, "__dict__")
        assert agent.session_running
        assert not hasattr(agent._session_timer, "__dict__")


def test_timers_and_estimator_are_slotted():
    sim = Simulator()
    assert not hasattr(Timer(sim, print), "__dict__")
    assert not hasattr(PeriodicTimer(sim, 1.0, print), "__dict__")
    estimator = DistanceEstimator("r1", 3)
    assert not hasattr(estimator, "__dict__")
    # ``get_or`` is a slot holding the estimate dict's own bound ``get``
    # (no method behind it): no extra frame on the reply and timer paths.
    assert isinstance(vars(DistanceEstimator)["get_or"], types.MemberDescriptorType)
    assert estimator.get_or == estimator._estimates.get


class Annotated(CesrmAgent):
    """A user subclass that adds an attribute and declares no
    ``__slots__``: it gets an instance dict back, and nothing else
    changes — its DATA path is the stock one."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.note = "user state"


class AnnotatedWatcher(Annotated):
    """The same, with its own (unmarked) DATA-path method."""

    def _on_data(self, packet) -> None:
        self.note = packet.seqno
        super()._on_data(packet)


class MarkedWatcher(Annotated):
    """Overrides the DATA path but keeps the mark: rides the columns."""

    @column_safe
    def _on_data(self, packet) -> None:
        super()._on_data(packet)


@pytest.mark.parametrize(
    ("agent_cls", "rides"),
    [(Annotated, True), (AnnotatedWatcher, False), (MarkedWatcher, True)],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_user_subclass_with_attributes_builds_runs_and_rides(agent_cls, rides):
    """Compared with stock CESRM registered under the same name (the
    protocol name seeds the run's random streams)."""
    trace = _trace()

    def as_user_protocol(cls):
        PROTOCOLS.register(
            ProtocolSpec(
                name="user-cesrm",
                agent_cls=cls,
                agent_kwargs=PROTOCOLS.get("cesrm").agent_kwargs,
            )
        )
        try:
            simulation = build_simulation(trace, "user-cesrm", _primed())
            return simulation, run_trace(trace, "user-cesrm", _primed())
        finally:
            PROTOCOLS.unregister("user-cesrm")

    _, stock = as_user_protocol(CesrmAgent)
    simulation, result = as_user_protocol(agent_cls)
    network = simulation.network
    for host, agent in simulation.agents.items():
        assert hasattr(agent, "__dict__") and vars(agent) == {"note": "user state"}
        assert (network._columns.owner(network._ids[host]) is agent) is rides
    assert result.metrics.recoveries == stock.metrics.recoveries
    assert result.crossings_snapshot == stock.crossings_snapshot
    assert result.events_processed == stock.events_processed


# ----------------------------------------------------------------------
# The budget
# ----------------------------------------------------------------------
def idle_footprint(spec: str):
    """``(bytes, simulation)``: the ``tracemalloc`` bytes that
    ``build_simulation`` allocates per receiver of a primed vector-kernel
    CESRM world on the topology ``spec`` (trace synthesis and the
    topology index are built before measuring), and the world built.
    CI's topology smoke step runs this at 10 000 receivers."""
    trace = synthesize_topology_trace(spec, seed=0, max_packets=8)
    trace.trace.tree.index  # noqa: B018 - built by synthesis in practice
    config = _primed(max_packets=8)
    build_simulation(_trace(), "cesrm", config)  # lazy imports, off the books
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulation = build_simulation(trace, "cesrm", config)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    receivers = len(trace.trace.tree.receivers)
    assert len(simulation.agents) == receivers + 1
    return (after - before) / receivers, simulation


def test_idle_receiver_footprint_budget():
    cost, _ = idle_footprint(IDLE_WORLD)
    version = sys.version_info[:2]
    budget = IDLE_RECEIVER_BUDGETS.get(version)
    if budget is None:
        pytest.xfail(
            f"an idle receiver costs {cost:.0f} B; no budget measured on "
            f"Python {version[0]}.{version[1]}"
        )
    assert cost <= budget, f"an idle receiver costs {cost:.0f} B, budget {budget} B"


def test_idle_vector_world_builds_no_link_objects():
    simulation = build_simulation(_trace(), "cesrm", _primed())
    network = simulation.network
    assert network._links is network._hop_record is None
    assert network._adj is network._child_adj is None
    for agent in simulation.agents.values():
        assert agent._session_timer is None
        assert agent._caches is agent._expedited is agent._erqst_inflight is None
        assert isinstance(agent._policy, type)  # resolved, not instantiated
        assert dict(agent.caches) == {}


# ----------------------------------------------------------------------
# link_state under vector reads the python kernel's values
# ----------------------------------------------------------------------
def _live_links(tree):
    for child, parent in tree.to_parent_map().items():
        yield parent, child
        yield child, parent


def _link_values(network, tree) -> dict:
    out = {}
    for u, v in _live_links(tree):
        link = network.link_state(u, v)
        out[u, v] = (
            link.busy_until,
            link.queueing_delay_total,
            link.packets_carried,
            link.bytes_carried,
        )
    return out


def test_link_state_matches_python_after_a_churn_run():
    trace = _trace()
    start = _primed().transmission_start
    churn = f"churn:rate=8,leave=0.4,start={start},until=6s,floor=20"
    values = {}
    for kernel in ("python", "vector"):
        simulation = build_simulation(trace, "cesrm", _primed(kernel), churn=churn)
        simulation.sim.run(until=simulation.end_time)
        assert simulation.churn.joins > 0 and simulation.churn.leaves > 0
        values[kernel] = _link_values(simulation.network, simulation.network.tree)
    assert values["vector"] == values["python"]
    assert any(carried for _busy, _qd, carried, _bytes in values["vector"].values())


def test_link_state_matches_python_after_a_rejoin():
    """The same name leaves and rejoins under another router: its fresh
    links start from zero on both kernels, and carry the same traffic."""
    values = {}
    for kernel in ("python", "vector"):
        sim = Simulator()
        tree = two_subtrees()
        network = Network(sim, tree, kernel=kernel)
        log: list = []
        for host in tree.hosts:
            network.attach(host, Sink(sim, host, log))
        network.multicast(payload("s", 1, PacketKind.DATA))
        network.multicast(payload("r4", 2))
        sim.run()
        network.detach_subtree("r4")
        with pytest.raises(KeyError):
            network.link_state("x2", "r4")
        network.attach_receiver("r4", "x1")
        network.attach("r4", Sink(sim, "r4", log))
        fresh = _link_values(network, tree)
        network.multicast(payload("s", 3, PacketKind.DATA))
        network.multicast(control("r4", 4))
        sim.run()
        values[kernel] = (fresh, _link_values(network, tree), log)
    assert values["vector"] == values["python"]
    fresh = values["vector"][0]
    assert fresh["x1", "r4"] == fresh["r4", "x1"] == (0.0, 0.0, 0, 0)


# ----------------------------------------------------------------------
# A primed host that restarts starts no session exchange
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["python", "vector"])
def test_primed_restart_sends_no_session_reports(kernel):
    spec = "transit_stub:transits=2,stubs=3,hosts=20,packets=8,loss=1e-9"
    trace = _trace(spec, seed=0, packets=8)
    assert len(trace.trace.tree.hosts) == 121
    start = _primed().transmission_start
    victim = trace.trace.tree.receivers[7]
    plan = FaultPlan(events=(NodeCrash(host=victim, at=start + 0.15, restart_after=0.3),))
    simulation = build_simulation(trace, "cesrm", _primed(kernel), faults=plan)
    simulation.sim.run(until=simulation.end_time)
    assert simulation.faults.stats()["restarts"] == 1
    assert not simulation.agents[victim].failed
    sessions = sum(
        simulation.metrics.sends_by_host_kind(host, PacketKind.SESSION)
        for host in simulation.agents
    )
    assert sessions == 0
    for agent in simulation.agents.values():
        assert not agent.session_running
        assert agent.distances._heard is None
