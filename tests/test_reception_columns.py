"""Receivers as rows: the columnar in-order DATA path against the scalar one.

Under ``kernel="vector"`` a host that has only ever taken the next
in-order packet is a row of :class:`repro.net.columns.ReceptionColumns`;
anything else materialises the agent's own per-source state.  The python
kernel never consults a column, so it is the all-scalar oracle: every
case here runs the same job both ways (or column vs proxied-scalar on the
vector kernel) and compares the full run summary *and* every agent's
per-source state, in first-touch order.
"""

from __future__ import annotations

import json
import random

import pytest

import repro.harness.runner as runner
from repro.core.agent import CesrmAgent
from repro.exec.summary import RunSummary
from repro.faults import FaultPlan
from repro.faults.plan import NodeCrash, PacketDuplicate, PacketReorder
from repro.harness.config import SimulationConfig
from repro.harness.registry import PROTOCOLS, ProtocolSpec
from repro.metrics.collector import MetricsCollector
from repro.net.families import synthesize_topology_trace
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.srm.agent import SrmAgent
from repro.srm.constants import SrmParams
from repro.srm.state import SeqSet

from tests.helpers import two_subtrees

#: 36 receivers behind 6 stub routers; trace seed 0 draws no loss, trace
#: seed 4 draws 15 (12 distinct drop patterns).
SPEC = "transit_stub:transits=2,stubs=3,hosts=6,packets=12,loss=5e-3"
LOSSFREE_SEED = 0
LOSSY_SEED = 4


def _trace(seed: int, spec: str = SPEC):
    return synthesize_topology_trace(spec, seed=seed, max_packets=12)


def _config(kernel: str, **overrides) -> SimulationConfig:
    base = dict(seed=5, prime_distances=True, drain_time=2.0, kernel=kernel)
    base.update(overrides)
    return SimulationConfig(**base)


def _agent_rows(agent) -> list:
    """One agent's per-source state, sources in first-touch order."""
    rows = []
    for src in agent.known_sources():
        state = agent.source_state(src)
        rows.append(
            (
                src,
                state.stream.max_seq,
                sorted(state.stream.received),
                sorted(state.stream.ever_lost),
                state.stream.duplicates,
                sorted(state.request_states),
            )
        )
    return rows


def _snapshot(simulation) -> dict:
    return {host: _agent_rows(agent) for host, agent in simulation.agents.items()}


def _run(trace, protocol, config, monkeypatch, prepare=None, **kwargs):
    """``run_trace`` with the built simulation captured (and optionally
    prepared): returns (summary JSON, agent snapshot, kernel stats)."""
    real_build = runner.build_simulation
    captured = {}

    def build(*args, **kw):
        simulation = captured["simulation"] = real_build(*args, **kw)
        if prepare is not None:
            prepare(simulation)
        return simulation

    monkeypatch.setattr(runner, "build_simulation", build)
    try:
        result = runner.run_trace(trace, protocol, config, **kwargs)
    finally:
        monkeypatch.setattr(runner, "build_simulation", real_build)
    simulation = captured["simulation"]
    stats = simulation.network.kernel_stats()  # before the snapshot reads
    summary = RunSummary.from_result(result)
    summary.wall_time = 0.0
    summary.config.pop("kernel", None)
    return summary.to_json(), _snapshot(simulation), stats


def _assert_vector_equals_python(trace, protocol, monkeypatch, config=None, **kwargs):
    config = config or {}
    expected = _run(trace, protocol, _config("python", **config), monkeypatch, **kwargs)
    got = _run(trace, protocol, _config("vector", **config), monkeypatch, **kwargs)
    assert got[0] == expected[0], "summaries differ"
    assert got[1] == expected[1], "agent per-source state differs"
    assert "column_deliveries" not in expected[2]  # the all-scalar oracle
    return got[2]


class _Proxy:
    """The bench's pass-through: stands between the network and an agent."""

    def __init__(self, agent) -> None:
        self._receive = agent.receive

    def receive(self, packet) -> None:
        self._receive(packet)


def _proxy_every_host(simulation) -> None:
    for host, agent in simulation.agents.items():
        simulation.network.attach(host, _Proxy(agent))


# ----------------------------------------------------------------------
# (a) proxied hosts are scalar hosts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace_seed", [LOSSFREE_SEED, LOSSY_SEED])
@pytest.mark.parametrize("protocol", ["srm", "cesrm"])
def test_proxied_run_equals_column_run(protocol, trace_seed, monkeypatch):
    trace = _trace(trace_seed)
    config = _config("vector")
    column = _run(trace, protocol, config, monkeypatch)
    proxied = _run(trace, protocol, config, monkeypatch, prepare=_proxy_every_host)
    assert proxied[:2] == column[:2]
    assert proxied[2]["column_deliveries"] == 0
    assert column[2]["column_deliveries"] > 0
    for stats in (column[2], proxied[2]):
        delivered = stats["column_deliveries"] + stats["scalar_deliveries"]
        assert delivered == proxied[2]["scalar_deliveries"]


def test_proxy_attached_mid_stream_hands_the_count_over(monkeypatch):
    """Attached after packets were counted, the proxy's agent materialises
    from the row — nothing received so far is forgotten or re-detected."""
    trace = _trace(LOSSFREE_SEED)
    config = _config("vector")

    def prepare(simulation):
        mid = config.transmission_start + 5.5 * trace.trace.period
        simulation.sim.schedule_at(mid, _proxy_every_host, simulation)

    def outcome(run):
        summary = json.loads(run[0])
        summary.pop("events_processed")  # the attaching event is one more
        return summary, run[1]

    column = _run(trace, "cesrm", config, monkeypatch)
    proxied = _run(trace, "cesrm", config, monkeypatch, prepare=prepare)
    assert outcome(proxied) == outcome(column)
    assert 0 < proxied[2]["column_deliveries"] < column[2]["column_deliveries"]


# ----------------------------------------------------------------------
# (b) membership churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["srm", "cesrm"])
def test_churn_joins_grow_the_columns(protocol, monkeypatch):
    """Joins after the primary source's column exists (the node index
    grows under it) and leaves of counted hosts."""
    start = _config("vector").transmission_start + 0.1  # packet 0 is out
    churn = f"churn:rate=8,leave=0.4,start={start},until=6s,floor=20"
    stats = _assert_vector_equals_python(
        _trace(LOSSFREE_SEED), protocol, monkeypatch, churn=churn
    )
    assert stats["column_deliveries"] > 0


def _tiny_world(kernel: str, agent_cls=SrmAgent):
    sim = Simulator()
    tree = two_subtrees()
    network = Network(sim, tree, kernel=kernel)
    metrics = MetricsCollector()

    def make(host: str):
        kwargs = dict(
            sim=sim, network=network, host_id=host, source=tree.source,
            params=SrmParams(), rng=random.Random(7), metrics=metrics,
        )
        if issubclass(agent_cls, CesrmAgent):
            kwargs["policy"] = "most-recent"
        return agent_cls(**kwargs)

    agents = {host: make(host) for host in tree.hosts}
    for agent in agents.values():
        agent.distances.get_or = lambda peer, default: 0.04
    return sim, network, agents, make


@pytest.mark.parametrize("kernel", ["python", "vector"])
def test_leave_and_rejoin_of_the_same_name_starts_from_zero(kernel):
    """A rejoin reuses the node id with a fresh agent: its row must read
    0 packets, not the departed agent's count."""
    sim, network, agents, make = _tiny_world(kernel)
    source = agents["s"]
    for seq in range(3):
        sim.schedule_at(0.1 * seq, source.send_data, seq)
    sim.run(until=1.0)
    departed = agents["r1"]
    departed.fail()
    network.detach_subtree("r1")
    assert departed.stream.max_seq == 2  # handed over on the way out
    network.attach_receiver("r1", "x1")
    rejoined = agents["r1"] = make("r1")
    for seq in range(3, 6):
        sim.schedule_at(1.1 + 0.1 * (seq - 3), source.send_data, seq)
    sim.run(until=1.19)  # packet 3 delivered, its request timers pending
    # Packet 3 is the rejoiner's first: a gap from 0, not an in-order hit.
    assert sorted(rejoined.stream.received) == [3]
    assert rejoined.unrecovered_losses() == [0, 1, 2]
    assert sorted(departed.stream.received) == [0, 1, 2]
    sim.run(until=30.0)
    assert sorted(rejoined.stream.received) == [0, 1, 2, 3, 4, 5]
    assert sorted(agents["r2"].stream.received) == [0, 1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# (c) crashes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["srm", "cesrm"])
def test_no_data_reaches_a_failed_host_through_the_column(protocol, monkeypatch):
    trace = _trace(LOSSFREE_SEED)
    start = _config("vector").transmission_start
    period = trace.trace.period
    victim = trace.trace.tree.receivers[7]
    plan = FaultPlan(
        events=(
            NodeCrash(host=victim, at=start + 3.5 * period, restart_after=4 * period),
        )
    )
    stats = _assert_vector_equals_python(trace, protocol, monkeypatch, faults=plan)
    assert stats["column_deliveries"] > 0


def test_failed_host_row_goes_dark():
    sim, network, agents, _ = _tiny_world("vector")
    source = agents["s"]
    for seq in range(4):
        sim.schedule_at(0.1 * seq, source.send_data, seq)
    sim.run(until=0.15)
    agents["r3"].fail()
    sim.run(until=1.0)
    assert agents["r3"].stream.max_seq == 0
    assert agents["r4"].stream.max_seq == 3
    stats = network.kernel_stats()
    # 4 packets x 4 receivers, minus the 3 the failed host never took;
    # packet_delivered still counts them (receive() drops them itself).
    assert stats["column_deliveries"] == 13
    assert stats["scalar_deliveries"] == 3


# ----------------------------------------------------------------------
# (d) duplicates, gaps, late data
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["srm", "cesrm"])
def test_duplication_and_reordering_plans_match_python(protocol, monkeypatch):
    """Stochastic hop rules hook every wave for the whole run, so these
    runs deliver through ``receive`` — the counters must say so."""
    trace = _trace(LOSSFREE_SEED)
    start = _config("vector").transmission_start
    period = trace.trace.period
    plan = FaultPlan(
        events=(
            PacketDuplicate(rate=0.2, start=start + 2 * period, end=start + 6 * period),
            PacketReorder(
                rate=0.2, max_delay=1.5 * period,
                start=start + 4 * period, end=start + 9 * period,
            ),
        )
    )
    stats = _assert_vector_equals_python(trace, protocol, monkeypatch, faults=plan)
    assert stats["column_deliveries"] == 0 and stats["hooked_waves"] > 0


@pytest.mark.parametrize("agent_cls", [SrmAgent, CesrmAgent])
def test_duplicate_gap_and_late_data_leave_the_column(agent_cls):
    """Counted hosts meet, in turn, a duplicate, a gap and the late
    packet that fills it: each is handled by the agent, as under python."""
    outcomes = {}
    for kernel in ("python", "vector"):
        sim, network, agents, _ = _tiny_world(kernel, agent_cls)
        source = agents["s"]
        for at, seq in ((0.0, 0), (0.1, 1), (0.2, 1), (0.3, 3), (0.35, 2), (0.5, 4)):
            sim.schedule_at(at, source.send_data, seq)
        sim.run(until=0.19)
        on_column = network.kernel_stats().get("column_deliveries")
        sim.run(until=5.0)
        receiver = agents["r2"]
        assert receiver.stream.duplicates == 1
        assert sorted(receiver.stream.ever_lost) == [2]
        assert receiver.metrics.late_arrivals["r2"] == 1
        outcomes[kernel] = (
            {host: _agent_rows(agent) for host, agent in agents.items()},
            sim.events_processed,
            network.packets_delivered,
        )
        if kernel == "vector":
            assert on_column == 8  # packets 0 and 1 at four receivers
            assert network.kernel_stats()["column_deliveries"] == 8
    assert outcomes["vector"] == outcomes["python"]


@pytest.mark.parametrize("protocol", ["srm", "cesrm", "cesrm-router", "lms"])
def test_lossy_trace_matches_python(protocol, monkeypatch):
    stats = _assert_vector_equals_python(_trace(LOSSY_SEED), protocol, monkeypatch)
    assert stats["column_deliveries"] > 0 and stats["scalar_deliveries"] > 0


# ----------------------------------------------------------------------
# (e) several sources, sessions on: first-touch order is digest material
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace_seed", [LOSSFREE_SEED, LOSSY_SEED])
@pytest.mark.parametrize("protocol", ["srm", "cesrm"])
def test_multi_source_with_sessions_on(protocol, trace_seed, monkeypatch):
    _assert_vector_equals_python(
        _trace(trace_seed), protocol, monkeypatch,
        config=dict(prime_distances=False),
        workload="multi_source:senders=4",
    )


@pytest.mark.parametrize("protocol", ["srm", "cesrm"])
def test_multi_source_primed_keeps_first_touch_order(protocol, monkeypatch):
    """Sessions off, so hosts stay on four columns at once; the snapshot
    compares the order in which each host first heard each sender."""
    stats = _assert_vector_equals_python(
        _trace(LOSSY_SEED), protocol, monkeypatch,
        workload="multi_source:senders=4",
    )
    assert stats["column_deliveries"] > 0


def test_drain_is_in_first_touch_order_not_column_order():
    """Two senders; r1 hears s first, r4 hears r3's stream first."""
    sim, network, agents, _ = _tiny_world("vector")
    sim.schedule_at(0.00, agents["r3"].send_data, 0)
    sim.schedule_at(0.01, agents["s"].send_data, 0)
    sim.run(until=1.0)
    assert network.kernel_stats()["scalar_deliveries"] == 0
    assert agents["r4"].known_sources() == ["r3", "s"]
    assert agents["r1"].known_sources() == ["s", "r3"]
    assert agents["r3"].known_sources() == ["r3", "s"]


@pytest.mark.parametrize("agent_cls", [SrmAgent, CesrmAgent])
def test_report_naming_two_counted_sources_keeps_both_counts(agent_cls):
    """Two senders interleave short streams; r2 and r4 are still rows of
    both columns when r1's first session report names both sources.  The
    first source looked up drains every row of the host, and the second
    must then be found in the adopted state, not handed over again (which
    would forget its count and re-detect its packets as lost)."""
    outcomes = {}
    for kernel in ("python", "vector"):
        sim, network, agents, _ = _tiny_world(kernel, agent_cls)
        for seq in range(3):
            sim.schedule_at(0.1 * seq, agents["s"].send_data, seq)
            sim.schedule_at(0.1 * seq + 0.05, agents["r3"].send_data, seq)
        sim.run(until=0.5)
        if kernel == "vector":
            assert network.kernel_stats()["scalar_deliveries"] == 0
        agents["r1"].start()
        sim.run(until=1.2)
        for host in ("r2", "r4"):
            assert agents[host].unrecovered_losses() == []
            assert sorted(agents[host].source_state("r3").stream.received) == [0, 1, 2]
            assert not agents[host].source_state("r3").stream.ever_lost
        outcomes[kernel] = (
            {host: _agent_rows(agent) for host, agent in agents.items()},
            sim.events_processed,
            network.packets_delivered,
        )
    assert outcomes["vector"] == outcomes["python"]


# ----------------------------------------------------------------------
# (f) a subclass with its own DATA path is delivered to
# ----------------------------------------------------------------------
def test_subclass_overriding_the_data_path_sees_every_packet(monkeypatch):
    seen = []

    class Watcher(SrmAgent):
        def _on_packet_obtained(self, src, seq):
            seen.append((self.host_id, seq))

    class Bystander(SrmAgent):
        """Overrides nothing on the DATA path: rides the column."""

    trace = _trace(LOSSFREE_SEED)
    receivers = len(trace.trace.tree.receivers)
    PROTOCOLS.register(ProtocolSpec(name="watcher", agent_cls=Watcher))
    PROTOCOLS.register(ProtocolSpec(name="bystander", agent_cls=Bystander))
    try:
        config = _config("vector")
        watched = _run(trace, "watcher", config, monkeypatch)
        assert len(seen) == 12 * receivers
        assert watched[2]["column_deliveries"] == 0
        plain = _run(trace, "bystander", config, monkeypatch)
        assert plain[2]["scalar_deliveries"] == 0
        assert watched[1] == plain[1]
    finally:
        PROTOCOLS.unregister("watcher")
        PROTOCOLS.unregister("bystander")


# ----------------------------------------------------------------------
# (g) the invariant monitor reads through the columns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace_seed", [LOSSFREE_SEED, LOSSY_SEED])
def test_monitor_view_equals_scalar_run(trace_seed, monkeypatch):
    checks = {}

    def prepare(simulation):
        checks[simulation.config.kernel] = simulation.monitor

    _assert_vector_equals_python(
        _trace(trace_seed), "cesrm", monkeypatch,
        config=dict(verify_period=0.05), prepare=prepare,
    )
    assert checks["vector"].checks_run == checks["python"].checks_run > 0


# ----------------------------------------------------------------------
# Delivery counters (the attribution handle for the columnar path)
# ----------------------------------------------------------------------
def test_loss_free_primed_run_is_all_column_deliveries(monkeypatch):
    spec = "transit_stub:transits=2,stubs=5,hosts=20,packets=8,loss=1e-9"
    trace = synthesize_topology_trace(spec, seed=0, max_packets=8)
    _, _, stats = _run(trace, "cesrm", _config("vector"), monkeypatch)
    assert stats["scalar_deliveries"] == 0
    assert stats["column_deliveries"] == 8 * len(trace.trace.tree.receivers)


def test_lossy_run_uses_both_paths_and_they_sum(monkeypatch):
    # The bench's quick ``lossy_scale`` shape at the trace seed that
    # draws losses on it (seed 8, the bench's, draws none at this size).
    spec = "transit_stub:transits=2,stubs=5,hosts=10,packets=10,loss=2e-3"
    trace = synthesize_topology_trace(spec, seed=0, max_packets=10)
    assert trace.trace.total_losses > 0
    captured = {}
    _, _, stats = _run(
        trace, "cesrm", _config("vector", cache="paper:capacity=16"), monkeypatch,
        prepare=lambda simulation: captured.update(network=simulation.network),
    )
    assert stats["column_deliveries"] > 0 and stats["scalar_deliveries"] > 0
    assert (
        stats["column_deliveries"] + stats["scalar_deliveries"]
        == captured["network"].packets_delivered
    )


def test_python_kernel_has_no_columns():
    _, network, agents, _ = _tiny_world("python")
    assert network.kernel_stats() == {"entries": 0, "arrivals": 0}
    assert network.hand_over(agents["r1"], "s") == (("s", 0),)
    assert network.hand_over(agents["r1"], None) == ()


# ----------------------------------------------------------------------
# Scale (slow): 2 000 receivers on the numpy executor, column vs python kernel
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize(
    ("loss", "trace_seed", "losses"), [("1e-9", 0, 0), ("2e-4", 3, 9)]
)
def test_two_thousand_receivers_match_python(loss, trace_seed, losses, monkeypatch):
    spec = f"transit_stub:transits=8,stubs=25,hosts=10,packets=8,loss={loss}"
    trace = synthesize_topology_trace(spec, seed=trace_seed, max_packets=8)
    assert len(trace.trace.tree.receivers) == 2000
    assert trace.trace.total_losses == losses
    stats = _assert_vector_equals_python(trace, "cesrm", monkeypatch)
    assert stats["numpy_waves"] > 0 and stats["column_deliveries"] > 0
    assert (stats["scalar_deliveries"] > 0) == (losses > 0)


# ----------------------------------------------------------------------
# SeqSet.prefix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 7, 8, 9, 4097])
def test_seqset_prefix_equals_the_add_built_set(n):
    prefix = SeqSet.prefix(n)
    built = SeqSet(range(n))
    assert len(prefix) == n
    assert bool(prefix) == (n > 0)
    assert list(prefix) == list(range(n))
    assert prefix == built and built == prefix
    assert prefix == set(range(n))
    assert (n - 1 in prefix) == (n > 0)
    assert n not in prefix and n + 8 not in prefix and -1 not in prefix
    prefix.add(n + 3)  # still an ordinary, growable set afterwards
    built.add(n + 3)
    assert prefix == built and len(prefix) == n + 1
