"""Sibling runs: one engine entry per run of same-instant hops of a flood.

On the python kernel a flood's forwarding loop crosses every outgoing
link as it always did, but consecutive hops that land on the same
arrival instant share one engine entry (``Network._flood_arrival`` with a
list of nodes).  The reference every case here compares to is
:class:`PerHopNetwork`, the flood as it was before: one entry per hop,
each crossed by ``Network._transmit`` — which still serves unicast and
subcast, so the reference's per-edge step is live code, not a copy.

What is compared is what a run can observe: the full ``RunSummary``
(``events_processed``, ``packets_delivered`` and the crossings are in
it), the delivery log of bare sinks with times, the trace-event stream,
and the ``RecoveryTimeline`` folded from it.
"""

from __future__ import annotations

import pytest

import repro.harness.runner as runner
from repro.exec.summary import RunSummary
from repro.faults import FaultPlan
from repro.faults.inject import HopEffect
from repro.faults.plan import LinkDown, PacketDuplicate, PacketReorder
from repro.harness.config import SimulationConfig
from repro.net.families import synthesize_topology_trace
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.net.topology import MulticastTree
from repro.obs import RecoveryTimeline, RingBufferSink, Tracer
from repro.sim.engine import Simulator

from tests.helpers import drop_hops, make_synthetic


class PerHopNetwork(Network):
    """The flood before sibling runs: every hop its own engine entry."""

    def _flood_arrival(self, nodes, from_node, packet, slot, arrived=True):
        (node,) = nodes
        if arrived:
            self._flood_entries += 1
            self._flood_arrivals += 1
            agent = self._agents_by_id[node]
            if agent is not None:
                self._deliver(node, agent, packet)
        for record in self._adj[node]:
            to = record[0]
            if to != from_node:
                self._transmit(
                    record, packet, slot, self._flood_arrival,
                    ((to,), node, packet, slot),
                )


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def _run(
    trace, protocol, config, monkeypatch, network_cls=Network, prepare=None, **kwargs
):
    """``run_trace`` over ``network_cls``, ``prepare(simulation)`` called
    on the built simulation: (summary JSON, the simulation)."""
    real_build = runner.build_simulation
    captured = {}

    def build(*args, **kw):
        simulation = captured["simulation"] = real_build(*args, **kw)
        if prepare is not None:
            prepare(simulation)
        return simulation

    with monkeypatch.context() as patch:
        patch.setattr(runner, "Network", network_cls)
        patch.setattr(runner, "build_simulation", build)
        result = runner.run_trace(trace, protocol, config, **kwargs)
    summary = RunSummary.from_result(result)
    summary.wall_time = 0.0
    return summary.to_json(), captured["simulation"]


def _chain_trace():
    """s - x1 - x2 - r1: no node ever has two onward hops."""
    tree = MulticastTree("s", {"x1": "s", "x2": "x1", "r1": "x2"}, ["r1"])
    return make_synthetic(
        tree, 30, 0.08, {7: frozenset({("x2", "r1")}), 19: frozenset({("s", "x1")})}
    )


#: (trace, protocol, config) per world; the last is ``session_mesh`` at
#: the benchmark's ``--quick`` size.
WORLDS = {
    "tree": lambda: (
        synthesize_topology_trace(
            "tree:depth=3,fanout=4,packets=40,loss=0.02", seed=3, max_packets=40
        ),
        "cesrm",
        SimulationConfig(seed=2, drain_time=3.0),
    ),
    "chain": lambda: (_chain_trace(), "srm", SimulationConfig(seed=2, drain_time=3.0)),
    "session_mesh": lambda: (
        synthesize_topology_trace(
            "transit_stub:transits=2,stubs=2,hosts=5,packets=40,loss=1e-3",
            seed=1, max_packets=40,
        ),
        "cesrm",
        SimulationConfig(seed=1, drain_time=2.0, cache="paper:capacity=16"),
    ),
}


@pytest.mark.parametrize("world", list(WORLDS))
def test_run_equals_the_per_hop_reference(world, monkeypatch):
    trace, protocol, config = WORLDS[world]()
    expected, reference = _run(trace, protocol, config, monkeypatch, PerHopNetwork)
    got, simulation = _run(trace, protocol, config, monkeypatch)
    assert got == expected
    assert simulation.sim.events_processed == reference.sim.events_processed
    assert simulation.network.packets_delivered == reference.network.packets_delivered
    assert simulation.network.crossings.snapshot() == reference.network.crossings.snapshot()

    stats = simulation.network.kernel_stats()
    per_hop = reference.network.kernel_stats()
    assert per_hop["entries"] == per_hop["arrivals"] == stats["arrivals"]
    if world == "chain":
        assert stats["arrivals"] == stats["entries"]  # every run has length 1
    elif world == "session_mesh":
        assert stats["arrivals"] / stats["entries"] > 3
    else:
        assert stats["arrivals"] > stats["entries"]


def _cut_last_receiver(tree) -> LinkDown:
    cut = tree.receivers[-1]
    return LinkDown(tree.parent(cut), cut, at=4.0, duration=1.5)


#: fault -> the plan's one event, given the tree.
FAULTS = {
    "duplicate": lambda tree: PacketDuplicate(rate=0.1, start=1.0),
    "extra_delay": lambda tree: PacketReorder(rate=0.1, max_delay=0.015, start=1.0),
    "link_down": _cut_last_receiver,
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_faulted_traced_run_equals_the_per_hop_reference(fault, monkeypatch):
    """Hop rules that duplicate, delay and block, with a ring tracer
    attached: the same event stream, loss stories and summary."""
    trace, protocol, config = WORLDS["tree"]()
    plan = FaultPlan(events=(FAULTS[fault](trace.trace.tree),))

    def traced(network_cls):
        ring = RingBufferSink()
        summary, simulation = _run(
            trace, protocol, config, monkeypatch, network_cls,
            tracer=Tracer(ring), faults=plan,
        )
        return summary, [event.to_dict() for event in ring.events], simulation

    expected, expected_events, reference = traced(PerHopNetwork)
    got, events, simulation = traced(Network)
    assert events == expected_events
    assert got == expected
    assert (
        RecoveryTimeline.from_events(events).describe()
        == RecoveryTimeline.from_events(expected_events).describe()
    )
    counters = ("packets_duplicated", "packets_delayed", "packets_blocked")
    seen = {name: getattr(simulation.faults, name) for name in counters}
    assert seen == {name: getattr(reference.faults, name) for name in counters}
    assert any(seen.values()), "the plan never fired"


# ----------------------------------------------------------------------
# Bare networks: sinks, hand-placed traffic
# ----------------------------------------------------------------------
class Sink:
    def __init__(self, sim, host, log, on_receive=None):
        self.sim, self.host, self.log, self.on_receive = sim, host, log, on_receive

    def receive(self, packet):
        self.log.append((self.sim.now, self.host, packet.kind.value, packet.seqno))
        if self.on_receive is not None:
            self.on_receive(self.host)


def star(n=4):
    """s -> x -> r0..r{n-1}: x's onward hops are one run of n."""
    receivers = [f"r{i}" for i in range(n)]
    return MulticastTree("s", {"x": "s", **{r: "x" for r in receivers}}, receivers)


def build(tree, network_cls=Network, on_receive=None, kernel="python"):
    sim = Simulator()
    network = network_cls(sim, tree, kernel=kernel)
    log = []
    for host in tree.hosts:
        network.attach(host, Sink(sim, host, log, on_receive))
    return sim, network, log


def control(origin, seqno=0):
    return Packet(
        kind=PacketKind.SESSION, origin=origin, source=origin, seqno=seqno, size_bytes=0
    )


def payload(origin, seqno=0):
    return Packet(
        kind=PacketKind.DATA, origin=origin, source=origin, seqno=seqno, size_bytes=1024
    )


def both(scenario, tree_fn=star):
    """Run ``scenario(sim, network)`` on the reference and on the stock
    network: ((log, events, delivered, dropped) of each, the stock network)."""
    out = []
    for network_cls in (PerHopNetwork, Network):
        sim, network, log = build(tree_fn(), network_cls)
        scenario(sim, network)
        sim.run()
        out.append(
            (log, sim.events_processed, network.packets_delivered, network.packets_dropped)
        )
    return out[0], out[1], network


def test_a_sibling_run_is_one_entry():
    sim, network, log = build(star())
    network.multicast(control("s"))
    sim.run()
    assert [(t, host) for t, host, *_ in log] == [
        (pytest.approx(0.040), f"r{i}") for i in range(4)
    ]
    # s -> x is a run of one, x -> r0..r3 a run of four.
    assert network.kernel_stats() == {"entries": 2, "arrivals": 5}
    assert sim.events_processed == 5


def test_busy_link_starts_its_own_run():
    """A 1 KB DATA packet is in flight on x -> r1 when a control flood
    reaches x: r1's copy queues behind it and lands later, r0 and r2, r3
    keep their order and their instant."""

    def scenario(sim, network):
        network.unicast("r1", payload("s"))  # on x -> r1 from ~25.5 to ~30.9 ms
        sim.schedule_at(0.006, network.multicast, control("s", 1))  # at x at 26 ms

    expected, got, network = both(scenario)
    assert got == expected
    log = got[0]
    flood = [(t, host) for t, host, _kind, seqno in log if seqno == 1]
    on_time = [host for t, host in flood if t == pytest.approx(0.046)]
    late = [(t, host) for t, host in flood if t > 0.047]
    assert on_time == ["r0", "r2", "r3"]
    assert [host for _t, host in late] == ["r1"]
    # Flood entries: [x], then [r0], [r1], [r2, r3] — r1 split the run.
    assert network.kernel_stats() == {"entries": 4, "arrivals": 5}


def test_only_consecutive_hops_share_an_entry():
    """Hops on one instant that a slower hop separates stay two entries
    (in the order the per-hop kernel fired them), and the slower hop is
    not pulled onto their instant."""

    def scenario(sim, network):
        def delay_r1(u, v, packet):
            return HopEffect(extra_delay=0.005) if v == "r1" else None

        class Rules:  # the slice of FaultInjector the hop path reads
            _down = {}
            _rules_data_only = False
            on_hop = staticmethod(delay_r1)

        network.faults = Rules()
        network.multicast(control("s"))

    expected, got, network = both(scenario)
    assert got == expected
    assert [(round(t, 6), host) for t, host, *_ in got[0]] == [
        (0.04, "r0"), (0.04, "r2"), (0.04, "r3"), (0.045, "r1"),
    ]
    assert network.kernel_stats() == {"entries": 4, "arrivals": 5}


def test_duplicated_control_hop_rides_the_run():
    """A 0-byte duplicate lands on the original's instant: it is delivered
    twice, in place, and counted as two arrivals and two crossings."""

    def scenario(sim, network):
        class Rules:
            _down = {}
            _rules_data_only = False

            @staticmethod
            def on_hop(u, v, packet):
                return HopEffect(duplicate=True) if v == "r2" else None

        network.faults = Rules()
        network.multicast(control("s"))

    expected, got, network = both(scenario)
    assert got == expected
    assert [host for _t, host, *_ in got[0]] == ["r0", "r1", "r2", "r2", "r3"]
    assert network.kernel_stats() == {"entries": 2, "arrivals": 6}
    assert network.crossings.total() == 6


def test_hop_rule_sees_every_hop_of_a_run():
    """A plain hop rule runs the hooked loop on both kernels: it is
    consulted once per hop of the run, in hop order."""
    seen = []

    def scenario(sim, network):
        def lost(u, v, packet):
            seen.append((u, v))
            return v == "r1"

        drop_hops(network, lost)
        network.multicast(control("s"))

    expected, got, network = both(scenario)
    assert got == expected
    assert [host for _t, host, *_ in got[0]] == ["r0", "r2", "r3"]
    assert got[3] == 1  # packets_dropped
    hops = [("s", "x")] + [("x", f"r{i}") for i in range(4)]
    assert seen == hops + hops  # reference, then stock: same hops, same order
    assert network.crossings.total() == 5  # crossings count before loss


def test_agents_are_looked_up_at_arrival():
    """Between a run's crossing (20 ms) and its arrival (40 ms) r1 leaves
    the group and r2's agent is replaced: r1 gets nothing and is not
    counted, the replacement gets r2's copy."""
    replaced = []

    def scenario(sim, network):
        def churn():
            network.detach_subtree("r1")
            network.attach("r2", Sink(sim, "r2-new", replaced))

        network.multicast(control("s"))
        sim.schedule_at(0.030, churn)

    expected, got, _network = both(scenario)
    assert got == expected
    assert [host for _t, host, *_ in got[0]] == ["r0", "r3"]
    assert [host for _t, host, *_ in replaced] == ["r2-new", "r2-new"]  # both runs
    assert got[2] == 3  # packets_delivered: r0, r2's replacement, r3
    assert got[1] == 6  # events: 5 arrivals (r1's included) + the churn


def test_crashed_host_in_a_run_is_delivered_to_and_drops_it(monkeypatch):
    """A crash between crossing and arrival: the network still hands the
    packet over (and counts it); the failed agent drops it."""
    trace, protocol, config = WORLDS["tree"]()
    victim = trace.trace.tree.receivers[5]

    def crashed_run(network_cls):
        def crash_mid_flight(simulation):
            # 1 ms after a session flood left the source.
            simulation.sim.schedule_at(1.001, simulation.agents[victim].fail)

        return _run(
            trace, protocol, config, monkeypatch, network_cls, prepare=crash_mid_flight
        )

    expected, reference = crashed_run(PerHopNetwork)
    got, simulation = crashed_run(Network)
    assert got == expected
    assert simulation.agents[victim].failed
    assert simulation.network.packets_delivered == reference.network.packets_delivered


# ----------------------------------------------------------------------
# The engine steps by entries (as it does under the vector kernel)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["python", "vector"])
class TestEngineGranularityIsTheEntry:
    def test_until_between_two_instants(self, kernel):
        sim, network, log = build(star(), kernel=kernel)
        network.multicast(control("s"))
        sim.run(until=0.030)  # x heard it at 20 ms, the receivers have not
        assert log == [] and sim.events_processed == 1
        assert sim.now == 0.030
        sim.run()
        assert len(log) == 4 and sim.events_processed == 5

    def test_step_fires_a_whole_run(self, kernel):
        sim, network, log = build(star(), kernel=kernel)
        network.multicast(control("s"))
        assert sim.step() and log == [] and sim.events_processed == 1
        assert sim.step()
        assert [host for _t, host, *_ in log] == ["r0", "r1", "r2", "r3"]
        assert sim.events_processed == 5  # one entry, four arrivals
        assert not sim.step()

    def test_max_events_counts_entries(self, kernel):
        sim, network, log = build(star(), kernel=kernel)
        network.multicast(control("s"))
        sim.run(max_events=2)
        assert len(log) == 4 and sim.events_processed == 5

    def test_stop_inside_a_delivery_finishes_the_entry(self, kernel):
        sim = network = None

        def on_receive(host):
            if host == "r1":
                sim.stop()

        sim, network, log = build(star(), on_receive=on_receive, kernel=kernel)
        network.multicast(control("s", 1))
        network.multicast(control("r0", 2))  # lands on x, and on r1..r3, later
        sim.run()
        # r2 and r3 ride r1's entry; the other flood's entries have not fired.
        assert [(host, seqno) for _t, host, _k, seqno in log if seqno == 1] == [
            ("r0", 1), ("r1", 1), ("r2", 1), ("r3", 1),
        ]
        assert [seqno for *_rest, seqno in log].count(2) == 0
        assert sim.pending_events == 1
        sim.run()
        assert [seqno for *_rest, seqno in log].count(2) == 4  # s, r1, r2, r3

    def test_clear_inside_a_delivery_finishes_the_entry(self, kernel):
        sim = network = None

        def on_receive(host):
            if host == "r1":
                sim.clear()

        sim, network, log = build(star(), on_receive=on_receive, kernel=kernel)
        network.multicast(control("s", 1))
        network.multicast(control("r0", 2))
        sim.run()
        assert [(host, seqno) for _t, host, _k, seqno in log] == [
            ("r0", 1), ("r1", 1), ("r2", 1), ("r3", 1),
        ]
        assert sim.pending_events == 0
