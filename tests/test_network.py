"""Unit tests for packet delivery over the tree."""

import pytest

from repro.net.network import Network
from repro.net.packet import Cast, Packet, PacketKind
from repro.sim.engine import Simulator

from tests.helpers import deep_tree, drop_hops, line_tree, two_subtrees


class Sink:
    """A trivial agent that records (time, packet) deliveries."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.received: list[tuple[float, Packet]] = []

    def receive(self, packet: Packet) -> None:
        self.received.append((self.sim.now, packet))


def build(tree):
    sim = Simulator()
    network = Network(sim, tree, propagation_delay=0.020)
    sinks = {host: Sink(sim) for host in tree.hosts}
    for host, sink in sinks.items():
        network.attach(host, sink)
    return sim, network, sinks


def control_packet(origin: str, kind=PacketKind.RQST, seqno=0) -> Packet:
    return Packet(kind=kind, origin=origin, source="s", seqno=seqno, size_bytes=0)


def payload_packet(origin: str, kind=PacketKind.DATA, seqno=0) -> Packet:
    return Packet(kind=kind, origin=origin, source="s", seqno=seqno, size_bytes=1024)


class TestMulticast:
    def test_reaches_every_other_host(self):
        sim, network, sinks = build(two_subtrees())
        network.multicast(control_packet("r1"))
        sim.run()
        for host, sink in sinks.items():
            if host == "r1":
                assert sink.received == []
            else:
                assert len(sink.received) == 1

    def test_control_delivery_time_is_hops_times_propagation(self):
        sim, network, sinks = build(two_subtrees())
        network.multicast(control_packet("s"))
        sim.run()
        for receiver in ("r1", "r2", "r3", "r4"):
            (when, _), = sinks[receiver].received
            assert when == pytest.approx(3 * 0.020)

    def test_payload_delivery_includes_transmission_per_hop(self):
        sim, network, sinks = build(line_tree())
        network.multicast(payload_packet("s"))
        sim.run()
        tx = 1024 * 8 / 1.5e6
        (when, _), = sinks["r1"].received
        assert when == pytest.approx(2 * (tx + 0.020))

    def test_multicast_from_receiver_reaches_source(self):
        sim, network, sinks = build(deep_tree())
        network.multicast(control_packet("r1"))
        sim.run()
        (when, _), = sinks["s"].received
        assert when == pytest.approx(4 * 0.020)

    def test_crossings_count_every_link_once(self):
        sim, network, _ = build(two_subtrees())
        network.multicast(control_packet("s"))
        sim.run()
        # flood from the source crosses each of the 7 links exactly once
        assert network.crossings.total() == 7

    def test_crossings_from_leaf_also_cover_tree(self):
        sim, network, _ = build(two_subtrees())
        network.multicast(control_packet("r1"))
        sim.run()
        assert network.crossings.total() == 7


class TestUnicast:
    def test_delivers_only_to_destination(self):
        sim, network, sinks = build(two_subtrees())
        network.unicast("r3", control_packet("r1", kind=PacketKind.ERQST))
        sim.run()
        assert len(sinks["r3"].received) == 1
        for host in ("s", "r2", "r4"):
            assert sinks[host].received == []

    def test_latency_is_path_hops(self):
        sim, network, sinks = build(two_subtrees())
        network.unicast("r3", control_packet("r1", kind=PacketKind.ERQST))
        sim.run()
        (when, _), = sinks["r3"].received
        assert when == pytest.approx(4 * 0.020)

    def test_cost_is_path_length(self):
        sim, network, _ = build(two_subtrees())
        network.unicast("r3", control_packet("r1", kind=PacketKind.ERQST))
        sim.run()
        assert network.crossings.total() == 4

    def test_unicast_to_self_rejected(self):
        _, network, _ = build(line_tree())
        with pytest.raises(ValueError):
            network.unicast("r1", control_packet("r1"))

    def test_cast_is_stamped(self):
        sim, network, sinks = build(line_tree())
        network.unicast("r2", control_packet("r1", kind=PacketKind.ERQST))
        sim.run()
        (_, packet), = sinks["r2"].received
        assert packet.cast is Cast.UNICAST


class TestSubcast:
    def test_reaches_only_subtree(self):
        sim, network, sinks = build(two_subtrees())
        reply = payload_packet("s", kind=PacketKind.EREPL)
        network.unicast_then_subcast("x1", reply)
        sim.run()
        assert len(sinks["r1"].received) == 1
        assert len(sinks["r2"].received) == 1
        assert sinks["r3"].received == []
        assert sinks["r4"].received == []

    def test_replier_inside_subtree(self):
        sim, network, sinks = build(two_subtrees())
        reply = payload_packet("r1", kind=PacketKind.EREPL)
        network.unicast_then_subcast("x1", reply)
        sim.run()
        # travels r1 -> x1, then subcast down to r1 and r2; r1 is the
        # origin so only r2 gets a delivery
        assert len(sinks["r2"].received) == 1
        assert sinks["r1"].received == []

    def test_turning_point_is_origin(self):
        sim, network, sinks = build(two_subtrees())
        # degenerate: subcast from a router equal to the path start
        reply = payload_packet("s", kind=PacketKind.EREPL)
        reply.origin = "x1"  # pretend injected at the router
        network.unicast_then_subcast("x1", reply)
        sim.run()
        assert len(sinks["r1"].received) == 1
        assert len(sinks["r2"].received) == 1

    def test_cost_is_unicast_plus_subtree(self):
        sim, network, _ = build(two_subtrees())
        reply = payload_packet("s", kind=PacketKind.EREPL)
        network.unicast_then_subcast("x1", reply)
        sim.run()
        # s->x0->x1 (2 links) + x1->r1, x1->r2 (2 links)
        assert network.crossings.total() == 4

    def test_turning_point_recorded_on_packet(self):
        sim, network, sinks = build(two_subtrees())
        reply = payload_packet("s", kind=PacketKind.EREPL)
        network.unicast_then_subcast("x1", reply)
        sim.run()
        (_, packet), = sinks["r1"].received
        assert packet.turning_point == "x1"
        assert packet.cast is Cast.SUBCAST


class TestLossInjection:
    def test_drop_on_link_prunes_subtree(self):
        sim, network, sinks = build(two_subtrees())
        drop_hops(network, lambda u, v, p: (u, v) == ("x0", "x1"))
        network.multicast(control_packet("s"))
        sim.run()
        assert sinks["r1"].received == []
        assert sinks["r2"].received == []
        assert len(sinks["r3"].received) == 1
        assert network.packets_dropped == 1

    def test_drop_applies_per_direction(self):
        sim, network, sinks = build(line_tree())
        drop_hops(network, lambda u, v, p: (u, v) == ("x1", "s"))
        network.multicast(control_packet("r1"))
        sim.run()
        assert sinks["s"].received == []
        assert len(sinks["r2"].received) == 1

    def test_drop_rule_sees_packet(self):
        sim, network, sinks = build(line_tree())
        drop_hops(network, lambda u, v, p: p.seqno == 7)
        network.multicast(control_packet("s", seqno=7))
        network.multicast(control_packet("s", seqno=8))
        sim.run()
        assert [p.seqno for _, p in sinks["r1"].received] == [8]


class TestAccounting:
    def test_crossings_by_kind_and_cast(self):
        sim, network, _ = build(line_tree())
        network.multicast(control_packet("r1", kind=PacketKind.RQST))
        network.unicast("r2", control_packet("r1", kind=PacketKind.ERQST))
        network.multicast(payload_packet("r2", kind=PacketKind.REPL))
        sim.run()
        crossings = network.crossings
        assert crossings.multicast_control_crossings == 3
        assert crossings.unicast_control_crossings == 2
        assert crossings.retransmission_crossings == 3
        assert crossings.by_kind(PacketKind.RQST) == 3
        assert crossings.by_cast(Cast.UNICAST) == 2

    def test_snapshot_keys(self):
        sim, network, _ = build(line_tree())
        network.multicast(control_packet("s", kind=PacketKind.SESSION))
        sim.run()
        assert network.crossings.snapshot() == {("session", "multicast"): 3}

    def test_rtt_helpers(self):
        _, network, _ = build(two_subtrees())
        assert network.control_delay("s", "r1") == pytest.approx(0.060)
        assert network.rtt("s", "r1") == pytest.approx(0.120)


class TestAttachment:
    def test_attach_at_router_rejected(self):
        _, network, _ = build(line_tree())
        with pytest.raises(ValueError):
            network.attach("x1", Sink(Simulator()))

    def test_unicast_to_agentless_host_raises(self):
        tree = line_tree()
        sim = Simulator()
        network = Network(sim, tree)
        sink = Sink(sim)
        network.attach("r1", sink)
        network.unicast("r2", control_packet("r1", kind=PacketKind.ERQST))
        with pytest.raises(RuntimeError):
            sim.run()

    def test_queueing_serializes_payload_bursts(self):
        sim, network, sinks = build(line_tree())
        for seq in range(3):
            network.multicast(payload_packet("s", seqno=seq))
        sim.run()
        times = [when for when, _ in sinks["r1"].received]
        tx = 1024 * 8 / 1.5e6
        assert times[0] == pytest.approx(2 * (tx + 0.020))
        # subsequent packets queue behind the first on each hop
        assert times[1] == pytest.approx(times[0] + tx)
        assert times[2] == pytest.approx(times[0] + 2 * tx)
