"""Tests for the LMS comparator (§3.3's router-assisted protocol)."""

from repro.harness.config import SimulationConfig
from repro.harness.runner import build_simulation, run_trace
from repro.lms.agent import LmsAgent
from repro.lms.fabric import LmsFabric
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import PacketKind
from repro.sim.engine import Simulator
from repro.srm.constants import SrmParams
from repro.traces.synthesize import SynthesisParams, synthesize_trace

from tests.helpers import deep_tree, drop_hops, two_subtrees


class TestFabric:
    def test_repliers_are_closest_receivers(self):
        tree = two_subtrees()
        fabric = LmsFabric(tree)
        # x1's subtree holds r1, r2 at equal distance: lexicographic tie
        assert fabric.replier_of("x1") == "r1"
        assert fabric.replier_of("x2") == "r3"
        assert fabric.replier_of("x0") in ("r1", "r2", "r3", "r4")

    def test_source_elects_itself(self):
        tree = two_subtrees()
        assert LmsFabric(tree).replier_of(tree.source) == tree.source

    def test_route_diverts_at_first_foreign_replier(self):
        tree = two_subtrees()
        fabric = LmsFabric(tree)
        # r2's NACK: x1's replier is r1 (not in r2's own leaf subtree) ->
        # diverted at x1 toward r1
        assert fabric.route_request("r2") == ("x1", "r1")

    def test_designated_replier_climbs(self):
        tree = two_subtrees()
        fabric = LmsFabric(tree)
        # r1 IS x1's replier, so its NACK climbs to x0; x0's replier is r1
        # itself (in the same child subtree) -> climbs to the source
        turning_point, replier = fabric.route_request("r1")
        if fabric.replier_of("x0") == "r1":
            assert (turning_point, replier) == (tree.source, tree.source)
        else:
            assert turning_point == "x0"

    def test_deep_tree_routing(self):
        tree = deep_tree()
        fabric = LmsFabric(tree)
        for receiver in tree.receivers:
            turning_point, replier = fabric.route_request(receiver)
            assert replier != receiver
            # the turning point is an ancestor of the requestor
            assert turning_point == tree.source or tree.is_descendant(
                receiver, turning_point
            )

    def test_fail_host_leaves_stale_state(self):
        tree = two_subtrees()
        fabric = LmsFabric(tree)
        victim = fabric.replier_of("x1")
        fabric.fail_host(victim)
        assert "x1" in fabric.stale_routers()
        assert fabric.replier_of("x1") == victim  # stale, by design

    def test_redesignate_repairs_state(self):
        tree = two_subtrees()
        fabric = LmsFabric(tree)
        victim = fabric.replier_of("x1")
        fabric.fail_host(victim)
        fixed = fabric.redesignate()
        assert fixed >= 1
        assert fabric.replier_of("x1") != victim
        assert fabric.stale_routers() == []


def lms_world():
    """A hand-wired LMS world on two_subtrees."""
    import random

    tree = two_subtrees()
    sim = Simulator()
    network = Network(sim, tree)
    metrics = MetricsCollector()
    fabric = LmsFabric(tree)
    agents = {
        host: LmsAgent(
            sim=sim,
            network=network,
            host_id=host,
            source=tree.source,
            params=SrmParams(),
            rng=random.Random(7),
            metrics=metrics,
            fabric=fabric,
        )
        for host in tree.hosts
    }
    for index, host in enumerate(tree.hosts):
        agents[host].start(session_offset=(index + 0.5) / (len(tree.hosts) + 1))
    return sim, network, tree, agents, metrics, fabric


class TestLmsRecovery:
    def run_with_drop(self, drop):
        sim, network, tree, agents, metrics, fabric = lms_world()
        sim.run(until=3.0)

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            return (u, v) in drop.get(packet.seqno, ())

        drop_hops(network, lost)
        for seq in range(4):
            sim.schedule_at(3.0 + seq * 0.3, agents["s"].send_data, seq)
        sim.run(until=40.0)
        return agents, metrics, network

    def test_single_loss_recovered_locally(self):
        agents, metrics, network = self.run_with_drop({1: {("x1", "r2")}})
        assert agents["r2"].stream.has(1)
        # the repair was a subcast, not a group-wide multicast
        snapshot = network.crossings.snapshot()
        assert snapshot.get(("erepl", "subcast"), 0) > 0
        assert snapshot.get(("repl", "multicast"), 0) == 0
        assert snapshot.get(("rqst", "multicast"), 0) == 0

    def test_repair_does_not_reach_other_subtree(self):
        agents, metrics, network = self.run_with_drop({1: {("x1", "r2")}})
        # r2's NACK diverted at x1 to r1; subcast from x1 covers r1, r2 only
        assert 1 not in agents["r3"].reply_states
        assert 1 not in agents["r4"].reply_states

    def test_shared_subtree_loss_forwarded_upstream(self):
        agents, metrics, network = self.run_with_drop({1: {("x0", "x1")}})
        # both r1 and r2 lost packet 1; a replier outside x1 repaired it
        assert agents["r1"].stream.has(1)
        assert agents["r2"].stream.has(1)

    def test_whole_group_loss_repaired_by_source(self):
        agents, metrics, network = self.run_with_drop({2: {("s", "x0")}})
        for receiver in ("r1", "r2", "r3", "r4"):
            assert agents[receiver].stream.has(2), receiver

    def test_nack_retry_survives_transient_silence(self):
        """If the first NACK is lost, the exponential retry recovers."""
        sim, network, tree, agents, metrics, fabric = lms_world()
        sim.run(until=3.0)
        dropped = []

        def lost(u, v, packet):
            if packet.kind is PacketKind.DATA:
                return packet.seqno == 1 and (u, v) == ("x1", "r2")
            if packet.kind is PacketKind.ERQST and not dropped:
                dropped.append(packet)
                return True  # kill exactly the first NACK
            return False

        drop_hops(network, lost)
        for seq in range(4):
            sim.schedule_at(3.0 + seq * 0.3, agents["s"].send_data, seq)
        sim.run(until=60.0)
        assert dropped
        assert agents["r2"].stream.has(1)
        assert agents["r2"].nacks_sent >= 2


class TestLmsViaRunner:
    def synthetic(self):
        params = SynthesisParams(
            name="lms",
            n_receivers=6,
            tree_depth=4,
            period=0.05,
            n_packets=500,
            target_losses=300,
        )
        return synthesize_trace(params, seed=8)

    def test_full_reliability(self):
        result = run_trace(self.synthetic(), "lms")
        assert result.unrecovered_losses == 0

    def test_no_multicast_recovery_traffic(self):
        result = run_trace(self.synthetic(), "lms")
        assert result.metrics.total_sends(PacketKind.RQST) == 0
        assert result.metrics.total_sends(PacketKind.REPL) == 0
        assert result.metrics.total_sends(PacketKind.ERQST) > 0

    def test_fabric_exposed_on_simulation(self):
        simulation = build_simulation(self.synthetic(), "lms", SimulationConfig())
        assert simulation.fabric is not None
        simulation_srm = build_simulation(self.synthetic(), "srm", SimulationConfig())
        assert simulation_srm.fabric is None


class TestLmsChurnFragility:
    def test_stale_replier_stalls_recovery(self):
        """§3.3's claim: with a crashed designated replier and no router
        re-designation, losses behind that replier's router stall —
        whereas CESRM in the same scenario recovers everything."""
        sim, network, tree, agents, metrics, fabric = lms_world()
        sim.run(until=3.0)
        victim = fabric.replier_of("x1")  # r1
        other = "r2" if victim == "r1" else "r1"
        agents[victim].fail()
        fabric.fail_host(victim)  # recorded, but routers stay stale

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            return packet.seqno == 1 and (u, v) == ("x1", other)

        drop_hops(network, lost)
        for seq in range(3):
            sim.schedule_at(3.0 + seq * 0.3, agents["s"].send_data, seq)
        sim.run(until=20.0)
        # the NACKs keep going to the dead replier: recovery stalls
        assert not agents[other].stream.has(1)
        assert agents[other].unrecovered_losses() == [1]
        assert agents[other].nacks_sent >= 2

    def test_redesignation_unblocks_recovery(self):
        sim, network, tree, agents, metrics, fabric = lms_world()
        sim.run(until=3.0)
        victim = fabric.replier_of("x1")
        other = "r2" if victim == "r1" else "r1"
        agents[victim].fail()
        fabric.fail_host(victim)

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            return packet.seqno == 1 and (u, v) == ("x1", other)

        drop_hops(network, lost)
        for seq in range(3):
            sim.schedule_at(3.0 + seq * 0.3, agents["s"].send_data, seq)
        sim.schedule_at(8.0, fabric.redesignate)  # control plane catches up
        sim.run(until=60.0)
        assert agents[other].stream.has(1)
        assert agents[other].unrecovered_losses() == []
