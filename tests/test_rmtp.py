"""Tests for the simplified RMTP comparator."""

import random

from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import PacketKind
from repro.rmtp.agent import RmtpAgent
from repro.rmtp.fabric import RmtpFabric
from repro.sim.engine import Simulator
from repro.srm.constants import SrmParams
from repro.traces.synthesize import SynthesisParams, synthesize_trace

from tests.helpers import deep_tree, drop_hops, two_subtrees


class TestFabric:
    def test_regions_at_first_branching_point(self):
        tree = two_subtrees()  # s -> x0 -> {x1, x2}: regions rooted at x1, x2
        fabric = RmtpFabric(tree)
        assert set(fabric.designated) == {"x1", "x2"}
        assert fabric.designated["x1"] in ("r1", "r2")
        assert fabric.designated["x2"] in ("r3", "r4")

    def test_members_report_to_their_dr(self):
        tree = two_subtrees()
        fabric = RmtpFabric(tree)
        dr1 = fabric.designated["x1"]
        other = "r2" if dr1 == "r1" else "r1"
        assert fabric.status_parent(other) == dr1

    def test_dr_reports_to_sender(self):
        tree = two_subtrees()
        fabric = RmtpFabric(tree)
        for dr in fabric.designated_receivers():
            assert fabric.status_parent(dr) == tree.source

    def test_region_members(self):
        tree = two_subtrees()
        fabric = RmtpFabric(tree)
        dr1 = fabric.designated["x1"]
        member = "r2" if dr1 == "r1" else "r1"
        assert fabric.region_members(dr1) == [member]

    def test_chain_head_skipped(self):
        # deep_tree: s -> x1 -> {x2, r4}: first branching at x1
        tree = deep_tree()
        fabric = RmtpFabric(tree)
        assert set(fabric.designated) == {"x2", "r4"}

    def test_receiver_region_root(self):
        # a region root that IS a receiver designates itself
        tree = deep_tree()
        fabric = RmtpFabric(tree)
        assert fabric.designated["r4"] == "r4"
        assert fabric.status_parent("r4") == tree.source


def rmtp_world():
    tree = two_subtrees()
    sim = Simulator()
    network = Network(sim, tree)
    metrics = MetricsCollector()
    fabric = RmtpFabric(tree)
    agents = {
        host: RmtpAgent(
            sim=sim,
            network=network,
            host_id=host,
            source=tree.source,
            params=SrmParams(),
            rng=random.Random(5),
            metrics=metrics,
            fabric=fabric,
            status_period=0.2,
        )
        for host in tree.hosts
    }
    for index, host in enumerate(tree.hosts):
        agents[host].start(session_offset=(index + 0.5) / (len(tree.hosts) + 1))
    return sim, network, tree, agents, metrics, fabric


class TestRecovery:
    def run_with_drop(self, drop, n=5):
        sim, network, tree, agents, metrics, fabric = rmtp_world()
        sim.run(until=3.0)

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            return (u, v) in drop.get(packet.seqno, ())

        drop_hops(network, lost)
        for seq in range(n):
            sim.schedule_at(3.0 + seq * 0.3, agents["s"].send_data, seq)
        sim.run(until=40.0)
        return agents, metrics, network, fabric

    def test_member_loss_repaired_by_dr(self):
        agents, metrics, network, fabric = self.run_with_drop(
            {1: {("x1", "r2")}}
        )
        assert agents["r2"].stream.has(1)
        dr = fabric.status_parent("r2")
        assert metrics.sends_by_host_kind(dr, PacketKind.REPL) == 1

    def test_repairs_are_unicast(self):
        agents, metrics, network, fabric = self.run_with_drop({1: {("x1", "r2")}})
        snapshot = network.crossings.snapshot()
        assert snapshot.get(("repl", "unicast"), 0) > 0
        assert snapshot.get(("repl", "multicast"), 0) == 0
        assert snapshot.get(("rqst", "multicast"), 0) == 0

    def test_dr_shared_loss_escalates_to_sender(self):
        # the whole x1 region loses the packet, DR included
        agents, metrics, network, fabric = self.run_with_drop({1: {("x0", "x1")}})
        for receiver in ("r1", "r2"):
            assert agents[receiver].stream.has(1), receiver
        # the sender repaired the DR
        assert metrics.sends_by_host_kind("s", PacketKind.REPL) >= 1

    def test_whole_group_loss_recovers(self):
        agents, metrics, network, fabric = self.run_with_drop({2: {("s", "x0")}})
        for receiver in ("r1", "r2", "r3", "r4"):
            assert agents[receiver].stream.has(2), receiver

    def test_no_duplicate_repairs_per_loss(self):
        agents, metrics, network, fabric = self.run_with_drop(
            {1: {("x1", "r2")}, 3: {("x1", "r2")}}
        )
        dr = fabric.status_parent("r2")
        # exactly one repair per lost packet, never more
        assert metrics.sends_by_host_kind(dr, PacketKind.REPL) == 2

    def test_latency_bounded_by_status_cycle(self):
        agents, metrics, network, fabric = self.run_with_drop({1: {("x1", "r2")}})
        records = metrics.recoveries["r2"]
        assert len(records) == 1
        # at most ~2 status periods end-to-end (detection to repair),
        # and at least the unicast round trip to the DR
        assert 0.02 <= records[0].latency <= 0.5


class TestRunnerIntegration:
    def synthetic(self):
        params = SynthesisParams(
            name="rmtp",
            n_receivers=6,
            tree_depth=4,
            period=0.05,
            n_packets=500,
            target_losses=300,
        )
        return synthesize_trace(params, seed=4)

    def test_full_reliability(self):
        result = run_trace(self.synthetic(), "rmtp")
        assert result.unrecovered_losses == 0

    def test_control_is_all_unicast(self):
        result = run_trace(self.synthetic(), "rmtp")
        assert result.overhead.multicast_control == 0
        assert result.overhead.unicast_control > 0
        assert result.metrics.total_sends(PacketKind.ACK) > 0

    def test_passes_invariant_verification(self):
        result = run_trace(
            self.synthetic(), "rmtp", SimulationConfig(verify_period=0.1)
        )
        assert result.unrecovered_losses == 0

    def test_rmtp_trades_latency_for_overhead(self):
        """The architecture contrast: RMTP is slower than CESRM (status-
        cycle bound) but strictly cheaper in repair traffic than SRM."""
        from repro.metrics.stats import mean

        synthetic = self.synthetic()
        srm = run_trace(synthetic, "srm")
        cesrm = run_trace(synthetic, "cesrm")
        rmtp = run_trace(synthetic, "rmtp")

        def latency(result):
            return mean(
                [result.avg_normalized_recovery_time(r) for r in result.receivers]
            )

        assert latency(rmtp) > latency(cesrm)
        assert rmtp.overhead.retransmissions < srm.overhead.retransmissions


class TestRmtpChurnFragility:
    def test_dr_crash_stalls_region(self):
        """RMTP shares LMS's fragility family: the DR designation is
        static, so a crashed DR stalls its region's recovery (members keep
        sending status to a dead host) — unlike CESRM's self-adapting
        fall-back."""
        sim, network, tree, agents, metrics, fabric = rmtp_world()
        sim.run(until=3.0)
        dr = fabric.designated["x1"]
        member = [m for m in fabric.region_members(dr)][0]
        agents[dr].fail()

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            return packet.seqno == 1 and (u, v) == ("x1", member)

        drop_hops(network, lost)
        for seq in range(3):
            sim.schedule_at(3.0 + seq * 0.3, agents["s"].send_data, seq)
        sim.run(until=20.0)
        assert not agents[member].stream.has(1)
        assert agents[member].unrecovered_losses() == [1]
        # the member kept reporting into the void
        assert agents[member].statuses_sent >= 2
