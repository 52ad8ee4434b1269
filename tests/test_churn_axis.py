"""The ``churn:`` membership axis — spec grammar, determinism, digests.

(Distinct from ``tests/test_churn.py``, which covers host-crash *fault*
churn: there the member stays in the group and recovers; here members
join and leave the tree itself.)
"""

import pytest

from repro.churn import ChurnError, compile_churn, validate_churn
from repro.exec.jobs import RunJob
from repro.exec.summary import RunSummary
from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.net.topology import build_balanced_tree
from repro.sim.engine import Simulator
from repro.net.families import synthesize_topology_trace

SPEC = "transit_stub:transits=2,stubs=2,hosts=2,packets=150,loss=0.02"


def small_trace():
    return synthesize_topology_trace(SPEC, seed=1, max_packets=150)


class TestGrammar:
    def test_empty_spec_is_no_churn(self):
        assert compile_churn("").empty
        assert compile_churn("  ").empty

    def test_rate_required(self):
        with pytest.raises(ChurnError, match="rate"):
            compile_churn("churn:leave=0.5")

    def test_rate_must_be_positive(self):
        with pytest.raises(ChurnError, match="must be > 0"):
            compile_churn("churn:rate=0")
        with pytest.raises(ChurnError, match="must be > 0"):
            compile_churn("churn:rate=-1")

    def test_leave_is_a_probability(self):
        with pytest.raises(ChurnError, match="leave"):
            compile_churn("churn:rate=1,leave=1.5")

    def test_until_after_start(self):
        with pytest.raises(ChurnError, match="until"):
            compile_churn("churn:rate=1,start=10,until=5")

    def test_unknown_family_and_params_rejected(self):
        with pytest.raises(ChurnError, match="unknown churn family"):
            compile_churn("membership:rate=1")
        with pytest.raises(ChurnError):
            compile_churn("churn:rate=1,flap=2")

    def test_canonical_spec_is_identity(self):
        a = compile_churn("churn:rate=0.5,leave=0.3")
        b = compile_churn("churn:leave=0.3,rate=0.5")
        assert a.spec == b.spec
        assert validate_churn("churn:leave=0.3,rate=0.5") == (
            "churn:leave=0.3,rate=0.5"  # user's spelling preserved
        )


class TestDigestFolding:
    def test_empty_churn_leaves_job_identity_unchanged(self):
        base = RunJob(trace="WRN951128", protocol="cesrm", config=SimulationConfig())
        static = RunJob(
            trace="WRN951128", protocol="cesrm", config=SimulationConfig(), churn=""
        )
        assert base.key() == static.key()
        assert "churn" not in base.to_dict()
        assert RunJob.from_dict(base.to_dict()) == base  # pre-churn wire format

    def test_nonempty_churn_changes_identity(self):
        base = RunJob(trace="WRN951128", protocol="cesrm", config=SimulationConfig())
        churned = base.__class__(
            trace="WRN951128",
            protocol="cesrm",
            config=SimulationConfig(),
            churn="churn:rate=1",
        )
        assert base.key() != churned.key()
        assert churned.to_dict()["churn"] == "churn:rate=1"
        assert RunJob.from_dict(churned.to_dict()) == churned

    def test_bad_spec_fails_at_job_construction(self):
        with pytest.raises(ValueError, match="churn"):
            RunJob(
                trace="WRN951128",
                protocol="cesrm",
                config=SimulationConfig(),
                churn="churn:rate=-2",
            )


class TestRuns:
    def test_static_summary_has_no_churn_block(self):
        result = run_trace(small_trace(), "cesrm", SimulationConfig(max_packets=150))
        summary = RunSummary.from_result(result)
        assert result.churn is None
        assert "churn" not in summary.to_dict()

    def test_churn_run_counters_are_consistent(self):
        trace = small_trace()
        initial = len(trace.trace.tree.receivers)
        result = run_trace(
            trace,
            "cesrm",
            SimulationConfig(max_packets=150),
            churn="churn:rate=1.5",
        )
        block = result.churn
        assert block is not None
        assert block["spec"] == "churn:rate=1.5"
        assert block["joins"] + block["leaves"] > 0
        assert block["final_receivers"] == initial + block["joins"] - block["leaves"]
        assert block["final_receivers"] >= compile_churn("churn:rate=1.5").floor

    def test_churn_run_is_deterministic(self):
        config = SimulationConfig(max_packets=150)
        first = run_trace(small_trace(), "cesrm", config, churn="churn:rate=2")
        second = run_trace(small_trace(), "cesrm", config, churn="churn:rate=2")
        a = RunSummary.from_result(first).to_dict()
        b = RunSummary.from_result(second).to_dict()
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b

    def test_churn_rides_the_summary_round_trip(self):
        result = run_trace(
            small_trace(),
            "cesrm",
            SimulationConfig(max_packets=150),
            churn="churn:rate=1",
        )
        summary = RunSummary.from_result(result)
        rehydrated = RunSummary.from_json(summary.to_json())
        assert rehydrated.churn == summary.churn


class TestUnicastUnderChurn:
    """Unicast traffic addressed at or crossing a detached subtree is
    dropped and counted, never a crash (static runs keep the hard
    invariant that every unicast is deliverable)."""

    def _network(self):
        tree = build_balanced_tree(branching=2, depth=2)
        sim = Simulator()
        network = Network(sim, tree, propagation_delay=0.020)

        class Sink:
            def receive(self, packet):
                pass

        for host in tree.hosts:
            network.attach(host, Sink())
        return sim, network

    def test_unicast_to_detached_receiver_is_dropped(self):
        sim, network = self._network()
        network.detach_subtree("r1")
        before = network.packets_dropped
        network.unicast(
            "r1",
            Packet(
                kind=PacketKind.REPL, origin="s", source="s", seqno=0, size_bytes=0
            ),
        )
        sim.run()
        assert network.packets_dropped == before + 1

    def test_reattached_receiver_is_deliverable_again(self):
        sim, network = self._network()
        network.detach_subtree("r1")
        network.attach_receiver("r1", "x1")

        class Sink:
            def __init__(self):
                self.got = 0

            def receive(self, packet):
                self.got += 1

        sink = Sink()
        network.attach("r1", sink)
        network.unicast(
            "r1",
            Packet(
                kind=PacketKind.REPL, origin="s", source="s", seqno=0, size_bytes=0
            ),
        )
        sim.run()
        assert sink.got == 1
