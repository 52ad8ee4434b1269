"""Functional tests for fault execution (repro.faults.inject) through the
full runner: outages block traffic, crashes silence agents, stochastic
rules draw from dedicated streams, and the whole thing is deterministic."""

import pytest

from repro.faults import (
    FaultPlan,
    LinkDown,
    LinkFlap,
    NodeCrash,
    PacketDuplicate,
    PacketReorder,
    Partition,
    SessionSuppress,
)
from repro.exec.summary import RunSummary
from repro.harness.config import SimulationConfig
from repro.harness.runner import build_simulation, run_trace
from repro.traces.synthesize import SynthesisParams, synthesize_trace

from tests.helpers import make_synthetic, two_subtrees


def small_synthetic(n_packets=300, target=100, seed=2):
    params = SynthesisParams(
        name="faulted",
        n_receivers=5,
        tree_depth=3,
        period=0.04,
        n_packets=n_packets,
        target_losses=target,
    )
    return synthesize_trace(params, seed=seed)


def lossless_synthetic(n_packets=40):
    return make_synthetic(two_subtrees(), n_packets=n_packets, period=0.08, combos={})


class TestEmptyPlanIdentity:
    def test_no_plan_and_empty_plan_agree_bytewise(self):
        synthetic = small_synthetic()
        config = SimulationConfig(seed=3)
        bare = RunSummary.from_result(run_trace(synthetic, "cesrm", config))
        empty = RunSummary.from_result(
            run_trace(synthetic, "cesrm", config, faults=FaultPlan())
        )
        bare.wall_time = empty.wall_time = 0.0
        assert bare.to_json() == empty.to_json()

    def test_fault_free_summary_has_no_faults_key(self):
        result = run_trace(small_synthetic(), "cesrm")
        assert result.faults is None
        summary = RunSummary.from_result(result)
        assert "faults" not in summary.to_dict()

    def test_empty_plan_draws_nothing(self):
        synthetic = small_synthetic()
        simulation = build_simulation(
            synthetic, "srm", SimulationConfig(), faults=FaultPlan()
        )
        assert simulation.faults is not None
        assert simulation.faults.plan.empty


class TestScheduledFaults:
    def test_link_down_blocks_and_heals(self):
        synthetic = lossless_synthetic()
        # r3's uplink dies mid-transmission and comes back.
        plan = FaultPlan(events=(LinkDown(u="x2", v="r3", at=4.0, duration=1.0),))
        result = run_trace(synthetic, "srm", SimulationConfig(), faults=plan)
        assert result.faults is not None
        assert result.faults["link_outages"] == 1
        assert result.faults["packets_blocked"] > 0
        # losses created by the outage recover after the heal
        assert result.unrecovered_losses == 0
        assert result.recovered_losses > 0

    def test_partition_equals_uplink_outage(self):
        synthetic = lossless_synthetic()
        down = run_trace(
            synthetic,
            "srm",
            SimulationConfig(seed=7),
            faults=FaultPlan(events=(LinkDown(u="x2", v="r3", at=4.0, duration=1.0),)),
        )
        part = run_trace(
            synthetic,
            "srm",
            SimulationConfig(seed=7),
            faults=FaultPlan(events=(Partition(node="r3", at=4.0, duration=1.0),)),
        )
        assert down.faults["packets_blocked"] == part.faults["packets_blocked"]
        assert down.recovered_losses == part.recovered_losses

    def test_permanent_crash_without_restart(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(events=(NodeCrash(host="r4", at=4.0),))
        simulation = build_simulation(
            synthetic, "srm", SimulationConfig(), faults=plan
        )
        simulation.sim.run(until=simulation.end_time)
        assert simulation.agents["r4"].failed
        assert simulation.faults.crashes == 1
        assert simulation.faults.restarts == 0
        assert simulation.faults.is_host_down("r4")

    def test_crash_and_restart_resumes_session(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(events=(NodeCrash(host="r4", at=4.0, restart_after=2.0),))
        simulation = build_simulation(
            synthetic, "srm", SimulationConfig(), faults=plan
        )
        simulation.sim.run(until=simulation.end_time)
        agent = simulation.agents["r4"]
        assert not agent.failed
        assert agent.session_running
        assert simulation.faults.stats()["restarts"] == 1

    def test_session_suppress_counts_swallowed_reports(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(events=(SessionSuppress(host="r1", at=2.0, duration=3.0),))
        result = run_trace(synthetic, "srm", SimulationConfig(), faults=plan)
        # 1 s session period -> about three reports muted
        assert 2 <= result.faults["sessions_suppressed"] <= 4

    def test_link_flap_produces_outages(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(
            events=(
                LinkFlap(u="x0", v="x1", mean_up=1.0, mean_down=0.3, start=3.0),
            )
        )
        result = run_trace(synthetic, "srm", SimulationConfig(seed=5), faults=plan)
        assert result.faults["link_outages"] >= 1


class TestHopRules:
    def test_duplication_inflates_deliveries(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(events=(PacketDuplicate(rate=0.2, kind="data"),))
        result = run_trace(synthetic, "srm", SimulationConfig(), faults=plan)
        assert result.faults["packets_duplicated"] > 0
        # duplicates of held packets are discarded by the stream layer
        assert result.unrecovered_losses == 0

    def test_reorder_delays_packets(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(events=(PacketReorder(rate=0.3, max_delay=0.05),))
        result = run_trace(synthetic, "srm", SimulationConfig(), faults=plan)
        assert result.faults["packets_delayed"] > 0
        assert result.unrecovered_losses == 0

    def test_windowed_rule_respects_bounds(self):
        synthetic = lossless_synthetic()
        # window entirely before the data transmission begins (t0 = 3.25)
        plan = FaultPlan(
            events=(PacketDuplicate(rate=1.0, kind="data", start=0.0, end=1.0),)
        )
        result = run_trace(synthetic, "srm", SimulationConfig(), faults=plan)
        assert result.faults["packets_duplicated"] == 0


class TestValidation:
    def test_unknown_link_rejected(self):
        plan = FaultPlan(events=(LinkDown(u="r1", v="r3", at=1.0),))
        with pytest.raises(ValueError, match="no tree link"):
            build_simulation(lossless_synthetic(), "srm", SimulationConfig(), faults=plan)

    def test_unknown_host_rejected(self):
        plan = FaultPlan(events=(NodeCrash(host="nope", at=1.0),))
        with pytest.raises(ValueError, match="no agent"):
            build_simulation(lossless_synthetic(), "srm", SimulationConfig(), faults=plan)

    def test_partitioning_root_rejected(self):
        plan = FaultPlan(events=(Partition(node="s", at=1.0),))
        with pytest.raises(ValueError, match="root"):
            build_simulation(lossless_synthetic(), "srm", SimulationConfig(), faults=plan)


class TestDeterminism:
    def test_same_plan_same_seed_byte_identical(self):
        synthetic = small_synthetic()
        config = SimulationConfig(seed=11)
        plan = FaultPlan(
            events=(
                NodeCrash(host="r2", at=8.0, restart_after=5.0),
                PacketDuplicate(rate=0.02),
                PacketReorder(rate=0.02, max_delay=0.03),
            )
        )
        a = RunSummary.from_result(run_trace(synthetic, "cesrm", config, faults=plan))
        b = RunSummary.from_result(run_trace(synthetic, "cesrm", config, faults=plan))
        a.wall_time = b.wall_time = 0.0
        assert a.to_json() == b.to_json()

    def test_seed_changes_stochastic_faults(self):
        synthetic = small_synthetic()
        plan = FaultPlan(events=(PacketDuplicate(rate=0.05),))
        a = run_trace(synthetic, "srm", SimulationConfig(seed=1), faults=plan)
        b = run_trace(synthetic, "srm", SimulationConfig(seed=2), faults=plan)
        assert a.faults["packets_duplicated"] != b.faults["packets_duplicated"]

    def test_faulted_summary_round_trips(self):
        synthetic = lossless_synthetic()
        plan = FaultPlan(events=(PacketDuplicate(rate=0.1),))
        summary = RunSummary.from_result(
            run_trace(synthetic, "srm", SimulationConfig(), faults=plan)
        )
        assert summary.faults is not None
        rehydrated = RunSummary.from_json(summary.to_json())
        assert rehydrated == summary
        assert rehydrated.to_result().faults == summary.faults
