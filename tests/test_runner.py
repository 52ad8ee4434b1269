"""Tests for the simulation runner and configuration."""

import random

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.registry import PROTOCOLS
from repro.harness.runner import build_simulation, run_trace
from repro.net.packet import PacketKind
from repro.traces.synthesize import SynthesisParams, synthesize_trace

from tests.helpers import make_synthetic, two_subtrees


def small_synthetic(n_packets=400, target=150, seed=2):
    params = SynthesisParams(
        name="runner",
        n_receivers=5,
        tree_depth=3,
        period=0.04,
        n_packets=n_packets,
        target_losses=target,
    )
    return synthesize_trace(params, seed=seed)


class TestConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.propagation_delay == pytest.approx(0.020)
        assert config.bandwidth_bps == pytest.approx(1.5e6)
        assert config.session_period == 1.0
        assert config.reorder_delay == 0.0
        assert config.policy == "most-recent"
        assert not config.lossy_recovery

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(propagation_delay=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(cache_capacity=0)
        with pytest.raises(ValueError):
            SimulationConfig(max_packets=0)
        with pytest.raises(ValueError):
            SimulationConfig(reorder_delay=-1.0)

    def test_with_creates_modified_copy(self):
        config = SimulationConfig()
        other = config.with_(seed=9, policy="most-frequent")
        assert other.seed == 9
        assert other.policy == "most-frequent"
        assert config.seed == 0  # original untouched

    def test_transmission_start_after_warmup(self):
        config = SimulationConfig(warmup_periods=3.0, session_period=1.0)
        assert config.transmission_start > 3.0


class TestBuildSimulation:
    def test_agents_at_every_host(self):
        synthetic = small_synthetic()
        simulation = build_simulation(synthetic, "srm", SimulationConfig())
        assert set(simulation.agents) == set(synthetic.trace.tree.hosts)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_simulation(small_synthetic(), "tcp", SimulationConfig())

    def test_protocol_registry_covers_all(self):
        synthetic = small_synthetic(n_packets=50, target=20)
        for protocol in PROTOCOLS.names():
            simulation = build_simulation(synthetic, protocol, SimulationConfig())
            assert simulation.source_agent.is_source

    def test_max_packets_truncates(self):
        synthetic = small_synthetic(n_packets=400)
        config = SimulationConfig(max_packets=100)
        simulation = build_simulation(synthetic, "srm", config)
        assert simulation.trace.trace.n_packets == 100


class TestRunTrace:
    def test_full_reliability_under_lossless_recovery(self):
        result = run_trace(small_synthetic(), "srm")
        assert result.unrecovered_losses == 0
        assert result.recovered_losses > 0

    def test_recovered_plus_undetected_covers_losses(self):
        result = run_trace(small_synthetic(), "cesrm")
        undetected = sum(result.metrics.undetected_recoveries.values())
        assert (
            result.recovered_losses + undetected + result.unrecovered_losses
            == result.total_losses
        )

    def test_deterministic_given_seed(self):
        synthetic = small_synthetic()
        a = run_trace(synthetic, "cesrm", SimulationConfig(seed=5))
        b = run_trace(synthetic, "cesrm", SimulationConfig(seed=5))
        assert a.metrics.sends == b.metrics.sends
        assert a.overhead == b.overhead
        assert [r.latency for r in a.metrics.all_recoveries()] == [
            r.latency for r in b.metrics.all_recoveries()
        ]

    def test_seed_changes_jitter(self):
        synthetic = small_synthetic()
        a = run_trace(synthetic, "srm", SimulationConfig(seed=1))
        b = run_trace(synthetic, "srm", SimulationConfig(seed=2))
        # same losses, same recoveries, different timers
        assert a.recovered_losses == b.recovered_losses
        a_times = [r.latency for r in a.metrics.all_recoveries()]
        b_times = [r.latency for r in b.metrics.all_recoveries()]
        assert a_times != b_times

    def test_rtt_estimates_match_topology(self):
        synthetic = small_synthetic()
        result = run_trace(synthetic, "srm")
        tree = synthetic.trace.tree
        for receiver in result.receivers:
            expected = 2 * tree.hop_distance(tree.source, receiver) * 0.020
            assert result.rtt_to_source[receiver] == pytest.approx(expected)

    def test_srm_sends_no_expedited_traffic(self):
        result = run_trace(small_synthetic(), "srm")
        assert result.metrics.expedited_requests_sent == 0
        assert result.metrics.expedited_replies_sent == 0
        assert result.overhead.unicast_control == 0

    def test_cesrm_request_and_reply_count_helpers(self):
        result = run_trace(small_synthetic(), "cesrm")
        total_rqst = sum(result.request_counts(h)["multicast"] for h in result.hosts)
        total_erqst = sum(result.request_counts(h)["unicast"] for h in result.hosts)
        assert total_rqst == result.metrics.total_sends(PacketKind.RQST)
        assert total_erqst == result.metrics.total_sends(PacketKind.ERQST)
        total_repl = sum(result.reply_counts(h)["multicast"] for h in result.hosts)
        assert total_repl == result.metrics.total_sends(PacketKind.REPL)

    def test_normalized_latencies_positive(self):
        result = run_trace(small_synthetic(), "cesrm")
        for receiver in result.receivers:
            for value in result.normalized_latencies(receiver):
                assert value > 0

    def test_trace_driven_losses_match_trace(self):
        """Every loss the trace prescribes is experienced: detected and
        recovered (or repaired before detection)."""
        tree = two_subtrees()
        combos = {
            2: frozenset({("x0", "x1")}),
            5: frozenset({("x2", "r3")}),
            7: frozenset({("x1", "r2"), ("x2", "r4")}),
        }
        synthetic = make_synthetic(tree, n_packets=10, period=0.08, combos=combos)
        result = run_trace(synthetic, "srm")
        recovered = {
            (rec.host, rec.seq) for rec in result.metrics.all_recoveries()
        }
        expected = {
            ("r1", 2),
            ("r2", 2),
            ("r2", 7),
            ("r3", 5),
            ("r4", 7),
        }
        assert recovered == expected

    def test_lossy_recovery_still_mostly_recovers(self):
        synthetic = small_synthetic()
        config = SimulationConfig(lossy_recovery=True, drain_time=60.0)
        result = run_trace(synthetic, "cesrm", config)
        assert result.recovered_losses > 0.9 * result.total_losses

    def test_lossy_recovery_latency_not_lower(self):
        synthetic = small_synthetic()
        lossless = run_trace(synthetic, "srm", SimulationConfig())
        lossy = run_trace(
            synthetic, "srm", SimulationConfig(lossy_recovery=True, drain_time=60.0)
        )

        def avg(result):
            values = [
                result.avg_normalized_recovery_time(r) for r in result.receivers
            ]
            return sum(values) / len(values)

        assert avg(lossy) >= avg(lossless) * 0.95  # latency can only grow

    def test_run_result_bookkeeping(self):
        synthetic = small_synthetic()
        result = run_trace(synthetic, "cesrm")
        assert result.protocol == "cesrm"
        assert result.trace_name == "runner"
        assert result.n_packets == 400
        assert result.events_processed > 0
        assert result.sim_time > 0
        assert result.wall_time > 0


class TestPayPerUseConstruction:
    """An agent that never draws never seeds a stream; per-run agent
    kwargs are derived once, not once per host."""

    SPEC = "transit_stub:transits=2,stubs=5,hosts=20,packets=8,loss=1e-9"

    def _primed(self, **overrides):
        config = dict(seed=3, prime_distances=True, drain_time=2.0, kernel="vector")
        config.update(overrides)
        return SimulationConfig(**config)

    def test_loss_free_run_creates_no_per_host_streams(self):
        from repro.net.families import synthesize_topology_trace

        trace = synthesize_topology_trace(self.SPEC, seed=0, max_packets=8)
        simulation = build_simulation(trace, "cesrm", self._primed())
        registry = simulation.faults.registry
        assert len(simulation.agents) == 201
        assert registry._streams == {}
        simulation.sim.run(until=simulation.end_time)
        for agent in simulation.agents.values():
            agent.stop()
            assert agent.unrecovered_losses() == []
            assert agent.rtt_to_source() >= 0.0
        assert registry._streams == {}  # O(1), not O(hosts)
        idle = simulation.agents[trace.trace.tree.receivers[0]]
        assert not isinstance(idle.rng, random.Random)  # still deferred

    def test_first_draw_resolves_the_hosts_named_stream(self):
        simulation = build_simulation(small_synthetic(), "srm", SimulationConfig(seed=4))
        registry = simulation.faults.registry
        host = simulation.trace.trace.tree.receivers[0]
        agent = simulation.agents[host]
        assert f"agent:{host}" not in registry._streams
        expected = random.Random(registry.derive_seed(f"agent:{host}")).uniform(1, 2)
        assert agent.rng.uniform(1, 2) == expected
        # ... and from here on ``rng`` is the registry's stream itself.
        assert agent.rng is registry.stream(f"agent:{host}")

    def test_agent_takes_a_plain_random_stream(self):
        """The public constructor contract used across tests/."""
        from tests.helpers import make_world

        world = make_world(protocol="cesrm")
        agent = world.agents["r1"]
        assert isinstance(agent.rng, random.Random)
        replacement = random.Random(1)
        agent.rng = replacement
        assert agent.rng is replacement

    @pytest.mark.parametrize("churn", ["", "churn:rate=3,leave=0.3,start=0.5,until=5s"])
    def test_extra_agent_kwargs_called_once_per_build(self, churn):
        from repro.core.agent import CesrmAgent
        from repro.harness.registry import ProtocolSpec

        calls = []
        cesrm = PROTOCOLS.get("cesrm")

        def spy(config):
            calls.append(config)
            return cesrm.agent_kwargs(config)

        PROTOCOLS.register(ProtocolSpec(name="spied-cesrm", agent_cls=CesrmAgent, agent_kwargs=spy))
        try:
            config = SimulationConfig(seed=1, cache="lru:capacity=4")
            simulation = build_simulation(
                small_synthetic(60, 20), "spied-cesrm", config, churn=churn
            )
            simulation.sim.run(until=simulation.end_time)
        finally:
            PROTOCOLS.unregister("spied-cesrm")
        assert calls == [config]
        agents = list(simulation.agents.values())
        if churn:
            assert simulation.churn.joins > 0
            assert len(agents) > 6
        # One compiled cache policy for the run; a selection policy each.
        assert len({id(agent.cache_policy) for agent in agents}) == 1
        assert len({id(agent.policy) for agent in agents}) == len(agents)
