"""Integration: tracing must observe without perturbing.

The core guarantees of repro.obs: (1) attaching a tracer/profiler changes
nothing about the simulation's results — summaries are byte-identical
minus wall-clock and the ``obs`` block itself; (2) ``RunSummary`` carries
``obs`` losslessly when present and omits it (bytes unchanged vs an
obs-less build) when absent; (3) invariant violations surface in the
trace stream before the exception unwinds.
"""

import json

import pytest

from tests.helpers import make_world, two_subtrees

from repro.exec.summary import RunSummary
from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.obs import EventKind, RingBufferSink, SimProfiler, Tracer
from repro.spec.invariants import Invariant
from repro.spec.monitor import InvariantMonitor, InvariantViolation
from repro.traces.synthesize import synthesize_trace
from repro.traces.yajnik import trace_meta

TINY = 200


@pytest.fixture(scope="module")
def synthetic():
    return synthesize_trace(trace_meta("WRN951113"), seed=0, max_packets=TINY)


def comparable(summary: RunSummary) -> str:
    data = summary.to_dict()
    data["wall_time"] = 0.0
    data.pop("obs", None)
    return json.dumps(data, sort_keys=True)


class TestTracingIsPureObservation:
    @pytest.mark.parametrize("protocol", ["srm", "cesrm"])
    def test_traced_run_results_identical_to_untraced(self, synthetic, protocol):
        config = SimulationConfig(seed=0, max_packets=TINY)
        plain = run_trace(synthetic, protocol, config)
        ring = RingBufferSink()
        traced = run_trace(
            synthetic, protocol, config,
            tracer=Tracer(ring), profiler=SimProfiler(),
        )
        assert ring.emitted > 0
        assert comparable(RunSummary.from_result(plain)) == comparable(
            RunSummary.from_result(traced)
        )

    def test_untraced_summary_json_has_no_obs_key(self, synthetic):
        config = SimulationConfig(seed=0, max_packets=TINY)
        summary = RunSummary.from_result(run_trace(synthetic, "cesrm", config))
        assert summary.obs is None
        assert "obs" not in summary.to_dict()
        assert '"obs"' not in summary.to_json()

    def test_obs_round_trips_through_json(self, synthetic):
        config = SimulationConfig(seed=0, max_packets=TINY)
        tracer = Tracer(RingBufferSink())
        result = run_trace(
            synthetic, "cesrm", config, tracer=tracer, profiler=SimProfiler()
        )
        summary = RunSummary.from_result(result)
        assert summary.obs is not None
        assert summary.obs["trace"]["events_emitted"] == tracer.emitted
        assert summary.obs["profile"]["events"] == result.events_processed
        again = RunSummary.from_json(summary.to_json())
        assert again.obs == summary.obs
        assert again.to_result().obs == summary.obs


    @pytest.mark.parametrize("kernel", ["python", "vector"])
    def test_profile_counts_what_the_engine_counts(self, synthetic, kernel):
        """Both kernels fire entries that stand for several arrivals; the
        profiler's event count moves with ``events_processed`` either way
        (``test_obs_round_trips_through_json`` keeps its floor id and the
        python kernel; this is the same check over both)."""
        config = SimulationConfig(seed=0, max_packets=TINY, kernel=kernel)
        profiler = SimProfiler()
        result = run_trace(synthetic, "cesrm", config, profiler=profiler)
        assert profiler.events == result.events_processed
        fired = sum(int(count) for count, _ in profiler.handlers.values())
        assert fired < profiler.events  # entries, fewer than the arrivals


class TestInvariantViolationEvents:
    def test_violation_reaches_trace_stream_before_raise(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm")
        ring = RingBufferSink()
        world.sim.tracer = Tracer(ring)
        always_broken = Invariant(
            "always-broken", lambda agent, now: f"{agent.host_id} is sad"
        )
        monitor = InvariantMonitor(
            world.sim, world.agents, invariants=(always_broken,)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.check_now()
        assert excinfo.value.invariant == "always-broken"
        violations = [
            e for e in ring.events if e.kind == EventKind.INVARIANT_VIOLATION
        ]
        assert len(violations) == 1
        event = violations[0]
        assert event.node in world.agents  # carries the agent id
        assert event.detail["invariant"] == "always-broken"
        assert "is sad" in event.detail["message"]

    def test_healthy_run_emits_no_violation_events(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm")
        ring = RingBufferSink()
        world.sim.tracer = Tracer(ring)
        monitor = InvariantMonitor(world.sim, world.agents)
        world.run_warmup()
        world.send_packets(3, drop={1: {("x1", "r1")}})
        world.run()
        monitor.check_now()
        assert monitor.checks_run >= 1
        kinds = {e.kind for e in ring.events}
        assert EventKind.INVARIANT_VIOLATION not in kinds
        assert EventKind.LOSS_DETECTED in kinds
