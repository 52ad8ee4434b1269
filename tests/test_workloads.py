"""The repro.workloads registry, grammar, families, and runner glue."""

import math

import pytest

from repro.exec.summary import RunSummary
from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.traces.synthesize import SynthesisParams, synthesize_trace
from repro.workloads import (
    WORKLOADS,
    SendEvent,
    WorkloadError,
    WorkloadSpec,
    compile_workload,
)

CFG = SimulationConfig(seed=11)


@pytest.fixture(scope="module")
def synthetic():
    return synthesize_trace(
        SynthesisParams(
            name="workload-test",
            n_receivers=6,
            tree_depth=3,
            period=0.1,
            n_packets=40,
            target_losses=10,
        ),
        seed=11,
    )


@pytest.fixture(scope="module")
def trace(synthetic):
    return synthetic.trace


class TestRegistry:
    def test_at_least_five_families(self):
        assert len(WORKLOADS.names()) >= 5

    def test_builtins_registered(self):
        names = WORKLOADS.names()
        for family in (
            "cbr", "poisson", "zipf", "flash_crowd", "diurnal",
            "multi_source", "trace",
        ):
            assert family in names

    def test_get_spec(self):
        assert WORKLOADS.get("zipf").name == "zipf"

    def test_unknown_family_rejected(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            compile_workload("nope:alpha=1")

    def test_register_unregister_round_trip(self):
        spec = WorkloadSpec(name="test-double", factory=lambda p: None)
        WORKLOADS.register(spec)
        try:
            assert "test-double" in WORKLOADS.names()
            with pytest.raises(WorkloadError, match="already registered"):
                WORKLOADS.register(spec)
            WORKLOADS.register(spec, replace=True)  # tests may swap doubles
        finally:
            WORKLOADS.unregister("test-double")
        assert "test-double" not in WORKLOADS.names()

    def test_all_specs_in_registration_order(self):
        names = [s.name for s in WORKLOADS.specs()]
        assert names == list(WORKLOADS.names())


class TestGrammar:
    def test_bare_family(self):
        assert WORKLOADS.resolve("cbr") == (WORKLOADS.get("cbr"), {})

    def test_key_value_params(self):
        family, params = WORKLOADS.resolve("zipf:alpha=1.1,objects=500")
        assert family.name == "zipf"
        assert params == {"alpha": "1.1", "objects": "500"}

    def test_positional_value(self):
        family, params = WORKLOADS.resolve("trace:WRN951128")
        assert family.name == "trace"
        assert params == {"": "WRN951128"}

    def test_canonical_spec_sorts_params(self):
        w1 = compile_workload("zipf:objects=16,alpha=1.2")
        w2 = compile_workload("zipf:alpha=1.2,objects=16")
        assert w1.spec == w2.spec == "zipf:alpha=1.2,objects=16"

    @pytest.mark.parametrize(
        "bad",
        ["", ":x=1", "zipf:", "zipf:=1", "zipf:alpha=", "zipf:alpha=1,alpha=2",
         "trace:A,B"],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(WorkloadError):
            compile_workload(bad)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(WorkloadError, match="unknown parameter"):
            compile_workload("zipf:alpa=1.1")

    def test_bad_value_rejected(self):
        with pytest.raises(WorkloadError, match="not a number"):
            compile_workload("flash_crowd:peak=huge")

    def test_unit_suffixes(self):
        # 20x multiplier and 5s/500ms durations all parse
        compile_workload("flash_crowd:peak=20x,ramp=5s,hold=500ms")

    def test_unknown_trace_name_rejected_at_compile(self):
        with pytest.raises(WorkloadError, match="unknown trace"):
            compile_workload("trace:NOPE")


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        ["cbr", "poisson", "zipf:alpha=1.2,objects=16", "flash_crowd:peak=6,ramp=1",
         "diurnal:period=2s,min=0.3", "multi_source:senders=3", "trace:WRN951128"],
    )
    def test_same_seed_same_stream(self, trace, spec):
        workload = compile_workload(spec)
        assert workload.events(trace, seed=7) == workload.events(trace, seed=7)

    @pytest.mark.parametrize("spec", ["poisson", "zipf:alpha=1.2,objects=16"])
    def test_different_seed_different_stream(self, trace, spec):
        workload = compile_workload(spec)
        assert workload.events(trace, seed=7) != workload.events(trace, seed=8)

    def test_stream_isolated_by_spec(self, trace):
        # two stochastic families under one seed draw from distinct streams
        a = compile_workload("poisson").events(trace, seed=7)
        b = compile_workload("poisson:rate=10").events(trace, seed=7)
        assert [e.time for e in a] != [e.time for e in b]


class TestFamilies:
    def test_cbr_matches_legacy_schedule(self, trace):
        events = compile_workload("cbr").events(trace, seed=0)
        assert [e.time for e in events] == [
            seq * trace.period for seq in range(trace.n_packets)
        ]
        assert {e.sender for e in events} == {trace.tree.source}

    def test_event_count_always_n_packets(self, trace):
        for spec in ("poisson", "zipf", "flash_crowd", "diurnal",
                     "multi_source:senders=4", "trace:WRN951113"):
            assert len(compile_workload(spec).events(trace, seed=1)) == trace.n_packets

    def test_multi_source_partitions_contiguously(self, trace):
        events = compile_workload("multi_source:senders=3").events(trace, seed=0)
        by_sender = {}
        for event in events:
            by_sender.setdefault(event.sender, []).append(event.seqno)
        assert len(by_sender) == 3
        assert trace.tree.source in by_sender
        for seqnos in by_sender.values():
            assert seqnos == list(range(len(seqnos)))

    def test_multi_source_caps_at_host_count(self, trace):
        events = compile_workload("multi_source:senders=999").events(trace, seed=0)
        assert len({e.sender for e in events}) == 1 + len(trace.tree.receivers)

    def test_flash_crowd_accelerates_mid_run(self, trace):
        events = compile_workload("flash_crowd:peak=8,ramp=0.5").events(trace, seed=0)
        gaps = [b.time - a.time for a, b in zip(events, events[1:])]
        assert min(gaps) < trace.period / 2  # surge compresses spacing
        assert math.isclose(gaps[0], trace.period)  # baseline before surge

    def test_diurnal_rate_varies(self, trace):
        events = compile_workload("diurnal:period=2s,min=0.2").events(trace, seed=0)
        gaps = {round(b.time - a.time, 6) for a, b in zip(events, events[1:])}
        assert len(gaps) > 5  # a sinusoid, not a constant

    def test_zipf_objects_are_skewed_and_trained(self, trace):
        events = compile_workload("zipf:alpha=1.4,objects=16,train=4").events(
            trace, seed=3
        )
        counts = {}
        for event in events:
            counts[event.obj] = counts.get(event.obj, 0) + 1
        # Zipf(1.4) over 16 objects concentrates mass far above uniform.
        assert max(counts.values()) > trace.n_packets / 16

    def test_trace_family_uses_named_period(self, trace):
        from repro.traces.yajnik import trace_meta

        events = compile_workload("trace:WRN951128").events(trace, seed=0)
        step = events[1].time - events[0].time
        assert math.isclose(step, trace_meta("WRN951128").period)


class TestValidation:
    def _with_double(self, factory):
        WORKLOADS.register(
            WorkloadSpec(name="bad-double", factory=factory), replace=True
        )
        return compile_workload("bad-double")

    def teardown_method(self):
        WORKLOADS.unregister("bad-double")

    def test_unknown_sender_rejected(self, trace):
        workload = self._with_double(
            lambda p: lambda t, rng: [SendEvent(0.0, "ghost", 0)]
        )
        with pytest.raises(WorkloadError, match="unknown sender"):
            workload.events(trace)

    def test_sequence_gap_rejected(self, trace):
        workload = self._with_double(
            lambda p: lambda t, rng: [
                SendEvent(0.0, t.tree.source, 0),
                SendEvent(0.1, t.tree.source, 5),
            ]
        )
        with pytest.raises(WorkloadError, match="sequence gaps"):
            workload.events(trace)

    def test_duplicate_seqno_rejected(self, trace):
        workload = self._with_double(
            lambda p: lambda t, rng: [
                SendEvent(0.0, t.tree.source, 0),
                SendEvent(0.1, t.tree.source, 0),
            ]
        )
        with pytest.raises(WorkloadError, match="repeats seqno"):
            workload.events(trace)

    def test_negative_time_rejected(self, trace):
        workload = self._with_double(
            lambda p: lambda t, rng: [SendEvent(-1.0, t.tree.source, 0)]
        )
        with pytest.raises(WorkloadError, match="invalid time"):
            workload.events(trace)

    def test_empty_stream_rejected(self, trace):
        workload = self._with_double(lambda p: lambda t, rng: [])
        with pytest.raises(WorkloadError, match="no events"):
            workload.events(trace)


class TestRunnerIntegration:
    def test_run_records_workload_stats(self, synthetic):
        result = run_trace(synthetic, "cesrm", CFG, workload="multi_source:senders=3")
        stats = result.workload
        assert stats is not None
        assert stats["spec"] == "multi_source:senders=3"
        assert stats["events"] == synthetic.trace.n_packets
        assert len(stats["senders"]) == 3
        assert stats["offered_load_pps"] > 0
        assert 0.0 <= stats["expedited_fraction"] <= 1.0
        if stats["recoveries"]:
            assert stats["latency_p50"] <= stats["latency_p90"] <= stats["latency_p99"]

    def test_default_run_has_no_workload_block(self, synthetic):
        result = run_trace(synthetic, "cesrm", CFG)
        assert result.workload is None
        summary = RunSummary.from_result(result)
        assert "workload" not in summary.to_dict()

    def test_cbr_equals_default_run(self, synthetic):
        """The explicit cbr workload reproduces the legacy schedule: the
        summaries agree on everything except the workload metadata (and
        the end-of-run timestamp, which may differ by float association)."""
        default = RunSummary.from_result(run_trace(synthetic, "cesrm", CFG))
        cbr = RunSummary.from_result(
            run_trace(synthetic, "cesrm", CFG, workload="cbr")
        )
        assert cbr.workload is not None
        for summary in (default, cbr):
            summary.wall_time = 0.0
            summary.sim_time = 0.0
            summary.workload = None
        assert cbr.to_json() == default.to_json()

    def test_workload_round_trips_through_summary_json(self, synthetic):
        result = run_trace(synthetic, "cesrm", CFG, workload="zipf:objects=8")
        summary = RunSummary.from_result(result)
        restored = RunSummary.from_json(summary.to_json())
        assert restored == summary
        assert restored.to_result().workload == result.workload

    def test_compiled_workload_accepted_directly(self, synthetic):
        workload = compile_workload("poisson")
        result = run_trace(synthetic, "srm", CFG, workload=workload)
        assert result.workload["family"] == "poisson"

    def test_workload_composes_with_faults(self, synthetic):
        from repro.faults import FaultPlan, NodeCrash

        plan = FaultPlan(events=(NodeCrash(host="r1", at=2.0, restart_after=1.0),))
        result = run_trace(
            synthetic, "cesrm", CFG, faults=plan, workload="zipf:objects=8"
        )
        assert result.workload is not None
        assert result.faults is not None  # both blocks recorded

    def test_workload_send_events_traced(self, synthetic):
        from repro.obs import RecoveryTimeline, RingBufferSink, Tracer
        from repro.obs.events import EventKind

        ring = RingBufferSink()
        run_trace(
            synthetic, "cesrm", CFG, tracer=Tracer(ring), workload="poisson"
        )
        sends = [e for e in ring.events if e.kind == EventKind.WORKLOAD_SEND]
        assert len(sends) == synthetic.trace.n_packets
        # RecoveryTimeline folds the stream unchanged (workload.send is
        # context it simply ignores).
        assert RecoveryTimeline.from_events(ring.events).stories
