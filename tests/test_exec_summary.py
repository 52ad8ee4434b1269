"""RunSummary must round-trip every statistic the report layer consumes."""

import json

import pytest

from repro.exec.summary import (
    RunSummary,
    SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
)
from repro.harness.config import CONFIG_AXES, SimulationConfig
from repro.harness.runner import run_trace
from repro.metrics.collector import MetricsCollector, RecoveryRecord
from repro.net.packet import Cast, PacketKind
from repro.srm.constants import SrmParams
from repro.traces.synthesize import synthesize_trace
from repro.traces.yajnik import trace_meta

TINY = 300


@pytest.fixture(scope="module")
def result():
    config = SimulationConfig(seed=0, max_packets=TINY)
    synthetic = synthesize_trace(trace_meta("WRN951113"), seed=0, max_packets=TINY)
    return run_trace(synthetic, "cesrm", config)


@pytest.fixture(scope="module")
def rehydrated(result):
    summary = RunSummary.from_result(result)
    return RunSummary.from_json(summary.to_json()).to_result()


class TestConfigSerialization:
    def test_round_trip_defaults(self):
        config = SimulationConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_round_trip_customized(self):
        config = SimulationConfig(
            params=SrmParams(c1=1.5, d3=2.0),
            seed=7,
            max_packets=123,
            policy="most-frequent",
            lossy_recovery=True,
            verify_period=0.5,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_vector_kernel_round_trips(self):
        config = SimulationConfig(kernel="vector")
        data = config_to_dict(config)
        assert data["kernel"] == "vector"
        assert config_from_dict(data) == config

    def test_default_kernel_omitted_from_wire(self):
        # Pre-v2 digest stability: the default kernel never serializes.
        assert "kernel" not in config_to_dict(SimulationConfig())
        assert "kernel" not in config_to_dict(
            SimulationConfig(kernel="python")
        )

    def test_pre_v2_wire_format_decodes_to_python_kernel(self):
        """Wire-format versioning: entries serialized before the kernel
        axis existed (no ``kernel`` key) decode to the python default."""
        data = config_to_dict(SimulationConfig())
        assert "kernel" not in data  # genuinely the old shape
        assert config_from_dict(data).kernel == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            SimulationConfig(kernel="cuda")


class TestJsonRoundTrip:
    def test_summary_equality(self, result):
        summary = RunSummary.from_result(result)
        assert RunSummary.from_json(summary.to_json()) == summary

    def test_json_is_plain_data(self, result):
        # must survive a strict JSON round trip with no custom encoding
        text = RunSummary.from_result(result).to_json()
        json.loads(text)

    def test_schema_mismatch_rejected(self, result):
        data = RunSummary.from_result(result).to_dict()
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            RunSummary.from_dict(data)

    def test_unknown_field_rejected(self, result):
        data = RunSummary.from_result(result).to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunSummary.from_dict(data)


class TestResultRehydration:
    """Every field the figures/tables read must survive exactly."""

    def test_identity_and_structure(self, result, rehydrated):
        assert rehydrated.protocol == result.protocol
        assert rehydrated.trace_name == result.trace_name
        assert rehydrated.config == result.config
        assert rehydrated.receivers == result.receivers
        assert rehydrated.source == result.source
        assert rehydrated.hosts == result.hosts

    def test_figure1_latencies(self, result, rehydrated):
        for receiver in result.receivers:
            assert rehydrated.normalized_latencies(receiver) == (
                result.normalized_latencies(receiver)
            )
            assert rehydrated.avg_normalized_recovery_time(receiver) == (
                result.avg_normalized_recovery_time(receiver)
            )

    def test_figure2_gaps(self, result, rehydrated):
        for receiver in result.receivers:
            assert rehydrated.expedited_gap(receiver) == result.expedited_gap(
                receiver
            )

    def test_figure34_packet_counts(self, result, rehydrated):
        for host in result.hosts:
            assert rehydrated.request_counts(host) == result.request_counts(host)
            assert rehydrated.reply_counts(host) == result.reply_counts(host)

    def test_figure5_overhead_and_success(self, result, rehydrated):
        assert rehydrated.overhead == result.overhead
        assert (
            rehydrated.metrics.expedited_success_rate
            == result.metrics.expedited_success_rate
        )
        assert (
            rehydrated.metrics.expedited_requests_sent
            == result.metrics.expedited_requests_sent
        )

    def test_router_assist_crossings(self, result, rehydrated):
        assert rehydrated.crossings_snapshot == result.crossings_snapshot

    def test_metrics_collections(self, result, rehydrated):
        assert rehydrated.metrics.sends == result.metrics.sends
        assert rehydrated.metrics.recoveries == result.metrics.recoveries
        assert (
            rehydrated.metrics.losses_detected == result.metrics.losses_detected
        )
        assert rehydrated.metrics.unrecovered == result.metrics.unrecovered
        assert (
            rehydrated.metrics.rounds_histogram()
            == result.metrics.rounds_histogram()
        )

    def test_unrecovered_and_scalars(self, result, rehydrated):
        assert rehydrated.unrecovered == result.unrecovered
        assert rehydrated.unrecovered_losses == result.unrecovered_losses
        assert rehydrated.recovered_losses == result.recovered_losses
        assert rehydrated.rtt_to_source == result.rtt_to_source
        assert rehydrated.n_packets == result.n_packets
        assert rehydrated.total_losses == result.total_losses
        assert rehydrated.sim_time == result.sim_time
        assert rehydrated.events_processed == result.events_processed
        assert rehydrated.wall_time == result.wall_time

    def test_timeline_render_identical(self, result, rehydrated):
        from repro.harness.report import render_recovery_timeline

        receiver = max(
            result.receivers,
            key=lambda r: len(result.metrics.recoveries.get(r, [])),
        )
        assert render_recovery_timeline(
            rehydrated, receiver
        ) == render_recovery_timeline(result, receiver)


class TestTableDrivenRehydration:
    """``to_result`` builds its rows from lookup tables and bare tuples;
    what it builds must be what a live run records."""

    def test_summary_round_trips_through_the_result(self, result):
        summary = RunSummary.from_result(result)
        again = RunSummary.from_result(summary.to_result())
        assert again.to_dict() == summary.to_dict()

    def test_records_are_recovery_records(self, rehydrated):
        records = rehydrated.metrics.all_recoveries()
        assert records
        for record in records:
            assert type(record) is RecoveryRecord
            assert type(record.expedited) is bool
        assert any(record.expedited for record in records)

    def test_collector_builds_equal_records(self, rehydrated):
        collector = MetricsCollector()
        for record in rehydrated.metrics.all_recoveries():
            collector.on_recovery(
                host=record.host,
                seq=record.seq,
                latency=record.latency,
                expedited=record.expedited,
                requests_sent=record.requests_sent,
            )
        assert collector.recoveries == rehydrated.metrics.recoveries

    def test_send_keys_are_enum_members(self, rehydrated):
        for host, kind, cast in rehydrated.metrics.sends:
            assert isinstance(kind, PacketKind) and isinstance(cast, Cast)


class TestShallowConfigEncoding:
    """``config_to_dict`` reads fields; it must stay equal to the
    ``dataclasses.asdict`` rendering it replaced."""

    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(),
            SimulationConfig(
                params=SrmParams(c1=1.5, d3=2.0, max_backoff=4),
                seed=7,
                max_packets=123,
                kernel="vector",
                cache="lru:capacity=8",
                prime_distances=True,
                verify_period=0.5,
            ),
        ],
    )
    def test_matches_asdict(self, config):
        from dataclasses import asdict

        expected = asdict(config)
        for declared in CONFIG_AXES:
            if expected[declared.name] == declared.default:
                del expected[declared.name]
        data = config_to_dict(config)
        assert data == expected
        assert list(data) == list(expected)  # field order too
        assert list(data["params"]) == list(expected["params"])


class TestToDictWithoutDeepCopy:
    """``to_dict`` builds the dict field by field; it must stay equal to
    the ``dataclasses.asdict`` rendering it replaced."""

    @staticmethod
    def _asdict_based(summary: RunSummary) -> dict:
        from dataclasses import asdict

        data = asdict(summary)
        for block in ("obs", "faults", "workload", "cache", "churn"):
            if data[block] is None:
                del data[block]
        return data

    @staticmethod
    def _loss_free_summary() -> RunSummary:
        from repro.net.families import synthesize_topology_trace

        spec = "transit_stub:transits=2,stubs=3,hosts=6,packets=8,loss=1e-9"
        trace = synthesize_topology_trace(spec, seed=0, max_packets=8)
        config = SimulationConfig(
            seed=1, prime_distances=True, drain_time=2.0, kernel="vector",
            cache="paper:capacity=16",
        )
        return RunSummary.from_result(run_trace(trace, "cesrm", config))

    def test_lossy_summary(self, result):
        summary = RunSummary.from_result(result)
        assert summary.recoveries  # lossy: the nested blocks are populated
        expected = self._asdict_based(summary)
        assert summary.to_dict() == expected
        assert list(summary.to_dict()) == list(expected)  # field order too
        assert summary.to_json() == json.dumps(expected, sort_keys=True)

    def test_loss_free_summary(self):
        summary = self._loss_free_summary()
        assert summary.total_losses == 0 and summary.cache is not None
        expected = self._asdict_based(summary)
        assert summary.to_dict() == expected
        assert summary.to_json() == json.dumps(expected, sort_keys=True)

    def test_patching_the_dict_leaves_the_summary_alone(self, result):
        summary = RunSummary.from_result(result)
        data = summary.to_dict()
        data["wall_time"] = 0.0
        data["config"]["seed"] = 99
        assert summary.wall_time == result.wall_time
        assert summary.config["seed"] == 0
        assert summary.to_dict() is not data
