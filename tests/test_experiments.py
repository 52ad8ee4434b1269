"""Tests for the experiment drivers (one per paper table/figure)."""

import pytest

from repro.harness import experiments as exp
from repro.harness import report
from repro.harness.analysis import LatencyModel, paper_latency_model
from repro.srm.constants import SrmParams
from repro.traces.yajnik import YAJNIK_TRACES

#: Tiny replay so the whole module stays fast; two traces stand in for six.
TINY = 600
TRACES = ("WRN951113", "WRN951216")


@pytest.fixture(scope="module")
def ctx():
    return exp.ExperimentContext(max_packets=TINY)


class TestContext:
    def test_trace_memoized(self, ctx):
        assert ctx.trace("WRN951113") is ctx.trace("WRN951113")

    def test_run_memoized(self, ctx):
        # Memoized by job: an equal job built again is the same run.
        assert ctx.run(ctx.job("WRN951113", "srm")) is ctx.run(ctx.job("WRN951113", "srm"))

    def test_run_distinct_per_protocol(self, ctx):
        assert ctx.run(ctx.job("WRN951113", "srm")) is not ctx.run(
            ctx.job("WRN951113", "cesrm")
        )

    def test_max_packets_respected(self, ctx):
        assert ctx.trace("WRN951113").trace.n_packets == TINY


class TestTable1:
    def test_all_fourteen_rows(self, ctx):
        rows = exp.table1(ctx)
        assert len(rows) == 14
        assert [r.name for r in rows] == [m.name for m in YAJNIK_TRACES]

    def test_rows_reflect_meta(self, ctx):
        rows = {r.name: r for r in exp.table1(ctx)}
        row = rows["WRN951113"]
        assert row.n_receivers == 12
        assert row.tree_depth == 5
        assert row.synthesized_packets == TINY

    def test_loss_calibration_reasonable(self, ctx):
        for row in exp.table1(ctx):
            assert row.loss_error < 0.35  # short replays are noisy but sane

    def test_render(self, ctx):
        text = report.render_table1(exp.table1(ctx))
        assert "WRN951113" in text
        assert "Table 1" in text


class TestFigure1:
    def test_per_receiver_series(self, ctx):
        results = exp.figure1(ctx, traces=TRACES)
        assert [r.trace for r in results] == list(TRACES)
        for res in results:
            assert len(res.srm) == len(res.receivers)
            assert len(res.cesrm) == len(res.receivers)

    def test_cesrm_reduces_latency(self, ctx):
        for res in exp.figure1(ctx, traces=TRACES):
            assert res.reduction > 0.15, res.trace

    def test_render(self, ctx):
        text = report.render_figure1(exp.figure1(ctx, traces=TRACES))
        assert "Figure 1" in text and "CESRM" in text


class TestFigure2:
    def test_gaps_positive_where_defined(self, ctx):
        for res in exp.figure2(ctx, traces=TRACES):
            defined = [g for g in res.gaps if g is not None]
            assert defined, res.trace
            assert res.mean_gap > 0

    def test_render(self, ctx):
        text = report.render_figure2(exp.figure2(ctx, traces=TRACES))
        assert "Figure 2" in text


class TestFigures3And4:
    def test_request_totals_favor_cesrm_multicast(self, ctx):
        for res in exp.figure3(ctx, traces=TRACES):
            srm_multicast = sum(res.srm)
            cesrm_multicast = sum(res.cesrm_multicast)
            assert cesrm_multicast < srm_multicast, res.trace

    def test_source_sends_no_requests(self, ctx):
        for res in exp.figure3(ctx, traces=TRACES):
            assert res.hosts[0] == "s"
            assert res.srm[0] == 0
            assert res.cesrm_multicast[0] == 0

    def test_reply_totals_favor_cesrm(self, ctx):
        for res in exp.figure4(ctx, traces=TRACES):
            assert res.cesrm_total < res.srm_total, res.trace

    def test_expedited_split_nonzero(self, ctx):
        for res in exp.figure4(ctx, traces=TRACES):
            assert sum(res.cesrm_expedited) > 0

    def test_render(self, ctx):
        text = report.render_packet_counts(
            exp.figure3(ctx, traces=TRACES), "Figure 3 (requests)"
        )
        assert "Figure 3" in text


class TestFigure5:
    def test_rows_for_requested_traces(self, ctx):
        rows = exp.figure5(ctx, traces=TRACES)
        assert [r.trace for r in rows] == list(TRACES)

    def test_success_rates_substantial(self, ctx):
        for row in exp.figure5(ctx, traces=TRACES):
            assert row.expedited_success_pct > 50.0

    def test_overhead_below_srm(self, ctx):
        for row in exp.figure5(ctx, traces=TRACES):
            assert row.retransmissions_pct < 100.0
            assert row.total_pct < 100.0

    def test_render(self, ctx):
        text = report.render_figure5(exp.figure5(ctx, traces=TRACES))
        assert "Figure 5" in text


class TestSection34:
    def test_paper_model_values(self):
        model = paper_latency_model()
        assert model.non_expedited_rtt == pytest.approx(3.25)
        assert model.expedited_rtt == pytest.approx(1.0)
        assert model.expected_gap_rtt == pytest.approx(2.25)

    def test_model_with_custom_params(self):
        model = LatencyModel(params=SrmParams(c1=1, c2=1, d1=1, d2=1))
        # ((1 + 0.5) + 1 + (1 + 0.5) + 1) / 2 = 2.5
        assert model.non_expedited_rtt == pytest.approx(2.5)

    def test_reorder_delay_shifts_expedited(self):
        model = LatencyModel(params=SrmParams(), reorder_delay_rtt=0.5)
        assert model.expedited_rtt == pytest.approx(1.5)

    def test_simulation_within_bands(self, ctx):
        result = exp.section_3_4(ctx, traces=TRACES)
        lo, hi = result.srm_band
        for trace, avg in result.simulated_srm_avg_rtt.items():
            assert lo * 0.8 <= avg <= hi * 1.2, trace
        glo, ghi = result.gap_band
        for trace, gap in result.simulated_gap_rtt.items():
            assert glo * 0.5 <= gap <= ghi * 1.3, trace

    def test_render(self, ctx):
        text = report.render_section_3_4(exp.section_3_4(ctx, traces=TRACES))
        assert "§3.4" in text


class TestAblations:
    def test_policy_rows(self, ctx):
        rows = exp.ablation_policy(ctx, traces=("WRN951113",))
        labels = {r.label for r in rows}
        assert labels == {"most-recent", "most-frequent"}

    def test_cache_capacity_rows(self, ctx):
        rows = exp.ablation_cache_capacity(
            ctx, capacities=(1, 16), trace="WRN951113"
        )
        assert [r.label for r in rows] == ["capacity=1", "capacity=16"]
        # most-recent policy: capacity must not matter
        assert rows[0].avg_normalized_latency == pytest.approx(
            rows[1].avg_normalized_latency, rel=0.05
        )

    def test_reorder_delay_increases_latency(self, ctx):
        rows = exp.ablation_reorder_delay(
            ctx, delays=(0.0, 0.25), trace="WRN951113"
        )
        assert rows[1].avg_normalized_latency > rows[0].avg_normalized_latency

    def test_link_delay_rows(self, ctx):
        rows = exp.ablation_link_delay(ctx, delays=(0.010, 0.030), trace="WRN951216")
        assert len(rows) == 4
        # normalized latencies stay in the same ballpark across delays (§4.3)
        srm = [r for r in rows if r.label.startswith("srm")]
        assert srm[0].avg_normalized_latency == pytest.approx(
            srm[1].avg_normalized_latency, rel=0.5
        )

    def test_lossy_rows_structure(self, ctx):
        rows = exp.ablation_lossy_recovery(ctx, traces=("WRN951113",))
        assert len(rows) == 4
        labels = {r.label for r in rows}
        assert labels == {
            "srm/lossless",
            "cesrm/lossless",
            "srm/lossy",
            "cesrm/lossy",
        }

    def test_router_assist_cuts_erepl_exposure(self, ctx):
        rows = exp.router_assist_comparison(ctx, traces=("WRN951113",))
        by_protocol = {r.protocol: r for r in rows}
        assert (
            by_protocol["cesrm-router"].expedited_reply_crossings
            <= by_protocol["cesrm"].expedited_reply_crossings
        )

    def test_render_ablation(self, ctx):
        text = report.render_ablation(
            exp.ablation_policy(ctx, traces=("WRN951113",)), "Ablation"
        )
        assert "most-recent" in text
