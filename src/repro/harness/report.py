"""ASCII rendering of experiment results.

The paper's figures are bar charts per receiver / per trace; here each is
rendered as a fixed-width table plus a proportional text bar so the shapes
(who wins, by how much, where the crossovers sit) are visible directly in a
terminal or a benchmark log.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.harness.experiments import (
    AblationRow,
    Figure1Trace,
    Figure2Trace,
    Figure5Row,
    PacketCountTrace,
    RouterAssistRow,
    Section34Result,
    Table1Row,
)

BAR_WIDTH = 32


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A plain fixed-width table."""
    materialized = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if value is None:
        return "-"
    return str(value)


def bar(value: float, maximum: float, width: int = BAR_WIDTH) -> str:
    """A proportional text bar."""
    if maximum <= 0:
        return ""
    filled = round(width * min(value, maximum) / maximum)
    return "#" * filled


def render_table1(rows: list[Table1Row]) -> str:
    body = [
        (
            r.index,
            r.name,
            r.n_receivers,
            r.tree_depth,
            r.period_ms,
            r.target_packets,
            r.target_losses,
            r.synthesized_losses,
            f"{100 * r.loss_error:.1f}%",
        )
        for r in rows
    ]
    return "Table 1 — traces (synthesized; targets scaled to replay length)\n" + render_table(
        ["#", "Trace", "Rcvrs", "Depth", "Period(ms)", "Pkts", "TargetLoss", "SynthLoss", "Err"],
        body,
    )


def render_figure1(results: list[Figure1Trace]) -> str:
    blocks = []
    for res in results:
        peak = max(res.srm + res.cesrm + [0.01])
        lines = [
            f"Figure 1 — {res.trace}: avg normalized recovery time (RTTs); "
            f"mean reduction {100 * res.reduction:.0f}%"
        ]
        for i, receiver in enumerate(res.receivers):
            lines.append(
                f"  {receiver:>4}  SRM   {res.srm[i]:5.2f} |{bar(res.srm[i], peak)}"
            )
            lines.append(
                f"        CESRM {res.cesrm[i]:5.2f} |{bar(res.cesrm[i], peak)}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_figure2(results: list[Figure2Trace]) -> str:
    blocks = []
    for res in results:
        values = [g for g in res.gaps if g is not None]
        peak = max(values + [0.01])
        lines = [
            f"Figure 2 — {res.trace}: expedited vs non-expedited gap (RTTs); "
            f"mean {res.mean_gap:.2f}"
        ]
        for receiver, gap in zip(res.receivers, res.gaps):
            if gap is None:
                lines.append(f"  {receiver:>4}   n/a")
            else:
                lines.append(f"  {receiver:>4}  {gap:5.2f} |{bar(gap, peak)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_packet_counts(results: list[PacketCountTrace], what: str) -> str:
    blocks = []
    for res in results:
        totals = [
            s + m + e
            for s, m, e in zip(res.srm, res.cesrm_multicast, res.cesrm_expedited)
        ]
        peak = max(res.srm + totals + [1])
        lines = [
            f"{what} — {res.trace}: per-host counts "
            f"(SRM total {res.srm_total}, CESRM total {res.cesrm_total})"
        ]
        for i, host in enumerate(res.hosts):
            lines.append(
                f"  {host:>4}  SRM   {res.srm[i]:6d} |{bar(res.srm[i], peak)}"
            )
            lines.append(
                f"        CESRM {res.cesrm_multicast[i]:6d} multicast"
                f" + {res.cesrm_expedited[i]:6d} expedited"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_figure5(rows: list[Figure5Row]) -> str:
    body = [
        (
            r.trace,
            f"{r.expedited_success_pct:.0f}%",
            f"{r.retransmissions_pct:.0f}%",
            f"{r.multicast_control_pct:.0f}%",
            f"{r.unicast_control_pct:.0f}%",
            f"{r.total_pct:.0f}%",
        )
        for r in rows
    ]
    return (
        "Figure 5 — expedited success (5a) and CESRM overhead as % of SRM (5b)\n"
        + render_table(
            ["Trace", "Success", "Retrans", "McastCtl", "UcastCtl", "Total"],
            body,
        )
    )


def render_section_3_4(result: Section34Result) -> str:
    lines = [
        "§3.4 — analytical bounds vs simulation (RTT units)",
        f"  Eq.(1) non-expedited ≈ {result.model_non_expedited_rtt:.2f}"
        f"   Eq.(2) expedited ≈ {result.model_expedited_rtt:.2f}"
        f"   predicted gap ≈ {result.model_gap_rtt:.2f}",
        f"  expected SRM band {result.srm_band}, gap band {result.gap_band}",
    ]
    for trace, avg in result.simulated_srm_avg_rtt.items():
        gap = result.simulated_gap_rtt[trace]
        lines.append(f"  {trace:>10}: SRM avg {avg:5.2f}   gap {gap:5.2f}")
    return "\n".join(lines)


def render_ablation(rows: list[AblationRow], title: str) -> str:
    body = [
        (
            r.trace,
            r.label,
            r.avg_normalized_latency,
            f"{r.expedited_success_pct:.0f}%",
            r.retransmission_units,
            r.control_units,
            r.unrecovered,
        )
        for r in rows
    ]
    return f"{title}\n" + render_table(
        ["Trace", "Variant", "AvgLat(RTT)", "ExpSucc", "RetxUnits", "CtlUnits", "Unrec"],
        body,
    )


def render_router_assist(rows: list[RouterAssistRow]) -> str:
    body = [
        (
            r.trace,
            r.protocol,
            r.retransmission_units,
            r.expedited_reply_crossings,
            r.avg_normalized_latency,
        )
        for r in rows
    ]
    return "§3.3 — router-assisted CESRM exposure\n" + render_table(
        ["Trace", "Protocol", "RetxUnits", "EREPLCrossings", "AvgLat(RTT)"],
        body,
    )


def render_recovery_timeline(
    result, receiver: str, max_rows: int = 20, width: int = 48
) -> str:
    """An ASCII timeline of one receiver's recoveries.

    Each row is one lost packet: a bar from detection to repair, scaled to
    the receiver's RTT to the source, with ``E`` marking expedited repairs
    and ``.`` SRM fall-back repairs.
    """
    records = sorted(
        result.metrics.recoveries.get(receiver, []), key=lambda r: r.seq
    )[:max_rows]
    if not records:
        return f"{receiver}: no recoveries"
    rtt = result.rtt_to_source[receiver]
    peak = max(rec.latency for rec in records)
    lines = [
        f"recovery timeline — {receiver} (RTT to source "
        f"{1000 * rtt:.0f} ms; E = expedited, . = SRM fall-back)"
    ]
    for rec in records:
        marker = "E" if rec.expedited else "."
        length = bar(rec.latency, peak, width)
        lines.append(
            f"  pkt {rec.seq:>6}  {rec.latency / rtt:5.2f} RTT "
            f"|{length}{marker}"
        )
    return "\n".join(lines)
