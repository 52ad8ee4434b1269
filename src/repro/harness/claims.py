"""The paper's claims as one table, and the scorecard that judges it.

Every shape the evaluation asserts — Table 1, Figures 1–5, §3.4's bounds,
§4.2's attribution accuracy, the ablations, and the design claims of the
fault, workload and cache-policy layers — is one :class:`Claim` row: an
id (``fig5a.success_floor``), the paper's or the design's statement, the
:mod:`repro.harness.experiments` driver that measures it, the reduction
of that driver's output to one measured value, and the band the value
must fall in.  A claim the reproduction knowingly misses carries a named
**waiver**: the title of one of EXPERIMENTS.md's "Known deviations".

``cesrm verify-paper`` runs the table (:func:`scorecard`) and prints
paper / band / measured / verdict; ``--format markdown`` renders the
tables EXPERIMENTS.md carries between its ``claims:`` markers.

A band is a comma-separated conjunction of ``OP NUMBER`` terms (``"> 15"``,
``">= 0.5, <= 2.8"``) or the word ``ascending``.  A measured value is a
number, a ``(min, max)`` range, or a list of points (``ascending`` reads
the list in order): lower bounds judge its smallest point, upper bounds
its largest, and ``==`` every one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.harness import experiments
from repro.harness.analysis import EXPEDITED_GAP_BAND_RTT, SRM_FIRST_ROUND_BAND_RTT
from repro.metrics.stats import mean

#: Report sections, in output order: ``(key, title)``.
SECTIONS = (
    ("faults", "Replier crashes (fault injection)"),
    ("workloads", "Workload families"),
    ("cachelab", "Cache-policy frontier"),
    ("table1", "Table 1 — the 14 traces"),
    ("figure1", "Figure 1 — per-receiver average normalized recovery time"),
    ("figure2", "Figure 2 — expedited vs non-expedited gap"),
    ("figure3", "Figure 3 — request packets per host"),
    ("figure4", "Figure 4 — reply packets per host"),
    ("figure5", "Figure 5 — expedited success and overhead relative to SRM"),
    ("s34", "§3.4 — analytic latency model"),
    ("s42", "§4.2 — loss-location methodology"),
    ("ablations", "Ablations (DESIGN.md §3)"),
    ("design", "The reliable-multicast design space (§1)"),
    ("scale", "Group size and bandwidth"),
    ("churn", "Membership churn (§3.3/§5)"),
)

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


def holds(band: str, value: Any) -> bool:
    """Whether ``value`` falls inside ``band`` (see the module docstring)."""
    points = list(value) if isinstance(value, (tuple, list)) else [value]
    if band == "ascending":
        return points == sorted(points)
    for term in band.split(","):
        op, bound = term.split()
        judged = {">": [min(points)], "<": [max(points)]}.get(op[0], points)
        if not all(_OPS[op](point, float(bound)) for point in judged):
            return False
    return True


@dataclass(frozen=True)
class Claim:
    """One row of the claim table."""

    id: str
    #: Key into :data:`SECTIONS`.
    section: str
    #: What the paper (or, for the layers beyond it, DESIGN.md) states.
    statement: str
    #: Name of the :mod:`repro.harness.experiments` driver that measures it.
    experiment: str
    #: Reduces the driver's output to the measured value.
    measure: Callable[[Any], Any]
    band: str
    #: Format of one measured point, and the unit it and the band read in.
    fmt: str = "{:.2f}"
    unit: str = ""
    #: Title of the EXPERIMENTS.md "Known deviations" entry excusing a miss.
    waiver: str | None = None


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: Any

    @property
    def status(self) -> str:
        if holds(self.claim.band, self.measured):
            return "PASS"
        return "MISS" if self.claim.waiver is None else "WAIVED"

    def row(self) -> tuple[str, str, str, str, str]:
        claim, value = self.claim, self.measured
        unit = f" {claim.unit}" if claim.unit else ""
        points = value if isinstance(value, (tuple, list)) else [value]
        joiner = "–" if isinstance(value, tuple) else " → "
        measured = joiner.join(claim.fmt.format(v) for v in points) + unit
        band = claim.band if claim.band == "ascending" else claim.band + unit
        status = self.status
        if status == "WAIVED":
            status += f" ({claim.waiver})"
        return (claim.id, claim.statement, band, measured, status)


# ----------------------------------------------------------------------
# Reductions shared by several rows
# ----------------------------------------------------------------------
def _span(values) -> tuple[float, float]:
    values = list(values)
    return (min(values), max(values))


def _by(rows, *keys) -> dict:
    """Index experiment rows by the named attributes."""
    return {tuple(getattr(row, k) for k in keys): row for row in rows}


def _ratios(rows, numerator: str, denominator: str, attr: str, key="label") -> list[float]:
    """Per ``key`` (trace, group size, bandwidth), ``numerator``'s
    ``attr`` over ``denominator``'s."""
    index = _by(rows, key, "protocol")
    return [
        getattr(index[(k, numerator)], attr) / getattr(index[(k, denominator)], attr)
        for k in dict.fromkeys(getattr(row, key) for row in rows)
    ]


def _latency(rows, label: str) -> float:
    """Mean latency of the ablation rows labelled ``label``."""
    return mean([r.avg_normalized_latency for r in rows if r.label == label])


def _delay_spread(rows) -> float:
    spreads = []
    for protocol in ("srm", "cesrm"):
        values = [r.avg_normalized_latency for r in rows if r.label.startswith(protocol + "/")]
        spreads.append((max(values) - min(values)) / max(values))
    return max(spreads)


def _router_exposure(rows) -> float:
    crossings = {p: 0 for p in ("cesrm", "cesrm-router")}
    for row in rows:
        crossings[row.protocol] += row.expedited_reply_crossings
    return crossings["cesrm-router"] / crossings["cesrm"]


def _adaptive_unchanged(rows) -> int:
    """Traces where adaptation leaves (latency, requests) as they were."""
    seen: dict[str, set] = {}
    for r in rows:
        seen.setdefault(r.label, set()).add((round(r.avg_normalized_latency, 2), r.requests))
    return sum(len(pair) == 1 for pair in seen.values())


def _slowdown(rows, protocol: str) -> float:
    index = _by(rows, "label", "protocol")
    return (
        index[("0.75 Mbps", protocol)].avg_normalized_latency
        / index[("4.00 Mbps", protocol)].avg_normalized_latency
    )


def _lms(rows, protocol: str, churn: bool):
    return _by(rows, "protocol", "churn")[(protocol, churn)]


def _cells(rows, scenario=None, policy=None, key=None) -> list:
    """Cache stats blocks (or one ``key`` of each) matching the filters."""
    return [
        row.block if key is None else row.block[key]
        for row in rows
        if scenario in (None, row.scenario) and policy in (None, row.policy)
    ]


def _cell(rows, scenario: str, policy: str, key: str):
    return _cells(rows, scenario, policy, key)[0]


def _claims(section: str, experiment: str, rows: Sequence[tuple]) -> list[Claim]:
    """Claim rows of one section measured by one driver.  Each row is
    ``(id, statement, measure, band[, fmt[, unit[, waiver]]])``."""
    return [Claim(i, section, s, experiment, m, b, *rest) for i, s, m, b, *rest in rows]


PCT, COUNT, RATIO = "{:.1f}", "{:d}", "{:.2f}"
PAPER, PROB, TTL = "paper:capacity=16", "prob:capacity=16,p=0.5", "ttl:capacity=16,ttl=2s"

CLAIMS: tuple[Claim, ...] = (
    *_claims("faults", "replier_crashes", [
        ("faults.crashes_injected", "every planned crash is injected, in both protocols' runs",
         lambda rows: sum(n != r.crashed for r in rows for n in r.injected),
         "== 0", COUNT, "runs off plan"),
        ("faults.reliable", "every loss at a live receiver recovers through the SRM fall-back",
         lambda rows: max(s.unrecovered for r in rows for s in (r.srm, r.cesrm)),
         "== 0", COUNT, "unrecovered"),
        ("faults.expedited_baseline", "fault-free, the expedited path carries real traffic",
         lambda rows: rows[0].cesrm.expedited_fraction, "> 0.1"),
        ("faults.cesrm_advantage", "fault-free, CESRM recovers faster than SRM",
         lambda rows: rows[0].cesrm_advantage, "> 0", RATIO, "RTT"),
        ("faults.evictions_on_failure", "failed expedited attempts evict the stale pair",
         lambda rows: _span(r.cache_evictions for r in rows[1:]), "> 0", COUNT, "evictions"),
        ("faults.expedited_starves", "crashing the top three repliers starves the expedited path",
         lambda rows: rows[-1].cesrm.expedited_fraction / rows[0].cesrm.expedited_fraction,
         "< 1", "{:.3f}", "× fault-free"),
        ("faults.advantage_shrinks",
         "so CESRM's edge over SRM shrinks: the expedited→fallback crossover",
         lambda rows: rows[-1].cesrm_advantage / rows[0].cesrm_advantage,
         "< 1", "{:.3f}", "× fault-free"),
    ]),
    *_claims("workloads", "workload_families", [
        ("workloads.reliable", "reliability holds under every traffic shape, both protocols",
         lambda rows: max(r.stats.unrecovered for r in rows), "== 0", COUNT, "unrecovered"),
        ("workloads.full_budget", "every family offers the full packet budget",
         lambda rows: max(abs(r.events - r.n_packets) for r in rows),
         "== 0", COUNT, "packets short"),
        ("workloads.srm_no_expedited", "SRM never recovers through an expedited path",
         lambda rows: max(r.stats.expedited_fraction for r in rows if r.protocol == "srm"),
         "== 0"),
        ("workloads.cesrm_expedited",
         "CESRM's expedited path carries recovery under every traffic shape",
         lambda rows: _span(r.stats.expedited_fraction for r in rows if r.protocol == "cesrm"),
         "> 0.05"),
        ("workloads.cesrm_faster", "CESRM's latency advantage survives off-nominal traffic",
         lambda rows: [
             c.stats.avg_normalized_latency / s.stats.avg_normalized_latency
             for s, c in zip(rows[::2], rows[1::2])
         ],
         "< 1", RATIO, "× SRM"),
        ("workloads.multi_source", "multi-source traffic really has four senders",
         lambda rows: _by(rows, "workload", "protocol")[
             ("multi_source:senders=4", "cesrm")
         ].senders,
         "== 4", COUNT),
    ]),
    *_claims("cachelab", "cache_policies", [
        ("cachelab.caches_built", "every cell builds per-source recovery caches",
         lambda rows: min(_cells(rows, key="caches")), "> 0", COUNT),
        ("cachelab.cache_exercised", "the paper's policy inserts pairs in every scenario",
         lambda rows: min(_cells(rows, policy=PAPER, key="inserts")), "> 0", COUNT, "inserts"),
        ("cachelab.hit_rate_bounded", "hit rates are fractions",
         lambda rows: _span(_cells(rows, key="hit_rate")), ">= 0, <= 1", "{:.3f}"),
        ("cachelab.eviction_taxonomy", "evictions are capacity plus replier evictions",
         lambda rows: sum(
             c["evictions"] != c["capacity_evictions"] + c["replier_evictions"]
             for c in _cells(rows)
         ),
         "== 0", COUNT, "cells off"),
        ("cachelab.unbounded_no_capacity_evictions",
         "`unbounded` anchors every frontier's zero-churn end",
         lambda rows: max(_cells(rows, policy="unbounded", key="capacity_evictions")),
         "== 0", COUNT, "evictions"),
        ("cachelab.unbounded_no_rejects", "`unbounded` admits every pair",
         lambda rows: max(_cells(rows, policy="unbounded", key="rejects")),
         "== 0", COUNT, "rejects"),
        ("cachelab.paper_tracks_unbounded",
         "under churn the paper's policy tracks the unbounded bound",
         lambda rows: abs(
             _cell(rows, "churn", PAPER, "expedited_fraction")
             - _cell(rows, "churn", "unbounded", "expedited_fraction")
         ),
         "<= 0.02", "{:.3f}"),
        ("cachelab.prob_sheds_inserts",
         "probabilistic admission sheds insert pressure in every scenario",
         lambda rows: [
             _cell(rows, s, PROB, "inserts") / _cell(rows, s, PAPER, "inserts")
             for s in ("churn", "replier_crash", "flash_crowd")
         ],
         "< 1", RATIO, "× paper"),
        ("cachelab.ttl_bad_corner", "aggressive TTL decay is the bad corner under churn",
         lambda rows: _cell(rows, "churn", TTL, "expedited_fraction")
         / _cell(rows, "churn", PAPER, "expedited_fraction"),
         "< 1", RATIO, "× paper"),
        ("cachelab.ttl_expires", "the TTL policy expires entries under a flash crowd",
         lambda rows: _cell(rows, "flash_crowd", TTL, "expirations"),
         "> 0", COUNT, "expirations"),
        ("cachelab.only_ttl_expires", "no other policy expires entries",
         lambda rows: max(
             r.block["expirations"]
             for r in rows
             if r.scenario == "flash_crowd" and not r.policy.startswith("ttl")
         ),
         "== 0", COUNT, "expirations"),
        ("cachelab.replier_evictions_need_crashes",
         "replier eviction fires only where repliers fail",
         lambda rows: max(
             r.block["replier_evictions"] for r in rows if r.scenario != "replier_crash"
         ),
         "== 0", COUNT, "evictions"),
    ]),
    *_claims("table1", "table1", [
        ("table1.coverage", "the 14 single-source traces of Table 1",
         len, "== 14", COUNT, "traces"),
        ("table1.losses", "every trace carries losses",
         lambda rows: min(r.synthesized_losses for r in rows), "> 0", COUNT, "losses"),
        ("table1.loss_calibration",
         "synthesized loss totals match the published (truncation-scaled) ones",
         lambda rows: 100 * max(r.loss_error for r in rows), "< 35", PCT, "%"),
    ]),
    *_claims("figure1", "figure1", [
        ("fig1.coverage", "the six typical traces", len, "== 6", COUNT, "traces"),
        ("fig1.per_trace_reduction", "CESRM's per-receiver averages are 40–70 % below SRM's",
         lambda res: 100 * min(r.reduction for r in res), "> 15", PCT, "%"),
        ("fig1.mean_reduction", "~50 % below SRM's on average",
         lambda res: 100 * mean([r.reduction for r in res]), ">= 30, <= 75", PCT, "%"),
        ("fig1.srm_ballpark", "SRM's per-receiver averages sit in §3.4's ballpark",
         lambda res: _span(v for r in res for v in r.srm), ">= 0, < 4", RATIO, "RTT"),
    ]),
    *_claims("figure2", "figure2", [
        ("fig2.coverage", "the six typical traces", len, "== 6", COUNT, "traces"),
        ("fig2.gaps_defined", "every trace has receivers recovering both ways",
         lambda res: min(sum(g is not None for g in r.gaps) for r in res),
         ">= 1", COUNT, "receivers"),
        ("fig2.gap_band", "expedited recoveries are 1–2.5 RTT faster than non-expedited ones",
         lambda res: _span(r.mean_gap for r in res), ">= 0.5, <= 2.8", RATIO, "RTT"),
    ]),
    *_claims("figure3", "figure3", [
        ("fig3.coverage", "the six typical traces", len, "== 6", COUNT, "traces"),
        ("fig3.source_silent", "the source (\"receiver 0\") sends no requests",
         lambda res: max(max(r.srm[0], r.cesrm_multicast[0]) for r in res),
         "== 0", COUNT, "requests"),
        ("fig3.fewer_multicast_requests", "CESRM multicasts fewer requests than SRM",
         lambda res: [sum(r.cesrm_multicast) / sum(r.srm) for r in res], "< 1", RATIO, "× SRM"),
        ("fig3.expedited_requests", "a large share of CESRM's requests are cheap unicasts",
         lambda res: min(sum(r.cesrm_expedited) for r in res), "> 0", COUNT, "requests"),
    ]),
    *_claims("figure4", "figure4", [
        ("fig4.coverage", "the six typical traces", len, "== 6", COUNT, "traces"),
        ("fig4.fewer_replies", "CESRM sends substantially fewer retransmissions",
         lambda res: [r.cesrm_total / r.srm_total for r in res], "< 1", RATIO, "× SRM"),
        ("fig4.expedited_replies", "one expedited reply per expedited recovery",
         lambda res: min(sum(r.cesrm_expedited) for r in res), "> 0", COUNT, "replies"),
    ]),
    *_claims("figure5", "figure5", [
        ("fig5.coverage", "all 14 traces", len, "== 14", COUNT, "traces"),
        ("fig5a.success_70",
         "expedited success exceeds 70 % on every trace and 80 % on all but two",
         lambda rows: sum(r.expedited_success_pct < 70 for r in rows),
         "<= 2", COUNT, "traces below 70 %"),
        ("fig5a.success_floor", "expedited success exceeds 70 % on every trace",
         lambda rows: _span(r.expedited_success_pct for r in rows), "> 55", PCT, "%"),
        ("fig5b.retransmissions", "retransmission overhead below 80 % of SRM's on every trace",
         lambda rows: _span(r.retransmissions_pct for r in rows), "< 85", PCT, "%"),
        ("fig5b.control", "control overhead below 52 % on all but one trace",
         lambda rows: sum(r.multicast_control_pct + r.unicast_control_pct > 60 for r in rows),
         "<= 2", COUNT, "traces above 60 %"),
        ("fig5b.total", "total overhead clearly below SRM's",
         lambda rows: _span(r.total_pct for r in rows), "< 100", PCT, "%"),
    ]),
    *_claims("s34", "section_3_4", [
        ("s34.eq1", "Eq. (1): first-round non-expedited recovery ≈ 6.5 d = 3.25 RTT",
         lambda r: r.model_non_expedited_rtt, "== 3.25", RATIO, "RTT"),
        ("s34.eq2", "Eq. (2): expedited recovery ≈ REORDER-DELAY + 1 RTT",
         lambda r: r.model_expedited_rtt, "== 1", RATIO, "RTT"),
        ("s34.srm_band", "simulated SRM averages lie in 1.5–3.25 RTT (§4.4)",
         lambda r: _span(r.simulated_srm_avg_rtt.values()),
         f">= {SRM_FIRST_ROUND_BAND_RTT[0] * 0.8:g}, <= {SRM_FIRST_ROUND_BAND_RTT[1] * 1.1:g}",
         RATIO, "RTT"),
        ("s34.gap_band", "simulated expedited gaps lie in 1–2.5 RTT (§4.4)",
         lambda r: _span(r.simulated_gap_rtt.values()),
         f">= {EXPEDITED_GAP_BAND_RTT[0] * 0.6:g}, <= {EXPEDITED_GAP_BAND_RTT[1] * 1.2:g}",
         RATIO, "RTT"),
    ]),
    *_claims("s42", "attribution", [
        ("s42.coverage", "all 14 traces", len, "== 14", COUNT, "traces"),
        ("s42.posterior_95",
         "≥ 90 % of selected link combinations have posterior > 95 % on 13 of 14 traces",
         lambda rows: sum(r.above_95 <= 0.90 for r in rows), "<= 1", COUNT, "traces below"),
        ("s42.estimators_agree",
         "the Yajnik and Cáceres (MLE) link-rate estimators yield very similar estimates",
         lambda rows: max(r.estimator_gap for r in rows), "< 0.03", "{:.4f}"),
    ]),
    *_claims("s42", "trace_locality", [
        ("locality.coverage", "all 14 traces", len, "== 14", COUNT, "traces"),
        ("locality.burst", "[10]: losses come in bursts",
         lambda rows: min(r.mean_burst for r in rows), "> 1.3", RATIO, "packets"),
        ("locality.gain", "[10]: a loss makes the next one far likelier",
         lambda rows: min(r.locality_gain for r in rows), "> 2", "{:.1f}", "×"),
        ("locality.concentration", "[10]: losses concentrate on a few links",
         lambda rows: 100 * min(r.top3_links for r in rows), "> 50", PCT, "% on top 3"),
        ("locality.recent_accuracy", "[10]: the most recent loss predicts the next loss's link",
         lambda rows: 100 * min(r.most_recent_accuracy for r in rows), "> 45", PCT, "%"),
    ]),
    *_claims("ablations", "ablation_policy", [
        ("policy.coverage", "both policies over the six typical traces",
         lambda rows: min(
             sum(r.label == p for r in rows) for p in ("most-recent", "most-frequent")
         ),
         "== 6", COUNT, "traces"),
        ("policy.most_recent",
         "most-recent-loss selection is at least as good as most-frequent (§4.3)",
         lambda rows: _latency(rows, "most-recent") / _latency(rows, "most-frequent"),
         "<= 1.05", RATIO, "× most-frequent"),
        ("policy.reliable", "both policies recover every loss",
         lambda rows: max(r.unrecovered for r in rows), "== 0", COUNT, "unrecovered"),
    ]),
    *_claims("ablations", "ablation_cache_capacity", [
        ("cache.capacity_latency", "most-recent-loss needs a single cache entry (§3.1)",
         lambda rows: max(
             abs(r.avg_normalized_latency - rows[0].avg_normalized_latency) for r in rows
         ),
         "< 0.05", "{:.3f}", "RTT apart"),
        ("cache.capacity_success", "expedited success does not depend on capacity",
         lambda rows: max(
             abs(r.expedited_success_pct - rows[0].expedited_success_pct) for r in rows
         ),
         "< 2", PCT, "points apart"),
    ]),
    *_claims("ablations", "ablation_reorder_delay", [
        ("reorder.monotone", "latency grows with the REORDER-DELAY guard (§3.2)",
         lambda rows: [r.avg_normalized_latency for r in rows], "ascending", "{:.3f}", "RTT",
         "REORDER-DELAY sweep not monotone"),
        ("reorder.grows", "the longest guard is the slowest",
         lambda rows: rows[-1].avg_normalized_latency / rows[0].avg_normalized_latency,
         "> 1", RATIO, "× no guard"),
    ]),
    *_claims("ablations", "ablation_lossy_recovery", [
        ("lossy.cesrm_wins", "with lossy recovery CESRM still wins (§4.3)",
         lambda rows: _latency(rows, "cesrm/lossy") / _latency(rows, "srm/lossy"),
         "< 1", RATIO, "× SRM"),
        ("lossy.not_faster", "and latencies are not better than lossless ones",
         lambda rows: _latency(rows, "srm/lossy") / _latency(rows, "srm/lossless"),
         ">= 0.9", RATIO, "× lossless"),
    ]),
    *_claims("ablations", "ablation_link_delay", [
        ("delay.coverage", "10, 20 and 30 ms links for both protocols",
         lambda rows: min(sum(r.label.startswith(p + "/") for r in rows) for p in ("srm", "cesrm")),
         "== 3", COUNT, "delays"),
        ("delay.spread", "normalized results are \"very similar\" (§4.3)",
         lambda rows: 100 * _delay_spread(rows), "< 35", PCT, "% spread"),
    ]),
    *_claims("ablations", "router_assist_comparison", [
        ("router.localized", "turning-point subcast localizes expedited replies (§3.3)",
         _router_exposure, "< 1", RATIO, "× plain crossings"),
        ("router.latency_parity", "localization does not slow recovery down",
         lambda rows: _ratios(rows, "cesrm-router", "cesrm", "avg_normalized_latency", "trace"),
         "<= 1.15", RATIO, "× plain latency"),
    ]),
    *_claims("ablations", "ablation_adaptive_timers", [
        ("adaptive.reliable", "adaptive SRM timers never lose reliability (ToN '97 §V)",
         lambda rows: max(r.unrecovered for r in rows), "== 0", COUNT, "unrecovered"),
        ("adaptive.changes_behaviour", "adaptation moves latency or request volume",
         _adaptive_unchanged, "== 0", COUNT, "traces unchanged"),
    ]),
    *_claims("design", "protocol_family", [
        ("family.reliable", "every architecture recovers every loss",
         lambda rows: max(r.unrecovered for r in rows), "== 0", COUNT, "unrecovered"),
        ("family.cesrm_faster", "CESRM is far faster than SRM",
         lambda rows: _ratios(rows, "cesrm", "srm", "avg_normalized_latency"),
         "< 1", RATIO, "× SRM"),
        ("family.lms_fastest", "LMS's pre-designated repliers are faster still",
         lambda rows: _ratios(rows, "lms", "cesrm", "avg_normalized_latency"),
         "< 1", RATIO, "× CESRM"),
        ("family.rmtp_slowest", "RMTP's latency is bound by its status cycle",
         lambda rows: _ratios(rows, "rmtp", "cesrm", "avg_normalized_latency"),
         "> 1", RATIO, "× CESRM"),
        ("family.cesrm_cheaper", "CESRM retransmits at a fraction of SRM's traffic",
         lambda rows: _ratios(rows, "cesrm", "srm", "retransmission_units"),
         "< 1", RATIO, "× SRM"),
        ("family.lms_cheaper", "LMS retransmits less than SRM",
         lambda rows: _ratios(rows, "lms", "srm", "retransmission_units"), "< 1", RATIO, "× SRM"),
        ("family.rmtp_cheaper", "RMTP retransmits less than SRM",
         lambda rows: _ratios(rows, "rmtp", "srm", "retransmission_units"), "< 1", RATIO, "× SRM"),
        ("family.lms_no_multicast_control", "LMS multicasts no control traffic",
         lambda rows: max(r.multicast_control_units for r in rows if r.protocol == "lms"),
         "== 0", COUNT, "units"),
        ("family.rmtp_no_multicast_control", "RMTP multicasts no control traffic",
         lambda rows: max(r.multicast_control_units for r in rows if r.protocol == "rmtp"),
         "== 0", COUNT, "units"),
    ]),
    *_claims("scale", "scalability", [
        ("scale.reliable", "both protocols recover every loss at 8, 16, 24 and 40 receivers",
         lambda rows: max(r.unrecovered for r in rows), "== 0", COUNT, "unrecovered"),
        ("scale.cesrm_faster", "CESRM recovers faster than SRM at every group size",
         lambda rows: _ratios(rows, "cesrm", "srm", "avg_normalized_latency"),
         "< 1", RATIO, "× SRM"),
        ("scale.cesrm_cheaper", "and retransmits less at every group size",
         lambda rows: _ratios(rows, "cesrm", "srm", "retransmission_units"),
         "< 1", RATIO, "× SRM"),
    ]),
    *_claims("scale", "congestion", [
        ("congestion.cesrm_faster", "CESRM is faster at 4, 1.5 and 0.75 Mbps",
         lambda rows: _ratios(rows, "cesrm", "srm", "avg_normalized_latency"),
         "< 1", RATIO, "× SRM"),
        ("congestion.srm_degrades_more",
         "shrinking bandwidth hurts SRM's duplicate repairs more than CESRM",
         lambda rows: _slowdown(rows, "srm") / _slowdown(rows, "cesrm"),
         "> 1", RATIO, "× CESRM's slowdown"),
    ]),
    *_claims("churn", "churn", [
        ("churn.crashes", "two cached repliers crash mid-run",
         lambda o: o.crashes, "== 2", COUNT, "crashes"),
        ("churn.reliable", "CESRM continues to recover packets when cached repliers crash",
         lambda o: o.stats.unrecovered, "== 0", COUNT, "unrecovered"),
        ("churn.recovers", "live receivers keep recovering",
         lambda o: o.stats.recoveries, "> 0", COUNT, "recoveries"),
        ("churn.expedited_resumes",
         "expedited recovery resumes after the second crash (packet 80 of 120)",
         lambda o: o.last_expedited_seq, "> 80", COUNT, "last expedited packet"),
        ("churn.expedited_share", "a solid share of recoveries stays expedited",
         lambda o: o.stats.expedited_fraction, "> 0.4"),
    ]),
    *_claims("churn", "lms_comparison", [
        ("lms.static_reliable", "with static membership LMS and CESRM recover everything",
         lambda rows: max(_lms(rows, p, False).unrecovered for p in ("lms", "cesrm")),
         "== 0", COUNT, "unrecovered"),
        ("lms.localized", "LMS sends no multicast recovery traffic",
         lambda rows: _lms(rows, "lms", False).multicast_recovery, "== 0", COUNT, "packets"),
        ("lms.crashed", "the churn runs crash the designated replier",
         lambda rows: min(_lms(rows, p, True).crashes for p in ("lms", "cesrm")),
         ">= 1", COUNT, "crashes"),
        ("lms.cesrm_survives", "under churn CESRM's SRM fall-back recovers everything",
         lambda rows: _lms(rows, "cesrm", True).unrecovered, "== 0", COUNT, "unrecovered"),
        ("lms.lms_stalls", "while LMS's stale router state stalls recovery",
         lambda rows: _lms(rows, "lms", True).unrecovered, "> 0", COUNT, "stalled"),
    ]),
)


def select(ids: Sequence[str] = ()) -> tuple[Claim, ...]:
    """The claims named by ``ids`` — each a claim id or a dotted prefix
    (``fig5a``) — or all of them."""

    def named(claim: Claim, i: str) -> bool:
        return claim.id == i or claim.id.startswith(i + ".")

    unknown = [i for i in ids if not any(named(c, i) for c in CLAIMS)]
    if unknown:
        raise ValueError(f"unknown claim {', '.join(map(repr, unknown))}")
    return tuple(c for c in CLAIMS if not ids or any(named(c, i) for i in ids))


def scorecard(
    ctx: experiments.ExperimentContext, claims: Sequence[Claim] = CLAIMS
) -> list[Verdict]:
    """Run each needed experiment once and judge every claim on it."""
    outputs: dict[str, Any] = {}
    for claim in claims:
        if claim.experiment not in outputs:
            outputs[claim.experiment] = getattr(experiments, claim.experiment)(ctx)
    return [Verdict(c, c.measure(outputs[c.experiment])) for c in claims]


HEADERS = ("claim", "paper / design", "band", "measured", "verdict")


def render(verdicts: Sequence[Verdict], fmt: str = "table") -> str:
    """One table per section; ``markdown`` sections open with a ``###``
    heading, which is what EXPERIMENTS.md's ``claims:`` blocks hold."""
    from repro.sweep.report import render_rows

    blocks = []
    for key, title in SECTIONS:
        rows = [v.row() for v in verdicts if v.claim.section == key]
        if rows:
            heading = f"### {title}" if fmt == "markdown" else title
            blocks.append(f"{heading}\n\n{render_rows(HEADERS, rows, fmt)}")
    return "\n\n".join(blocks)


def summary(verdicts: Sequence[Verdict]) -> str:
    counts = dict.fromkeys(("PASS", "WAIVED", "MISS"), 0)
    for verdict in verdicts:
        counts[verdict.status] += 1
    return f"{len(verdicts)} claims: " + ", ".join(f"{n} {s}" for s, n in counts.items())
