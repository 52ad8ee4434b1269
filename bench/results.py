"""One result schema: sample summaries, the latest/history ledger, and
the comparison of two result files.

A result file is ``{"meta": {...}, "workloads": {name: {"end_to_end":
{metric: summary}, "per_layer": {metric: summary}, "ops": {...},
"repair": {...}, ...}}}`` where every ``summary`` is ``{"value", "unit",
"median", "p25", "p75", "min", "max", "n"}``.  ``latest.json`` holds the
last invocation; ``history.jsonl`` gets the same object appended as one
line, never rewritten.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.spec import END_TO_END, PER_LAYER

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, median, p75) as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values: list[float], unit: str, pick: str = "median") -> dict:
    """The stored form of one metric's samples.  ``pick`` names the
    statistic the metric reports as its ``value``."""
    p25, median, p75 = quartiles(values)
    out = {
        "unit": unit,
        "median": median,
        "p25": p25,
        "p75": p75,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
    return {"value": out[pick], **out}


def write_ledger(result: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "latest.json").write_text(json.dumps(result, indent=1) + "\n")
    with (RESULTS_DIR / "history.jsonl").open("a") as handle:
        handle.write(json.dumps(result) + "\n")


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Judge result ``b`` against parent result ``a`` on every (workload,
    end-to-end metric) pair both hold.  Returns the report lines and
    whether any pair is worse than its bound."""
    lines = [
        f"{'workload':<15} {'metric':<16} {'A':>12} {'B':>12} "
        f"{'B/A':>7} {'A spread':>9} {'bound':>6}  verdict"
    ]
    any_worse = False
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric in END_TO_END:
            sa = wa["end_to_end"].get(metric.name)
            sb = wb["end_to_end"].get(metric.name)
            if sa is None or sb is None:
                continue
            base, other = sa["value"], sb["value"]
            spread = (sa["p75"] - sa["p25"]) / abs(sa["median"]) if sa["median"] else 0.0
            worse = _worse_by(base, other, metric.better)
            if spread > metric.bound:
                verdict = "unresolved (A's spread exceeds the bound)"
            elif worse > metric.bound:
                verdict = "WORSE"
                any_worse = True
            elif -worse > spread:
                verdict = "better"
            else:
                verdict = "within bound"
            ratio = other / base if base else float("nan")
            lines.append(
                f"{name:<15} {metric.name:<16} {base:>12.4f} {other:>12.4f} "
                f"{ratio:>6.3f}x {spread:>8.1%} {metric.bound:>6.0%}  {verdict}"
            )
    return lines, any_worse


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Exact counts (job/repair accounting, simulated events, every
    per-layer metric whose unit is ``count``) that differ between two
    results of the same commit, seed and sizes."""
    counted = {m.name for m in PER_LAYER if m.unit == "count"}
    out = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for key in ("repair", "events"):
            if wa.get(key) != wb.get(key):
                out.append(f"{name}: {key} {wa.get(key)} != {wb.get(key)}")
        if wa["ops"]["failed"] != wb["ops"]["failed"]:
            out.append(f"{name}: ops failed {wa['ops']['failed']} != {wb['ops']['failed']}")
        for metric in counted & set(wa.get("per_layer", {})) & set(wb.get("per_layer", {})):
            va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
            if va != vb:
                out.append(f"{name}: {metric} {va} != {vb}")
    return out
