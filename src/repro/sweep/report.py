"""Rendering for sweep queries: ASCII tables, CSV, and markdown.

The store answers every question as ``(headers, rows)``; this module
turns that into the three formats the CLI ships — the plain table the
terminal shows, CSV for spreadsheets/pandas, markdown for PR
descriptions and papers — plus the canned ``cesrm sweep report``
roll-up (one aggregate table per axis that actually varies).
"""

from __future__ import annotations

import csv
import io
from typing import Any, Sequence

from repro.sweep.store import DIMENSIONS, SweepStore

FORMATS = ("table", "csv", "markdown")


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_rows(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], fmt: str = "table"
) -> str:
    """Render one result set in the requested format."""
    if fmt == "csv":
        return _render_csv(headers, rows)
    if fmt == "markdown":
        return _render_markdown(headers, rows)
    if fmt == "table":
        return _render_table(headers, rows)
    raise ValueError(f"unknown format {fmt!r}; known: {', '.join(FORMATS)}")


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(row[i]) for row in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return out.getvalue().rstrip("\n")


def _render_markdown(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
    return "\n".join(lines)


#: The canned report's metric set (what §4's figures talk about).
REPORT_METRICS = (
    "avg_latency_rtt",
    "expedited_success",
    "expedited_fraction",
    "unrecovered",
)


def render_sweep_report(store: SweepStore, digest: str, fmt: str = "table") -> str:
    """The standing roll-up: aggregate the headline metrics over every
    dimension that varies in this sweep (a dimension with one distinct
    value adds nothing but noise to a group-by)."""
    varying = [
        dim for dim in DIMENSIONS if len(store.distinct(digest, dim)) > 1
    ]
    group_by = varying or ["protocol"]
    counts = store.counts(digest)
    headers, rows = store.query(
        digest, group_by=group_by, metrics=REPORT_METRICS, agg="mean"
    )
    lines = [
        f"sweep {digest[:12]}: {counts['ok']} ok, {counts['failed']} failed "
        f"({counts['recorded']} recorded)",
        f"grouped by {', '.join(group_by)} (mean over {REPORT_METRICS[0]} …):",
        "",
        render_rows(headers, rows, fmt),
    ]
    return "\n".join(lines)


__all__ = ["FORMATS", "REPORT_METRICS", "render_rows", "render_sweep_report"]
