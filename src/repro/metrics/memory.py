"""Process memory measurement shared by the benchmark suite.

Every bench that reports memory goes through :func:`peak_rss_bytes` so
the unit handling lives in one place: ``ru_maxrss`` is kibibytes on
Linux but bytes on macOS, and the value is a process-lifetime high-water
mark — it never decreases, so a bench that wants the peak of one
workload in isolation must run that workload in a fresh process (see
``bench/child.py``).
"""

from __future__ import annotations

import resource
import sys


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    A lifetime high-water mark: measuring a phase's own peak requires a
    dedicated process, not before/after deltas.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak
    return peak * 1024


def peak_rss_mb() -> float:
    """:func:`peak_rss_bytes` in mebibytes (rounded to 0.1 MiB)."""
    return round(peak_rss_bytes() / (1024 * 1024), 1)
