"""Shared fixtures for the benchmark suite.

Each ``bench_*`` module regenerates one table or figure of the paper.  A
session-scoped :class:`ExperimentContext` memoizes traces and runs, so
figures sharing simulations (1–4 use the same six traces) pay for them
once.  Every benchmark renders its table/figure to
``benchmarks/output/<name>.txt`` so the reproduced artefacts survive the
run (stdout is captured by pytest).

Replay length: ``REPRO_MAX_PACKETS`` (default 2500 here) packets per
trace; set ``REPRO_FULL_TRACES=1`` for the full-length traces.

Execution goes through the :mod:`repro.exec` engine: set ``REPRO_JOBS=N``
to fan uncached runs out over N worker processes, and
``REPRO_BENCH_CACHE=1`` to reuse the persistent run cache (off by default
so timings measure simulation, not cache reads).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.exec.cache import RunCache
from repro.harness.experiments import ExperimentContext

BENCH_MAX_PACKETS = 2500

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_max_packets() -> int | None:
    if os.environ.get("REPRO_FULL_TRACES", "") not in ("", "0"):
        return None
    override = os.environ.get("REPRO_MAX_PACKETS", "")
    if override:
        return int(override)
    return BENCH_MAX_PACKETS


def bench_jobs() -> int:
    return int(os.environ.get("REPRO_JOBS", "") or "1")


def bench_cache() -> RunCache | None:
    if os.environ.get("REPRO_BENCH_CACHE", "") not in ("", "0"):
        return RunCache()
    return None


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext(
        max_packets=bench_max_packets(),
        jobs=bench_jobs(),
        cache=bench_cache(),
    )


@pytest.fixture(scope="session")
def save_report():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

    return save


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once — simulation batches are seconds-long, so
    statistical repetition buys nothing and costs minutes."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
