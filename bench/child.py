"""The measuring process: one workload, one seed, one fresh interpreter.

``run.py`` starts this module's :func:`main` in a child so every
workload gets a clean peak RSS and a set-up time of its own.  The child
prints ``READY`` once set-up is done (the parent times that), then either
loops cold + warm units for ``--seconds`` (untraced: the end-to-end
numbers) or hands over to :mod:`bench.trace` (the per-layer ledger), and
prints its result as one JSON line.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from pathlib import Path

READY = "READY"

#: After every cold unit, warm passes are timed for this share of the
#: unit's own time (and at least MIN_WARM_PASSES of them): a warm pass
#: takes 2 to 50 ms, so a fixed count would leave the cheap ones to noise.
WARM_SHARE = 0.1
MIN_WARM_PASSES = 5
#: A run always times at least this many cold units, however long they take.
MIN_UNITS = 3


def set_up(workload: str, seed: int, quick: bool, workroot: Path):
    """Everything a run pays before its first timed unit: import the
    program, generate the inputs, run one scaled-down cold + warm unit so
    lazy imports, the source fingerprint and (for the fleet) the first
    pool fork are behind us.  The warm-up is not a measured input, so it
    always uses seed 0: set-up time then does not depend on ``--seed``."""
    from bench.workloads import build_inputs, run_pass

    inputs = build_inputs(workload, seed, quick)
    warmup = workroot / "warmup"
    warmup.mkdir(parents=True)
    small = build_inputs(workload, 0, quick=True)
    run_pass(small, warmup)
    run_pass(small, warmup)
    shutil.rmtree(warmup)
    return inputs


def measure(inputs, seconds: float, quick: bool, workroot: Path) -> dict:
    """Closed loop, one client: cold unit, its warm passes, next unit —
    until ``seconds`` are spent (``quick``: one unit).  GC is off inside
    every timed region and collected between them."""
    from bench.workloads import (
        RepairTally,
        Tally,
        canonical,
        read_outputs,
        repair_tally,
        run_pass,
    )

    n_jobs = len(inputs.jobs)
    cold: list[float] = []
    warm: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    reference = None
    repair = RepairTally()
    events = 0
    started = time.perf_counter()
    gc.disable()
    try:
        while True:
            workdir = workroot / f"unit{len(cold)}"
            workdir.mkdir(parents=True)
            gc.collect()
            t0 = time.perf_counter()
            tally = run_pass(inputs, workdir)
            cold.append(time.perf_counter() - t0)
            attempted += n_jobs
            failed += tally.failed
            if tally != Tally(executed=n_jobs, cached=0, failed=0):
                problems.append(f"cold unit {len(cold) - 1}: {tally}, want {n_jobs} executed")

            outputs = read_outputs(inputs, workdir)
            text = canonical(outputs)
            if reference is None:
                reference = text
                for summary in outputs.values():
                    repair += repair_tally(summary)
                    events += summary.events_processed
            elif text != reference:
                problems.append(f"cold unit {len(cold) - 1}: summaries differ from unit 0")
                failed += n_jobs

            gc.collect()
            passes = 0
            warm_started = time.perf_counter()
            while (
                passes < MIN_WARM_PASSES
                or time.perf_counter() - warm_started < WARM_SHARE * cold[-1]
            ):
                t0 = time.perf_counter()
                tally = run_pass(inputs, workdir)
                warm.append(time.perf_counter() - t0)
                passes += 1
                attempted += n_jobs
                failed += tally.failed
                if tally != Tally(executed=0, cached=n_jobs, failed=0):
                    problems.append(f"warm pass after unit {len(cold) - 1}: {tally}, want {n_jobs} cached")
            shutil.rmtree(workdir)

            spent = time.perf_counter() - started
            if quick or (
                len(cold) >= MIN_UNITS
                and spent + 0.5 * statistics.median(cold) >= seconds
            ):
                break
    finally:
        gc.enable()
    if not repair.consistent:
        problems.append(f"loss accounting does not add up: {repair}")

    from repro.metrics.memory import peak_rss_bytes

    return {
        "samples": {"wall_s": cold, "warm_s": warm},
        "jobs": n_jobs,
        "peak_rss_mb": peak_rss_bytes() / 2**20,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repair": {
            "losses": repair.losses,
            "recovered": repair.recovered,
            "unrecovered": repair.unrecovered,
            "undetected": repair.undetected,
        },
        "events": events,
    }


def main(workload: str, seed: int, seconds: float, traced: bool, quick: bool,
         setup_only: bool, workroot: Path) -> int:
    inputs = set_up(workload, seed, quick, workroot)
    print(READY, flush=True)
    if setup_only:
        return 0
    if traced:
        from bench.trace import traced_pass

        result = traced_pass(inputs, seconds, quick, workroot)
    else:
        result = measure(inputs, seconds, quick, workroot)
    print(json.dumps(result), flush=True)
    return 0

