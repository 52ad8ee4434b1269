"""Input generation and the unit of work for the five workloads.

Every workload is a tuple of :class:`~repro.exec.jobs.RunJob`\\ s made
from ``--seed``; the program under test receives only those jobs.  One
*pass* runs them all through :class:`~repro.exec.pool.ExecutionEngine`
against a run-cache directory — exactly what ``cesrm run`` / ``cesrm
sweep run`` do after argument parsing.  A pass over an empty directory
is the **cold unit** (synthesize → build → run → finalize → summary →
cache put); the same pass over the directory it just filled is the
**warm unit** (key → digest → cache get → decode).

What ``--seed`` varies: ``SimulationConfig.seed`` (every protocol timer
draw) for the four simulation workloads, and the sweep grid's seed axis
for ``sweep_fleet``.  The simulation workloads keep their trace
*synthesis* seed fixed: on generative topologies the loss pattern is
heavy-tailed in that seed (the same spec yields 0 or 270 losses), which
would make a unit's work — not the program's speed — the thing a seed
changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, source_fingerprint
from repro.exec.pool import ExecutionEngine
from repro.exec.summary import RunSummary
from repro.harness.config import SimulationConfig
from repro.sweep import SweepSpec, SweepStore, compile_sweep, run_sweep

from bench.spec import WORKLOAD_NAMES

#: Pool workers for ``sweep_fleet`` — the only workload that uses any.
WORKERS = min(2, os.cpu_count() or 1)

#: CESRM jobs name the paper's cache explicitly: byte-equal behaviour to
#: the default, but the run then reports its cache statistics.
PAPER_CACHE = "paper:capacity=16"

FLEET_TRACES = ("WRN950919", "RFV960419", "WRN951113", "UCB960424")


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs."""

    jobs: tuple[RunJob, ...]
    #: The compiled grid the jobs came from (``sweep_fleet`` only): a pass
    #: then goes through ``run_sweep`` and the pool instead of a serial
    #: ``ExecutionEngine.execute``.
    sweep: SweepSpec | None = None
    #: The grid mapping ``sweep`` was compiled from (for ``sweep.compile_ms``).
    grid: dict | None = None
    #: The job ``obs.ring_overhead_ratio`` is taken on, where it is taken.
    ring_job: RunJob | None = None


@dataclass(frozen=True)
class Tally:
    """What one pass did."""

    executed: int
    cached: int
    failed: int


def _job(trace: str, protocol: str, seed: int, trace_seed: int = 0,
         max_packets: int | None = None, **config) -> RunJob:
    if protocol != "srm":
        config.setdefault("cache", PAPER_CACHE)
    return RunJob(
        trace=trace,
        protocol=protocol,
        config=SimulationConfig(seed=seed, max_packets=max_packets, **config),
        trace_seed=trace_seed,
        trace_max_packets=max_packets,
    )


def _paper_trace(seed: int, quick: bool) -> Inputs:
    packets = 300 if quick else 3000
    srm, cesrm = (
        _job("WRN951113", protocol, seed, max_packets=packets)
        for protocol in ("srm", "cesrm")
    )
    return Inputs((srm, cesrm), ring_job=cesrm)


def _scale_lossfree(seed: int, quick: bool) -> Inputs:
    shape = "transits=2,stubs=5,hosts=20" if quick else "transits=8,stubs=25,hosts=80"
    return Inputs(
        (
            _job(
                f"transit_stub:{shape},packets=8,loss=1e-9", "cesrm", seed,
                prime_distances=True, drain_time=2.0, kernel="vector",
            ),
        )
    )


def _lossy_scale(seed: int, quick: bool) -> Inputs:
    # Trace seed 8 is a pattern of 19 shared losses at 500 receivers whose
    # recovery floods the tree ~400 times in 2 s of drain and still leaves
    # losses unrepaired or never detected — the regime ROADMAP item 4
    # asks about.
    shape = "transits=2,stubs=5,hosts=10" if quick else "transits=4,stubs=5,hosts=25"
    return Inputs(
        (
            _job(
                f"transit_stub:{shape},packets=10,loss=2e-3", "cesrm", seed,
                trace_seed=8, prime_distances=True, drain_time=2.0, kernel="vector",
            ),
        )
    )


def _session_mesh(seed: int, quick: bool) -> Inputs:
    # Trace seed 1 is a pattern of 5 losses whose recovery stays local:
    # 94 % of the events are the session exchange itself.  Patterns that
    # set off a reply storm on some protocol seeds and not on others
    # (trace seed 0 does) swing the unit's work by 20 % with the seed.
    shape = "transits=2,stubs=2,hosts=5" if quick else "transits=4,stubs=4,hosts=10"
    return Inputs(
        (
            _job(
                f"transit_stub:{shape},packets=40,loss=1e-3", "cesrm", seed,
                trace_seed=1, drain_time=2.0 if quick else 6.0,
            ),
        )
    )


def _sweep_fleet(seed: int, quick: bool) -> Inputs:
    grid = {
        "name": "bench-fleet",
        "defaults": {"max_packets": 100 if quick else 400, "cache": PAPER_CACHE},
        "grid": {
            "protocol": ["srm", "cesrm"],
            "trace": list(FLEET_TRACES[:2] if quick else FLEET_TRACES),
            "seed": [2 * seed] if quick else [2 * seed, 2 * seed + 1],
        },
    }
    sweep = compile_sweep(grid)
    return Inputs(tuple(case.job for case in sweep.cases), sweep, grid)


_BUILDERS: dict[str, Callable[[int, bool], Inputs]] = {
    "paper_trace": _paper_trace,
    "scale_lossfree": _scale_lossfree,
    "lossy_scale": _lossy_scale,
    "session_mesh": _session_mesh,
    "sweep_fleet": _sweep_fleet,
}
assert tuple(_BUILDERS) == WORKLOAD_NAMES


def build_inputs(workload: str, seed: int, quick: bool = False) -> Inputs:
    """The workload's jobs for ``seed`` (``quick``: the scaled-down sizes
    the warm-up unit and the smoke test use)."""
    return _BUILDERS[workload](seed, quick)


def run_pass(inputs: Inputs, workdir: Path, local_executor=None) -> Tally:
    """Run every job of ``inputs`` against the run cache (and, for the
    fleet, the sweep store) under ``workdir``.  Cold when ``workdir`` is
    empty, warm when a previous pass filled it.  A ``local_executor``
    forces the serial in-process path for the fleet too: the traced pass
    has to see inside each job, and pool workers cannot be observed."""
    cache = RunCache(workdir / "cache")
    if inputs.sweep is None or local_executor is not None:
        engine = ExecutionEngine(jobs=1, cache=cache)
        engine.execute(inputs.jobs, local_executor=local_executor)
        return Tally(engine.stats.executed, engine.stats.cache_hits, 0)
    engine = ExecutionEngine(jobs=WORKERS, cache=cache)
    with SweepStore(workdir / "sweeps.sqlite") as store:
        report = run_sweep(inputs.sweep, engine=engine, store=store)
    return Tally(report.executed, report.cached, report.failed)


def read_outputs(inputs: Inputs, workdir: Path) -> dict[str, RunSummary]:
    """The summaries a pass left in the cache, by job key, with the one
    host-time field zeroed so equal runs compare equal."""
    cache = RunCache(workdir / "cache")
    fingerprint = source_fingerprint()
    out = {}
    for job in inputs.jobs:
        data = cache.get(job, fingerprint)
        if data is None:
            raise LookupError(f"job {job.describe()} left no cache entry")
        data["wall_time"] = 0.0
        out[job.key()] = RunSummary.from_dict(data)
    return out


def canonical(outputs: dict[str, RunSummary]) -> str:
    """One comparable string for a pass's outputs."""
    return json.dumps(
        {key: summary.to_dict() for key, summary in sorted(outputs.items())},
        sort_keys=True,
    )


@dataclass(frozen=True)
class RepairTally:
    """Loss accounting of one or more runs: every loss at a live
    receiver is one protocol operation, and it fails unless repaired."""

    losses: int = 0
    recovered: int = 0
    unrecovered: int = 0
    undetected: int = 0
    #: False when a run's own counters do not add up.
    consistent: bool = True

    def __add__(self, other: "RepairTally") -> "RepairTally":
        return RepairTally(
            self.losses + other.losses,
            self.recovered + other.recovered,
            self.unrecovered + other.unrecovered,
            self.undetected + other.undetected,
            self.consistent and other.consistent,
        )


def repair_tally(summary: RunSummary) -> RepairTally:
    """A loss ends in exactly one of: a recorded recovery, a repair that
    beat detection, a late arrival on the data path, still pending
    (unrecovered), or never noticed at all (undetected)."""
    records = sum(len(rows) for rows in summary.recoveries.values())
    early = sum(summary.undetected_recoveries.values())
    late = sum(summary.late_arrivals.values())
    detected = sum(summary.losses_detected.values())
    unrecovered = sum(len(seqs) for seqs in summary.unrecovered_seqs.values())
    undetected = summary.total_losses - detected - early
    return RepairTally(
        losses=summary.total_losses,
        recovered=records + early + late,
        unrecovered=unrecovered,
        undetected=undetected,
        consistent=undetected >= 0 and detected == records + late + unrecovered,
    )
