"""End-to-end forwarding-kernel benchmark (the ISSUE-4 speedup gate).

Three sections, each gating one regime of one kernel generation:

* ``test_kernel_sweep_speedup`` (v1) times the standard SRM+CESRM trace
  sweep — every Table 1 figure trace at 1200 packets — straight through
  ``run_trace`` (no cache, no process pool), so the number is the hot
  path itself: topology queries, per-hop forwarding, and the event
  engine.  The committed ``baseline`` section in ``BENCH_kernel.json``
  was recorded against the pre-refactor string/dict hot path; when a
  baseline is present the benchmark asserts the kernel is at least 2x
  faster end to end.

* ``test_vector_kernel_speedup`` (v2) times the *same trace* under both
  ``SimulationConfig.kernel`` values on a propagation-heavy world — a
  deep binary tree, where the python kernel pays per-hop ``_transmit``
  calls and per-node arrival events that the vector kernel batches into
  numpy delivery waves.  Both kernels must process the identical event
  count (waves count their folded arrivals), and the vector kernel must
  be at least ``V2_MIN_SPEEDUP`` faster; a speedup below 1.0x means the
  vector kernel has regressed behind the oracle and fails loudly.

* ``test_vector_kernel_lossy_speedup`` (v2_lossy) is the same race where
  the paper's subject lives: 500 receivers with 19 shared losses, whose
  recovery is ~1 600 request/reply floods from many origins — tens of
  thousands of waves of a handful of nodes each.  That is the loop
  executor's regime (``repro.net.vector.CROSSOVER``); the gate is that
  the vector kernel is not slower than the oracle there.

Each test merges its section into ``BENCH_kernel.json``, preserving the
others'.  Run via ``cesrm bench kernel`` (exits non-zero on any gate
failure) or directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q

Record a fresh v1 baseline (only for a deliberate re-baseline)::

    PYTHONPATH=src REPRO_BENCH_REBASELINE=1 python -m pytest benchmarks/bench_kernel.py -q
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.harness.config import SimulationConfig
from repro.harness.runner import build_simulation, run_trace
from repro.net.families import synthesize_topology_trace
from repro.traces.synthesize import synthesize_trace
from repro.traces.yajnik import FIGURE_TRACES, trace_meta

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
PROTOCOLS = ("srm", "cesrm")
MAX_PACKETS = 1200
SEED = 0
MIN_SPEEDUP = 2.0
#: Repetitions per (trace, protocol); each run reports its fastest wall
#: time so one scheduler hiccup cannot flip the gate.  The committed
#: baseline was recorded with the identical min-of-N methodology.
REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))

#: The v2 world: a deep binary tree maximizes forwarding hops per
#: delivery (2 router hops per receiver against ~1 for a wide
#: transit-stub), which is exactly the work wave batching removes.
#: Near-zero loss keeps the run propagation-dominated — the recovery
#: path is protocol logic both kernels execute identically, so heavy
#: loss would only dilute the measurement.
V2_SPEC = "tree:depth=12,fanout=2,loss=1e-9,packets=80"
V2_PACKETS = 80
V2_PROTOCOL = "cesrm"
V2_MIN_SPEEDUP = 2.0

#: The v2_lossy world: the layered benchmark's ``lossy_scale`` workload
#: (bench/workloads.py) — trace seed 8 is a pattern of 19 shared losses
#: whose recovery floods the tree ~400 times in 2 s of drain.
V2_LOSSY_SPEC = "transit_stub:transits=4,stubs=5,hosts=25,packets=10,loss=2e-3"
V2_LOSSY_PACKETS = 10
V2_LOSSY_TRACE_SEED = 8
V2_LOSSY_MIN_SPEEDUP = 1.0


def _sweep(reps: int = REPS) -> dict:
    """Run the sweep ``reps`` times; keep each run's fastest wall time.

    The garbage collector is paused around each timed run (and collected
    between runs) so collection pauses land outside the timings.  Every
    repetition must process the identical event count — the sweep doubles
    as a determinism check.
    """
    config = SimulationConfig(seed=SEED, max_packets=MAX_PACKETS)
    runs = {}
    total = 0.0
    gc_was_enabled = gc.isenabled()
    try:
        for name in FIGURE_TRACES:
            synthetic = synthesize_trace(
                trace_meta(name), seed=SEED, max_packets=MAX_PACKETS
            )
            for protocol in PROTOCOLS:
                best = None
                events = None
                for _ in range(reps):
                    gc.collect()
                    gc.disable()
                    start = time.perf_counter()
                    result = run_trace(synthetic, protocol, config)
                    elapsed = time.perf_counter() - start
                    gc.enable()
                    if events is None:
                        events = result.events_processed
                    elif events != result.events_processed:
                        raise AssertionError(
                            f"{name}/{protocol}: event count varied across "
                            f"repetitions ({events} vs {result.events_processed})"
                        )
                    if best is None or elapsed < best:
                        best = elapsed
                runs[f"{name}/{protocol}"] = {
                    "wall_time": round(best, 4),
                    "events_processed": events,
                }
                total += best
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "max_packets": MAX_PACKETS,
        "seed": SEED,
        "reps": reps,
        "runs": runs,
        "total_wall_time": round(total, 4),
    }


def _merge_payload(update: dict) -> None:
    """Merge ``update`` into ``BENCH_kernel.json``, preserving the other
    section's keys (the v1 sweep and the v2 kernel race are independent
    gates that can run separately)."""
    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload.update(update)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_kernel_sweep_speedup():
    previous = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    baseline = previous.get("baseline")

    current = _sweep()
    if baseline is None or os.environ.get("REPRO_BENCH_REBASELINE"):
        baseline = current

    speedup = baseline["total_wall_time"] / current["total_wall_time"]
    _merge_payload(
        {
            "benchmark": "kernel",
            "traces": list(FIGURE_TRACES),
            "protocols": list(PROTOCOLS),
            "baseline": baseline,
            "current": current,
            "speedup": round(speedup, 3),
            "min_speedup": MIN_SPEEDUP,
        }
    )

    # Same total work regardless of implementation: the refactor must not
    # change how many events the sweep processes.
    for key, row in baseline["runs"].items():
        assert (
            current["runs"][key]["events_processed"] == row["events_processed"]
        ), f"{key}: event count diverged from baseline"

    if baseline is not current:  # a real pre-refactor baseline exists
        assert speedup >= MIN_SPEEDUP, (
            f"kernel sweep speedup {speedup:.2f}x is below the "
            f"{MIN_SPEEDUP:.1f}x gate (baseline "
            f"{baseline['total_wall_time']:.2f}s, current "
            f"{current['total_wall_time']:.2f}s)"
        )


def _v2_runs(trace, max_packets: int, reps: int = REPS) -> dict[str, dict]:
    """Min-of-``reps`` wall time per kernel on a v2 world, gc paused
    around each timed run, event count checked across reps.  The kernels
    alternate rep by rep, so a slow minute on a shared box lands on both
    sides of the ratio instead of on whichever kernel ran second."""
    configs = {
        kernel: SimulationConfig(
            max_packets=max_packets,
            prime_distances=True,
            drain_time=2.0,
            kernel=kernel,
        )
        for kernel in ("python", "vector")
    }
    best: dict[str, float] = {}
    events: dict[str, int] = {}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(reps):
            for kernel, config in configs.items():
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                result = run_trace(trace, V2_PROTOCOL, config)
                elapsed = time.perf_counter() - start
                gc.enable()
                if events.setdefault(kernel, result.events_processed) != (
                    result.events_processed
                ):
                    raise AssertionError(
                        f"{kernel}: event count varied across repetitions "
                        f"({events[kernel]} vs {result.events_processed})"
                    )
                best[kernel] = min(elapsed, best.get(kernel, elapsed))
    finally:
        if gc_was_enabled:
            gc.enable()
    rows = {
        kernel: {
            "kernel": kernel,
            "wall_time": round(best[kernel], 4),
            "events_processed": events[kernel],
            "events_per_sec": round(events[kernel] / best[kernel]),
        }
        for kernel in configs
    }
    # One more, untimed vector run for the wave counters (run_trace does
    # not hand the network back): which executor the regime exercises.
    simulation = build_simulation(trace, V2_PROTOCOL, configs["vector"])
    simulation.sim.run(until=simulation.end_time)
    rows["vector"]["waves"] = {
        name: count
        for name, count in simulation.network.kernel_stats().items()
        if name.endswith("_waves")
    }
    return rows


def _v2_race(section: str, spec: str, trace_seed: int, max_packets: int,
             min_speedup: float) -> None:
    """Race the two kernels on one world, record the section, gate it."""
    trace = synthesize_topology_trace(spec, seed=trace_seed, max_packets=max_packets)
    runs = _v2_runs(trace, max_packets)
    python_run, vector_run = runs["python"], runs["vector"]

    speedup = python_run["wall_time"] / vector_run["wall_time"]
    _merge_payload(
        {
            section: {
                "spec": spec,
                "protocol": V2_PROTOCOL,
                "max_packets": max_packets,
                "seed": trace_seed,
                "reps": REPS,
                "python": python_run,
                "vector": vector_run,
                "speedup": round(speedup, 3),
                "min_speedup": min_speedup,
            }
        }
    )

    # One wave event folds N arrivals, but events_processed counts them
    # all — the two kernels must agree on the total work performed.
    assert vector_run["events_processed"] == python_run["events_processed"], (
        f"{section}: vector kernel event count diverged from the python oracle"
    )
    assert speedup >= 1.0, (
        f"{section}: vector kernel is SLOWER than the python oracle "
        f"({speedup:.2f}x); the batched hot path has regressed"
    )
    assert speedup >= min_speedup, (
        f"{section}: vector kernel speedup {speedup:.2f}x is below the "
        f"{min_speedup:.1f}x gate (python "
        f"{python_run['wall_time']:.2f}s, vector "
        f"{vector_run['wall_time']:.2f}s)"
    )


def test_vector_kernel_speedup():
    _v2_race("v2", V2_SPEC, SEED, V2_PACKETS, V2_MIN_SPEEDUP)


def test_vector_kernel_lossy_speedup():
    _v2_race(
        "v2_lossy", V2_LOSSY_SPEC, V2_LOSSY_TRACE_SEED, V2_LOSSY_PACKETS,
        V2_LOSSY_MIN_SPEEDUP,
    )
