"""Scale curves: events/sec and peak RSS from 10^3 to 10^5 receivers.

ROADMAP item 1 asks for 10^4-10^6-receiver worlds; this bench measures
what the stack actually sustains, in three sections:

* ``scale_curve`` — a CESRM run per scale point on generated
  transit-stub topologies (1k → 100k receivers), ``prime_distances``
  scale mode (the simulated session exchange is O(n^2) deliveries per
  period and caps out near 10^3; the analytic oracle removes exactly
  that term).  Each point runs in a *fresh child process* because peak
  RSS is a process-lifetime high-water mark (see
  :func:`repro.metrics.memory.peak_rss_bytes`) — in-process deltas
  would attribute earlier points' peaks to later ones.  The series is
  propagation-focused (per-link loss ~1e-9, so zero sampled losses):
  recovery traffic scales O(n^2) — every loss triggers request/reply
  multicasts fanned to all n members — and is measured separately.
  ``scale_curve_vector`` repeats the series under ``kernel="vector"``
  (kernel v2 delivery waves) so the trajectory shows the batching
  payoff at 10^5 receivers; both curves must agree on event counts,
  and every vector point must report ``scalar_deliveries == 0`` (all
  DATA counted on the reception columns, :mod:`repro.net.columns`).

* ``expedited_advantage`` — CESRM vs SRM on the same lossy trace at the
  scales where SRM's global suppression is still affordable to
  simulate.  The per-link loss rate is chosen per point so the
  *absolute* number of link-loss events stays small, isolating per-loss
  recovery cost from loss-count growth.  This section runs with the
  session protocol ON (``prime_distances=False``) for two reasons: the
  session's highest-seq reports are the secondary loss-detection
  channel (without them, losses near the stream tail are never
  detected), and CESRM's expedited path needs the staggered detections
  that session reports produce — caches are warmed by recoveries of
  *earlier* losses, and a 40-packet primed run compresses all
  detections into the data phase before any request-race winner can
  detect a second loss.

* ``index_patch`` — incremental :class:`~repro.net.index.TopologyIndex`
  churn patching (attach_receiver/detach_subtree in place) against a
  from-scratch rebuild on a 10^4-receiver world.  The acceptance floor
  is 5x; in-place leaf patching is micro-seconds against a rebuild's
  O(n log n) pass.

``REPRO_SCALE_MAX_RECEIVERS`` caps the curve (CI sets 10^4 to bound job
time); the full series needs ~2 GB RAM and a few minutes.  Results go
to ``BENCH_scale.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.metrics.memory import peak_rss_mb
from repro.net.families import build_topology
from repro.net.index import TopologyIndex
from repro.net.topology import NodeKind
from repro.workloads.topology import synthesize_topology_trace

ROOT = Path(__file__).parent.parent
RESULT_PATH = ROOT / "BENCH_scale.json"

PROTOCOL = "cesrm"
PACKETS = 8

#: The propagation series: (receivers, transit-stub spec).  Loss ~1e-9
#: means zero sampled losses — the curve isolates multicast propagation
#: and per-receiver state cost from O(n^2) recovery traffic.
SCALE_POINTS = (
    (1_000, "transit_stub:transits=4,stubs=5,hosts=50,packets=8,loss=1e-9"),
    (10_000, "transit_stub:transits=10,stubs=10,hosts=100,packets=8,loss=1e-9"),
    (32_000, "transit_stub:transits=8,stubs=25,hosts=160,packets=8,loss=1e-9"),
    (100_000, "transit_stub:transits=10,stubs=25,hosts=400,packets=8,loss=1e-9"),
)

#: Lossy points for the CESRM-vs-SRM comparison, at the scales where
#: SRM's global suppression is still affordable to simulate.  Per-link
#: loss is chosen so each point sees a handful of link-loss *trains*
#: regardless of scale — enough bursty (Gilbert) losses for CESRM's
#: cache to see trains, few enough that the O(n) reply fan-out per
#: loss stays bounded.
RECOVERY_PACKETS = 40
RECOVERY_POINTS = (
    (320, "transit_stub:transits=4,stubs=4,hosts=20,packets=40,loss=4e-3"),
    (500, "transit_stub:transits=5,stubs=5,hosts=20,packets=40,loss=2.5e-3"),
)

INDEX_PATCH_SPEC = "transit_stub:transits=10,stubs=10,hosts=100"
INDEX_PATCH_OPS = 200

#: Child process run for one scale point: argv = [spec, packets].  Runs
#: the simulation and prints a single JSON line; the parent harvests
#: events/sec and the child's own peak RSS.
_CHILD = """\
import json, sys, time
import repro.harness.runner as runner
from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.metrics.memory import peak_rss_mb
from repro.workloads.topology import synthesize_topology_trace

spec, packets, kernel = sys.argv[1], int(sys.argv[2]), sys.argv[3]
# Keep hold of the run's network: its kernel_stats() are counters the
# run summary deliberately does not carry.
built = []
real_build = runner.build_simulation
runner.build_simulation = lambda *a, **k: built.append(real_build(*a, **k)) or built[-1]
t0 = time.perf_counter()
trace = synthesize_topology_trace(spec, seed=0, max_packets=packets)
synth_s = time.perf_counter() - t0
config = SimulationConfig(
    max_packets=packets, prime_distances=True, drain_time=2.0, kernel=kernel
)
t0 = time.perf_counter()
result = run_trace(trace, "cesrm", config)
wall_s = time.perf_counter() - t0
print(json.dumps({
    "receivers": len(trace.trace.tree.receivers),
    "synth_s": round(synth_s, 2),
    "wall_s": round(wall_s, 2),
    "events": result.events_processed,
    "events_per_sec": round(result.events_processed / wall_s),
    "sim_time": round(result.sim_time, 3),
    "losses": result.total_losses,
    "peak_rss_mb": peak_rss_mb(),
    "kernel_stats": built[0].network.kernel_stats(),
}))
"""

RESULTS: dict = {}


def max_receivers() -> int:
    return int(os.environ.get("REPRO_SCALE_MAX_RECEIVERS", "") or 100_000)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _run_curve(kernel: str) -> list[dict]:
    points = [(n, spec) for n, spec in SCALE_POINTS if n <= max_receivers()]
    assert points, "REPRO_SCALE_MAX_RECEIVERS excludes every scale point"
    curve = []
    for n, spec in points:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, spec, str(PACKETS), kernel],
            capture_output=True,
            text=True,
            env=_child_env(),
            check=True,
        )
        row = json.loads(proc.stdout)
        assert row["receivers"] == n, spec
        assert row["losses"] == 0, spec  # propagation series is lossless
        assert row["events"] > n  # every receiver saw every packet
        stats = row.pop("kernel_stats")
        if kernel == "vector":
            # Receivers as rows: on a loss-free primed run every DATA
            # delivery is counted on a reception column, none is handed
            # to agent.receive.  A count, not a timing.
            assert stats["scalar_deliveries"] == 0, (spec, stats)
            assert stats["column_deliveries"] == n * PACKETS, (spec, stats)
            row["kernel_stats"] = stats
        row["spec"] = spec
        curve.append(row)
    # events/sec must not collapse at scale (heap growth is logarithmic)
    assert curve[-1]["events_per_sec"] > curve[0]["events_per_sec"] / 10
    return curve


def test_scale_curve():
    RESULTS["scale_curve"] = _run_curve("python")


def test_scale_curve_vector():
    """The same series under ``kernel=\"vector\"`` — the scale payoff of
    wave batching.  Event counts must match the python curve point for
    point (waves fold arrivals but still count them), and the top point
    must be faster than its python twin."""
    curve = _run_curve("vector")
    RESULTS["scale_curve_vector"] = curve
    python_curve = RESULTS.get("scale_curve")
    if python_curve:  # section ordering: python curve runs first
        for py_row, vec_row in zip(python_curve, curve):
            assert vec_row["events"] == py_row["events"], vec_row["spec"]
        assert curve[-1]["wall_s"] < python_curve[-1]["wall_s"]


def _recovery_stats(result) -> dict:
    records = [r for recs in result.metrics.recoveries.values() for r in recs]
    latencies = sorted(r.latency for r in records)
    expedited = sum(1 for r in records if r.expedited)
    return {
        "events": result.events_processed,
        "wall_s": round(result.wall_time, 2),
        "losses": result.total_losses,
        "recovered": len(records),
        "expedited_fraction": round(expedited / len(records), 4) if records else 0.0,
        "mean_latency_s": round(sum(latencies) / len(latencies), 4)
        if latencies
        else None,
        "retransmissions": result.overhead.retransmissions,
        "multicast_control": result.overhead.multicast_control,
        "unicast_control": result.overhead.unicast_control,
    }


def test_expedited_advantage():
    points = [(n, spec) for n, spec in RECOVERY_POINTS if n <= max_receivers()]
    rows = []
    for n, spec in points:
        trace = synthesize_topology_trace(spec, seed=0, max_packets=RECOVERY_PACKETS)
        # Sessions ON: they are the secondary loss-detection channel and
        # the source of the staggered detections the expedite path needs.
        config = SimulationConfig(max_packets=RECOVERY_PACKETS, drain_time=10.0)
        cell: dict = {"receivers": n, "spec": spec, "prime_distances": False}
        for protocol in ("cesrm", "srm"):
            cell[protocol] = _recovery_stats(run_trace(trace, protocol, config))
        assert cell["cesrm"]["losses"] == cell["srm"]["losses"]
        assert cell["cesrm"]["losses"] > 0, spec  # the point is recovery
        assert cell["cesrm"]["expedited_fraction"] > 0, spec
        assert cell["srm"]["expedited_fraction"] == 0, spec
        rows.append(cell)
    RESULTS["expedited_advantage"] = rows


def _rebuild(tree) -> TopologyIndex:
    return TopologyIndex(
        names=tuple(tree._nodes),
        parent_of=tree._parents,
        children_of=tree._children,
        receivers=tuple(tree.current_receivers()),
    )


def test_index_patch_speedup():
    tree = build_topology(INDEX_PATCH_SPEC)
    index = tree.index  # materialize once, then patch in place
    routers = [
        n
        for n in tree.nodes
        if tree.kind(n) is NodeKind.ROUTER and n.startswith("u")
    ]
    rng = random.Random(7)

    # Membership is tracked locally so the timed loop measures only the
    # index patches, not O(n) current_receivers() materializations.
    members = list(tree.current_receivers())
    detached: list[str] = []
    t0 = time.perf_counter()
    for _ in range(INDEX_PATCH_OPS):
        if detached and (rng.random() < 0.5 or len(members) < 3):
            name = detached.pop()
            tree.attach_receiver(name, rng.choice(routers))
            members.append(name)
        else:
            i = rng.randrange(len(members))
            victim = members[i]
            members[i] = members[-1]
            members.pop()
            tree.detach_subtree(victim)
            detached.append(victim)
    incremental_s = time.perf_counter() - t0
    assert tree.index is index  # still the original object, never rebuilt

    rebuilds = 3
    t0 = time.perf_counter()
    for _ in range(rebuilds):
        _rebuild(tree)
    rebuild_s = (time.perf_counter() - t0) / rebuilds

    per_op_us = incremental_s / INDEX_PATCH_OPS * 1e6
    speedup = rebuild_s / (incremental_s / INDEX_PATCH_OPS)
    RESULTS["index_patch"] = {
        "spec": INDEX_PATCH_SPEC,
        "receivers": 10_000,
        "ops": INDEX_PATCH_OPS,
        "incremental_us_per_op": round(per_op_us, 1),
        "rebuild_ms": round(rebuild_s * 1e3, 1),
        "speedup": round(speedup, 1),
    }
    assert speedup >= 5, RESULTS["index_patch"]


def test_write_payload():
    """Last in file order: persists whatever sections ran."""
    assert RESULTS, "no bench sections recorded"
    payload = {
        "suite": "scale",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "protocol": PROTOCOL,
        "curve_packets": PACKETS,
        "curve_prime_distances": True,
        "max_receivers": max_receivers(),
        **RESULTS,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
