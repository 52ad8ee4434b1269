"""What the benchmark measures: workloads, end-to-end metrics, per-layer
metrics, and which end-to-end number each layer number should move.

Pure data — importing this module imports nothing of ``repro`` — so the
driver process, the tests and ``BENCHMARK.json`` all read one
declaration.  ``manifest()`` is the exact content of ``BENCHMARK.json``;
``bench/tests/test_manifest.py`` fails when the two drift.
"""

from __future__ import annotations

from typing import NamedTuple

#: How long one driver run measures (``--seconds`` default), in seconds.
RUN_SECONDS = 20

COMMAND = ("python3", "bench/run.py")
PATHS = ("bench",)


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's value by which the metric may get worse.
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``"metric@workload"`` pairs this number should move when its layer
    #: gets faster; ``()`` marks a simulated statistic or bookkeeping
    #: count that moves no host-time metric — a PR that claims only speed
    #: must leave it identical.
    moves: tuple[str, ...]
    what: str


WORKLOADS = (
    Workload(
        "paper_trace",
        "The paper's 12-receiver trace regime with thousands of losses: SRM/CESRM "
        "agent logic and the sim engine do the work, so it is the bypass workload "
        "for every scale optimisation.",
    ),
    Workload(
        "scale_lossfree",
        "16k receivers, no losses, no sessions: topology build, trace synthesis, "
        "index, agent construction and vector wave forwarding do the work; peak "
        "RSS is set here.",
    ),
    Workload(
        "lossy_scale",
        "500 receivers with drop rules live: request/reply floods from many origins "
        "leave the vector fast path, so a fast-path gain that costs the lossy path "
        "shows; losses end unrepaired here.",
    ),
    Workload(
        "session_mesh",
        "The O(n^2) session exchange on the default python kernel with sessions "
        "on; the two primed workloads bypass sessions entirely.",
    ),
    Workload(
        "sweep_fleet",
        "A 16-job grid through the process pool, run cache and sqlite store: cold "
        "passes are the write side and warm resume passes the read side of the "
        "same exec and sweep code.",
    ),
)

END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to first timed unit: imports, input generation, one "
        "scaled-down warm-up unit (five fresh processes per run)",
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "host seconds per cold unit: every job of the workload executed through "
        "ExecutionEngine on an empty run cache (sweep_fleet: run_sweep over the "
        "pool into an empty cache and store)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.20,
        "peak resident set of the measuring process after all units",
    ),
    EndToEnd(
        "warm_jobs_per_s", "1/s", "higher", 0.25,
        "jobs served per host second by the same call on the now-warm cache: "
        "what a repeated `cesrm run` or a sweep resume pays",
    ),
)

_SIM = ("paper_trace", "scale_lossfree", "lossy_scale", "session_mesh")


def _moves(metric: str, *workloads: str) -> tuple[str, ...]:
    return tuple(f"{metric}@{w}" for w in workloads)


def _protocol_metrics(p: str, title: str) -> tuple[PerLayer, ...]:
    """The per-protocol block: ``srm.*`` sums the SRM jobs of a unit,
    ``core.*`` the CESRM jobs."""
    return (
        PerLayer(f"{p}.run_s", "s", "lower", _moves("wall_s", *_SIM),
                 f"Simulator.run time of the {title} jobs"),
        PerLayer(f"{p}.agent.recv_data_s", "s", "lower",
                 _moves("wall_s", "paper_trace", "scale_lossfree"),
                 "time inside agent.receive for DATA packets"),
        PerLayer(f"{p}.agent.recv_control_s", "s", "lower",
                 _moves("wall_s", "paper_trace", "lossy_scale"),
                 "time inside agent.receive for RQST/REPL/ERQST/EREPL packets"),
        PerLayer(f"{p}.session.recv_s", "s", "lower",
                 _moves("wall_s", "session_mesh", "paper_trace"),
                 "time inside agent.receive for SESSION packets (0 when primed)"),
        PerLayer(f"{p}.session.deliveries", "count", "lower", (),
                 "SESSION packets delivered to agents"),
        PerLayer(f"{p}.losses", "count", "lower", (),
                 "losses at live receivers in the replayed trace"),
        PerLayer(f"{p}.recovered", "count", "higher", (),
                 "losses repaired by the end of the run (incl. before detection)"),
        PerLayer(f"{p}.unrecovered", "count", "lower", (),
                 "losses detected but still unrepaired when the run ends"),
        PerLayer(f"{p}.undetected", "count", "lower", (),
                 "losses never detected and never repaired"),
        PerLayer(f"{p}.requests_sent", "count", "lower", (),
                 "RQST + ERQST packets sent"),
        PerLayer(f"{p}.replies_sent", "count", "lower", (),
                 "REPL + EREPL packets sent"),
        PerLayer(f"{p}.useful_reply_share", "ratio", "higher", (),
                 "losses repaired per reply sent"),
        PerLayer(f"{p}.recovery_rtt_mean", "rtt", "lower", (),
                 "mean recovery latency in RTTs to the source"),
        PerLayer(f"{p}.recovery_rtt_max", "rtt", "lower", (),
                 "time to the last repair, in RTTs to the source"),
    )


PER_LAYER = (
    # -- traces ---------------------------------------------------------
    PerLayer("traces.synth_s", "s", "lower", _moves("wall_s", "scale_lossfree"),
             "synthesize_job_trace"),
    PerLayer("traces.attribution_s", "s", "lower", (),
             "Attributor.attribute_trace over the unit's first Yajnik trace, "
             "standalone (0 on topology workloads)"),
    # -- net.families / net.index --------------------------------------
    PerLayer("net.families.build_s", "s", "lower",
             _moves("wall_s", "scale_lossfree"),
             "build_topology of the unit's spec (0 for Yajnik traces)"),
    PerLayer("net.index.build_s", "s", "lower",
             _moves("wall_s", "scale_lossfree") + _moves("peak_rss_mb", "scale_lossfree"),
             "first tree.index on a fresh clone of the unit's tree"),
    PerLayer("net.index.patch_us", "us", "lower", (),
             "attach_receiver/detach_subtree on the unit's tree, per op: the "
             "churn use of the same index"),
    # -- harness --------------------------------------------------------
    PerLayer("harness.build_s", "s", "lower",
             _moves("wall_s", "scale_lossfree") + _moves("peak_rss_mb", "scale_lossfree"),
             "build_simulation"),
    PerLayer("harness.build_us_per_agent", "us", "lower",
             _moves("wall_s", "scale_lossfree"),
             "build_simulation per attached agent"),
    PerLayer("harness.rss_after_build_mb", "MB", "lower",
             _moves("peak_rss_mb", "scale_lossfree"),
             "resident set right after build_simulation (largest job)"),
    PerLayer("harness.finalize_s", "s", "lower",
             _moves("wall_s", "scale_lossfree"),
             "job wall minus synth, build and run: agent stop, result and "
             "summary assembly"),
    # -- sim ------------------------------------------------------------
    PerLayer("sim.run_s", "s", "lower", _moves("wall_s", *_SIM),
             "Simulator.run(until=end_time)"),
    PerLayer("sim.events", "count", "lower", (),
             "events_processed (python-kernel equivalent events)"),
    PerLayer("sim.events_per_s", "1/s", "higher", _moves("wall_s", *_SIM),
             "sim.events / sim.run_s"),
    PerLayer("sim.engine_self_s", "s", "lower",
             _moves("wall_s", "paper_trace", "session_mesh", "lossy_scale"),
             "sim.run_s minus handler time: queue push/pop/dispatch plus the "
             "profiler hook itself"),
    PerLayer("sim.timers_s", "s", "lower",
             _moves("wall_s", "paper_trace", "session_mesh", "lossy_scale"),
             "handlers Timer._fire + PeriodicTimer._fire, incl. the sends "
             "they make synchronously"),
    PerLayer("sim.timer_fires", "count", "lower", (),
             "timer handler dispatches"),
    PerLayer("sim.other_handlers_s", "s", "lower", _moves("wall_s", "paper_trace"),
             "handlers that are neither timers nor net arrivals (source sends)"),
    PerLayer("sim.micro.schedule_fire_us", "us", "lower",
             _moves("wall_s", "paper_trace", "session_mesh", "lossy_scale"),
             "schedule + fire of a no-op event on a bare Simulator"),
    # -- net ------------------------------------------------------------
    PerLayer("net.hop_self_s", "s", "lower",
             _moves("wall_s", "scale_lossfree", "lossy_scale", "session_mesh"),
             "handlers Network.* / VectorKernel.* minus time inside agent.receive"),
    PerLayer("net.events", "count", "lower", (),
             "engine dispatches of net arrival handlers"),
    PerLayer("net.deliveries", "count", "lower", (),
             "packets handed to agents"),
    PerLayer("net.deliveries_per_event", "ratio", "higher",
             _moves("wall_s", "scale_lossfree", "lossy_scale"),
             "frontier size on the vector fast path; at most 1 once waves "
             "fall back to scalar arrivals"),
    PerLayer("net.crossings.data", "count", "lower", (),
             "link crossings by DATA packets"),
    PerLayer("net.crossings.retransmission", "count", "lower", (),
             "link crossings by REPL/EREPL packets"),
    PerLayer("net.crossings.control_multicast", "count", "lower", (),
             "link crossings by multicast requests"),
    PerLayer("net.crossings.control_unicast", "count", "lower", (),
             "link crossings by unicast (expedited) requests"),
    PerLayer("net.python_over_vector", "ratio", "higher",
             _moves("wall_s", "scale_lossfree", "lossy_scale"),
             "sim.run_s under kernel=python / under kernel=vector, outputs "
             "asserted identical (0 on workloads that are not vector)"),
    PerLayer("net.micro.flood_python_us", "us", "lower",
             _moves("wall_s", "session_mesh", "paper_trace"),
             "bare Network.multicast to null sinks on the unit's tree, per delivery"),
    PerLayer("net.micro.flood_vector_us", "us", "lower",
             _moves("wall_s", "scale_lossfree", "lossy_scale"),
             "the same flood under kernel=vector, per delivery"),
    # -- srm.agent / core.agent / srm.session --------------------------
    *_protocol_metrics("srm", "SRM"),
    *_protocol_metrics("core", "CESRM"),
    PerLayer("core.expedited_fraction", "ratio", "higher", (),
             "recoveries that arrived through the expedited path"),
    PerLayer("core.cachelab.lookups", "count", "lower", (),
             "recovery-cache lookups"),
    PerLayer("core.cachelab.hit_rate", "ratio", "higher", (),
             "recovery-cache hits per lookup"),
    # -- exec -----------------------------------------------------------
    PerLayer("exec.self_s", "s", "lower", _moves("wall_s", "sweep_fleet"),
             "traced unit wall minus the jobs' own wall: keys, digests, cache "
             "miss + put, summary rehydration"),
    PerLayer("exec.job_key_us", "us", "lower", _moves("warm_jobs_per_s", "sweep_fleet"),
             "RunJob.key"),
    PerLayer("exec.fingerprint_ms", "ms", "lower", _moves("setup_s", "sweep_fleet"),
             "source_fingerprint after cache_clear"),
    PerLayer("exec.summary.encode_ms", "ms", "lower",
             _moves("wall_s", "scale_lossfree", "sweep_fleet"),
             "RunSummary.to_json of the unit's first job"),
    PerLayer("exec.summary.decode_ms", "ms", "lower",
             _moves("warm_jobs_per_s", "scale_lossfree", "sweep_fleet"),
             "RunSummary.from_json + to_result of the unit's first job"),
    PerLayer("exec.cache.put_ms", "ms", "lower",
             _moves("wall_s", "scale_lossfree", "sweep_fleet"),
             "RunCache.put of the unit's first job"),
    PerLayer("exec.cache.get_ms", "ms", "lower",
             _moves("warm_jobs_per_s", *_SIM, "sweep_fleet"),
             "RunCache.get of the unit's first job"),
    PerLayer("exec.pool.cold_s", "s", "lower", _moves("wall_s", "sweep_fleet"),
             "map_unordered over the pool on an empty cache, no store "
             "(0 off sweep_fleet)"),
    PerLayer("exec.pool.efficiency", "ratio", "higher", _moves("wall_s", "sweep_fleet"),
             "(serial in-process time of the jobs / workers) / exec.pool.cold_s "
             "(0 off sweep_fleet)"),
    # -- sweep ----------------------------------------------------------
    PerLayer("sweep.compile_ms", "ms", "lower", _moves("setup_s", "sweep_fleet"),
             "compile_sweep of the grid (0 off sweep_fleet)"),
    PerLayer("sweep.store.record_ms", "ms", "lower",
             _moves("wall_s", "sweep_fleet") + _moves("warm_jobs_per_s", "sweep_fleet"),
             "SweepStore.record per row: one commit each (0 off sweep_fleet)"),
    PerLayer("sweep.store.query_ms", "ms", "lower", (),
             "one group-by over the sweep's rows (0 off sweep_fleet)"),
    PerLayer("sweep.resume_pass_s", "s", "lower",
             _moves("warm_jobs_per_s", "sweep_fleet"),
             "run_sweep over a warm cache and store (0 off sweep_fleet)"),
    # -- obs ------------------------------------------------------------
    PerLayer("obs.ring_overhead_ratio", "ratio", "lower", (),
             "first CESRM job with a ring-buffer Tracer / untraced "
             "(paper_trace only, else 0)"),
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower", (),
             "this benchmark's traced unit / its untraced unit"),
    PerLayer("obs.traced_unit_s", "s", "lower", (),
             "wall of the traced unit the layer times above add up to"),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
