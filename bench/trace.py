"""The traced pass: per-layer numbers taken from outside the program.

Nothing under ``src/`` is edited or subclassed.  A job is observed by

* timing the calls into each layer's public functions
  (``synthesize_job_trace``, ``build_simulation``, ``Simulator.run``,
  ``RunSummary.from_result``) — :class:`JobTracer` is a drop-in
  ``local_executor`` for :meth:`ExecutionEngine.execute`, so the traced
  unit is the untraced unit with one argument added;
* attaching the public :class:`~repro.obs.profile.SimProfiler` through
  ``build_simulation(profiler=...)``, which times every engine dispatch
  by handler;
* re-``Network.attach``-ing every host behind a :class:`_ReceiveProxy`
  that times ``agent.receive`` by ``packet.kind``.

Handler time splits into net arrivals, timers and the rest; a net
handler's self time is its span minus the ``agent.receive`` calls inside
it; the engine's self time is ``Simulator.run`` minus all handlers.  The
summaries a traced unit produces must equal the untraced unit's, and the
ratio of their walls is reported as this benchmark's own overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import shutil
import statistics
from functools import partial
from pathlib import Path
from time import perf_counter

import repro.harness.runner as runner
from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, execute_job, source_fingerprint, synthesize_job_trace
from repro.exec.pool import ExecutionEngine
from repro.exec.summary import RunSummary
from repro.net.families import build_topology, is_topology_spec
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.obs import RingBufferSink, Tracer
from repro.obs.profile import SimProfiler
from repro.sim.engine import Simulator
from repro.sweep import SweepStore, compile_sweep
from repro.traces.attribution import Attributor
from repro.traces.inference import estimate_link_rates_subtree

from bench.spec import PER_LAYER_NAMES
from bench.workloads import (
    WORKERS,
    Inputs,
    canonical,
    read_outputs,
    repair_tally,
    run_pass,
)

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

_NET_HANDLERS = ("Network.", "VectorKernel.")
_TIMER_HANDLERS = ("Timer._fire", "PeriodicTimer._fire")
_CONTROL_KINDS = (PacketKind.RQST, PacketKind.REPL, PacketKind.ERQST, PacketKind.EREPL)
#: ``srm.*`` metrics sum a unit's SRM jobs, ``core.*`` its CESRM jobs.
_PROTOCOL_PREFIX = {"srm": "srm", "cesrm": "core"}


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class _ReceiveProxy:
    """Stands between the network and one agent; times ``receive``."""

    __slots__ = ("_receive", "_cells")

    def __init__(self, agent, cells: dict) -> None:
        self._receive = agent.receive
        self._cells = cells

    def receive(self, packet) -> None:
        start = perf_counter()
        self._receive(packet)
        elapsed = perf_counter() - start
        cell = self._cells[packet.kind]
        cell[0] += 1
        cell[1] += elapsed


class JobTracer:
    """``local_executor`` that runs a job exactly as
    :func:`~repro.exec.jobs.execute_job` does and keeps one record of
    spans and counts per job.  ``full=False`` records the layer spans
    only (two clock reads per layer, no profiler, no proxies)."""

    def __init__(self, full: bool = True) -> None:
        self.full = full
        self.records: list[dict] = []
        self._record: dict = {}

    def __call__(self, job: RunJob) -> RunSummary:
        record = self._record = {"protocol": job.protocol, "run_s": 0.0}
        real_build = runner.build_simulation
        t0 = perf_counter()
        synthetic = synthesize_job_trace(
            job.trace, seed=job.trace_seed, max_packets=job.trace_max_packets
        )
        t1 = perf_counter()
        runner.build_simulation = partial(self._build, real_build)
        try:
            result = runner.run_trace(
                synthetic, job.protocol, job.config, faults=job.faults,
                workload=job.workload or None, churn=job.churn,
            )
        finally:
            runner.build_simulation = real_build
        summary = RunSummary.from_result(result)
        t2 = perf_counter()
        record["synth_s"] = t1 - t0
        record["finalize_s"] = t2 - record.pop("run_end")
        record["wall_s"] = t2 - t0
        record["result"] = result
        record["summary"] = summary
        self.records.append(record)
        return summary

    def _build(self, real_build, *args, **kwargs):
        record = self._record
        if self.full:
            record["profiler"] = kwargs["profiler"] = SimProfiler()
        start = perf_counter()
        simulation = real_build(*args, **kwargs)
        record["build_s"] = perf_counter() - start
        record["rss_after_build_mb"] = _rss_mb()
        record["agents"] = len(simulation.agents)
        start = perf_counter()
        if self.full:
            cells = record["recv"] = {kind: [0, 0.0] for kind in PacketKind}
            attach = simulation.network.attach
            for host, agent in simulation.agents.items():
                attach(host, _ReceiveProxy(agent, cells))
        record["attach_s"] = perf_counter() - start

        real_run = simulation.sim.run

        def timed_run(*a, **kw):
            begin = perf_counter()
            try:
                return real_run(*a, **kw)
            finally:
                record["run_end"] = perf_counter()
                record["run_s"] += record["run_end"] - begin
                record["deliveries"] = simulation.network.packets_delivered

        simulation.sim.run = timed_run
        return simulation


# ----------------------------------------------------------------------
# Traced unit -> layer metrics
# ----------------------------------------------------------------------
def _handler_split(profiler: SimProfiler) -> dict:
    out = {"net_s": 0.0, "net_n": 0, "timer_s": 0.0, "timer_n": 0, "other_s": 0.0}
    for label, (count, seconds) in profiler.handlers.items():
        if label.startswith(_NET_HANDLERS):
            out["net_s"] += seconds
            out["net_n"] += int(count)
        elif label in _TIMER_HANDLERS:
            out["timer_s"] += seconds
            out["timer_n"] += int(count)
        else:
            out["other_s"] += seconds
    return out


def _protocol_stats(prefix: str, records: list[dict]) -> dict[str, float]:
    """The ``{p}.*`` block over the unit's jobs of one protocol."""
    K = PacketKind
    m = {name: 0.0 for name in PER_LAYER_NAMES if name.startswith(prefix + ".")}
    latencies: list[float] = []
    expedited = lookups = hits = 0
    for record in records:
        result = record["result"]
        recv = record["recv"]
        tally = repair_tally(record["summary"])
        m[f"{prefix}.run_s"] += record["run_s"]
        m[f"{prefix}.agent.recv_data_s"] += recv[K.DATA][1]
        m[f"{prefix}.agent.recv_control_s"] += sum(recv[k][1] for k in _CONTROL_KINDS)
        m[f"{prefix}.session.recv_s"] += recv[K.SESSION][1]
        m[f"{prefix}.session.deliveries"] += recv[K.SESSION][0]
        m[f"{prefix}.losses"] += tally.losses
        m[f"{prefix}.recovered"] += tally.recovered
        m[f"{prefix}.unrecovered"] += tally.unrecovered
        m[f"{prefix}.undetected"] += tally.undetected
        sends = result.metrics.total_sends
        m[f"{prefix}.requests_sent"] += sends(K.RQST) + sends(K.ERQST)
        m[f"{prefix}.replies_sent"] += sends(K.REPL) + sends(K.EREPL)
        for receiver in result.receivers:
            latencies.extend(result.normalized_latencies(receiver))
        expedited += sum(r.expedited for r in result.metrics.all_recoveries())
        if result.cache is not None:
            lookups += result.cache["lookups"]
            hits += result.cache["hits"]
    replies = m[f"{prefix}.replies_sent"]
    m[f"{prefix}.useful_reply_share"] = m[f"{prefix}.recovered"] / replies if replies else 0.0
    if latencies:
        m[f"{prefix}.recovery_rtt_mean"] = statistics.fmean(latencies)
        m[f"{prefix}.recovery_rtt_max"] = max(latencies)
    if prefix == "core":
        m["core.expedited_fraction"] = expedited / len(latencies) if latencies else 0.0
        m["core.cachelab.lookups"] = lookups
        m["core.cachelab.hit_rate"] = hits / lookups if lookups else 0.0
    return m


def layer_metrics(records: list[dict], unit_s: float) -> tuple[dict[str, float], list[str]]:
    """Fold one fully traced unit's job records into per-layer metrics,
    and check that the spans account for the time they claim to."""
    problems: list[str] = []
    m: dict[str, float] = {}

    def total(key: str) -> float:
        return sum(r[key] for r in records)

    m["traces.synth_s"] = total("synth_s")
    m["harness.build_s"] = total("build_s")
    m["harness.build_us_per_agent"] = 1e6 * total("build_s") / total("agents")
    m["harness.rss_after_build_mb"] = max(r["rss_after_build_mb"] for r in records)
    m["harness.finalize_s"] = total("finalize_s")
    m["sim.run_s"] = run_s = total("run_s")
    m["sim.events"] = sum(r["result"].events_processed for r in records)
    m["sim.events_per_s"] = m["sim.events"] / run_s

    split = {"net_s": 0.0, "net_n": 0, "timer_s": 0.0, "timer_n": 0, "other_s": 0.0}
    recv_s = 0.0
    for record in records:
        for key, value in _handler_split(record["profiler"]).items():
            split[key] += value
        recv_s += sum(seconds for _, seconds in record["recv"].values())
    m["sim.timers_s"] = split["timer_s"]
    m["sim.timer_fires"] = split["timer_n"]
    m["sim.other_handlers_s"] = split["other_s"]
    m["sim.engine_self_s"] = run_s - split["net_s"] - split["timer_s"] - split["other_s"]
    m["net.hop_self_s"] = split["net_s"] - recv_s
    m["net.events"] = split["net_n"]
    m["net.deliveries"] = total("deliveries")
    m["net.deliveries_per_event"] = m["net.deliveries"] / split["net_n"] if split["net_n"] else 0.0
    results = [r["result"] for r in records]
    m["net.crossings.data"] = sum(
        n for res in results for (kind, _), n in res.crossings_snapshot.items()
        if kind == PacketKind.DATA.value
    )
    m["net.crossings.retransmission"] = sum(res.overhead.retransmissions for res in results)
    m["net.crossings.control_multicast"] = sum(res.overhead.multicast_control for res in results)
    m["net.crossings.control_unicast"] = sum(res.overhead.unicast_control for res in results)

    for protocol, prefix in _PROTOCOL_PREFIX.items():
        m.update(_protocol_stats(prefix, [r for r in records if r["protocol"] == protocol]))

    jobs_s = total("wall_s")
    m["exec.self_s"] = unit_s - jobs_s
    m["obs.traced_unit_s"] = unit_s

    # The four spans are measured, not derived: together with the proxy
    # attachment they must cover each job's wall.
    spans = (m["traces.synth_s"] + m["harness.build_s"] + total("attach_s")
             + run_s + m["harness.finalize_s"])
    if abs(spans - jobs_s) > 0.05 * jobs_s:
        problems.append(f"layer spans {spans:.3f}s do not reconcile with job wall {jobs_s:.3f}s")
    if m["sim.engine_self_s"] < 0 or m["net.hop_self_s"] < 0 or m["exec.self_s"] < 0:
        problems.append("a self time is negative: child spans exceed their parent span")
    return m, problems


# ----------------------------------------------------------------------
# Micro measurements (each on the unit's own tree / job / summary)
# ----------------------------------------------------------------------
def _timed(fn, *args, **kwargs) -> tuple[float, object]:
    gc.collect()
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


def _median_time(fn, reps: int = 5) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(reps))


def _engine_micro(n: int) -> float:
    """µs to schedule and fire one no-op event on a bare Simulator."""
    sim = Simulator()

    def noop() -> None:
        pass

    def go() -> None:
        schedule_at = sim.schedule_at
        for i in range(n):
            schedule_at(i * 1e-3, noop)
        sim.run()

    return 1e6 * _timed(go)[0] / n


class _NullSink:
    def receive(self, packet) -> None:
        pass


def _flood_micro(tree, kernel: str, deliveries: int) -> float:
    """µs per delivery of a bare SESSION flood from the source."""
    sim = Simulator()
    net = Network(sim, tree, kernel=kernel)
    sink = _NullSink()
    for host in tree.hosts:
        net.attach(host, sink)
    floods = max(1, math.ceil(deliveries / max(1, len(tree.hosts) - 1)))

    def go() -> None:
        for _ in range(floods):
            net.multicast(
                Packet(kind=PacketKind.SESSION, origin=tree.source, source=tree.source,
                       seqno=-1, size_bytes=0)
            )
            sim.run()

    return 1e6 * _timed(go)[0] / net.packets_delivered


def _index_micro(tree, ops: int) -> tuple[float, float]:
    """(seconds to build the index of a fresh clone, µs per patch op)."""
    fresh = tree.clone()
    build_s, _ = _timed(lambda: fresh.index)
    router = tree.parent(tree.receivers[0])
    names = [f"bench-join-{i}" for i in range(ops // 2)]

    def patch() -> None:
        for name in names:
            fresh.attach_receiver(name, router)
        for name in names:
            fresh.detach_subtree(name)

    return build_s, 1e6 * _timed(patch)[0] / (2 * len(names))


def _exec_micro(job: RunJob, summary: RunSummary, workdir: Path) -> dict[str, float]:
    m = {}
    m["exec.job_key_us"] = 1e6 * _timed(lambda: [job.key() for _ in range(200)])[0] / 200
    source_fingerprint.cache_clear()
    m["exec.fingerprint_ms"] = 1e3 * _timed(source_fingerprint)[0]
    fingerprint = source_fingerprint()
    text = summary.to_json()
    m["exec.summary.encode_ms"] = 1e3 * _median_time(summary.to_json)
    m["exec.summary.decode_ms"] = 1e3 * _median_time(lambda: RunSummary.from_json(text).to_result())
    cache = RunCache(workdir / "micro-cache")
    data = summary.to_dict()
    m["exec.cache.put_ms"] = 1e3 * _median_time(lambda: cache.put(job, fingerprint, data))
    m["exec.cache.get_ms"] = 1e3 * _median_time(lambda: cache.get(job, fingerprint))
    return m


def _fleet_micro(inputs: Inputs, serial_s: float, workdir: Path) -> dict[str, float]:
    m = {}
    m["sweep.compile_ms"] = 1e3 * _median_time(lambda: compile_sweep(inputs.grid), reps=3)
    engine = ExecutionEngine(jobs=WORKERS, cache=RunCache(workdir / "pool-cache"))
    m["exec.pool.cold_s"], outcomes = _timed(lambda: list(engine.map_unordered(inputs.jobs)))
    if not all(outcome.ok and not outcome.cached for outcome in outcomes):
        raise RuntimeError("pool pass did not execute every job")
    m["exec.pool.efficiency"] = serial_s / WORKERS / m["exec.pool.cold_s"]

    fleet = workdir / "fleet"
    fleet.mkdir()
    run_pass(inputs, fleet)
    m["sweep.resume_pass_s"] = _median_time(lambda: run_pass(inputs, fleet), reps=3)
    summaries = read_outputs(inputs, fleet)
    with SweepStore(fleet / "sweeps.sqlite") as store:
        digest = store.begin_sweep(inputs.sweep)

        def record_all() -> None:
            for case in inputs.sweep.cases:
                store.record(digest, case, summaries[case.key], cached=True, attempts=0)

        m["sweep.store.record_ms"] = 1e3 * _timed(record_all)[0] / len(inputs.sweep.cases)
        m["sweep.store.query_ms"] = 1e3 * _median_time(
            lambda: store.query(digest, group_by=["protocol", "trace"], metrics=["events"])
        )
    return m


def _kernel_ratio(job: RunJob) -> tuple[float, bool]:
    """sim.run_s under kernel=python over kernel=vector for ``job``, and
    whether the two summaries agree (apart from the kernel's own name)."""
    out = {}
    for kernel in ("vector", "python"):
        tracer = JobTracer(full=False)
        gc.collect()
        summary = tracer(dataclasses.replace(job, config=job.config.with_(kernel=kernel)))
        out[kernel] = (
            tracer.records[0]["run_s"],
            dataclasses.replace(summary, config={}, wall_time=0.0).to_json(),
        )
    (vector_s, vector_json), (python_s, python_json) = out["vector"], out["python"]
    return python_s / vector_s, vector_json == python_json


def _ring_ratio(job: RunJob) -> float:
    """run_trace wall with a ring-buffer Tracer attached over untraced."""
    synthetic = synthesize_job_trace(
        job.trace, seed=job.trace_seed, max_packets=job.trace_max_packets
    )
    plain_s, _ = _timed(runner.run_trace, synthetic, job.protocol, job.config)
    ring_s, _ = _timed(
        runner.run_trace, synthetic, job.protocol, job.config,
        tracer=Tracer(RingBufferSink()),
    )
    return ring_s / plain_s


def micro_metrics(inputs: Inputs, summaries: dict[str, RunSummary], serial_s: float,
                  quick: bool, workdir: Path) -> tuple[dict[str, float], list[str]]:
    problems: list[str] = []
    m: dict[str, float] = {}
    job = inputs.jobs[0]
    trace = synthesize_job_trace(
        job.trace, seed=job.trace_seed, max_packets=job.trace_max_packets
    ).trace
    tree = trace.tree
    scale = 10 if quick else 1

    if is_topology_spec(job.trace):
        m["net.families.build_s"] = _timed(build_topology, job.trace, seed=job.trace_seed)[0]
    else:
        rates = estimate_link_rates_subtree(trace)
        m["traces.attribution_s"] = _timed(
            lambda: Attributor(tree, rates).attribute_trace(trace)
        )[0]
    m["net.index.build_s"], m["net.index.patch_us"] = _index_micro(tree, 200)
    m["sim.micro.schedule_fire_us"] = _engine_micro(200_000 // scale)
    m["net.micro.flood_python_us"] = _flood_micro(tree, "python", 100_000 // scale)
    m["net.micro.flood_vector_us"] = _flood_micro(tree, "vector", 100_000 // scale)
    m.update(_exec_micro(job, summaries[job.key()], workdir))

    if job.config.kernel == "vector":
        m["net.python_over_vector"], same = _kernel_ratio(job)
        if not same:
            problems.append("python and vector kernels disagree on the run's summary")
    if inputs.ring_job is not None:
        m["obs.ring_overhead_ratio"] = _ring_ratio(inputs.ring_job)
    if inputs.sweep is not None:
        m.update(_fleet_micro(inputs, serial_s, workdir))
    return m, problems


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
def traced_pass(inputs: Inputs, seconds: float, quick: bool, workroot: Path) -> dict:
    """Alternate untraced and fully traced units for half of ``seconds``
    (at least one pair), then take the micro measurements.  Every unit
    here is serial and in-process — pool workers cannot be observed from
    outside — so for ``sweep_fleet`` the untraced unit is also the serial
    time that ``exec.pool.efficiency`` divides."""
    n_jobs = len(inputs.jobs)
    plain: list[float] = []
    units: list[dict[str, float]] = []
    problems: list[str] = []
    attempted = failed = 0
    reference = summaries = None
    started = perf_counter()
    gc.disable()
    try:
        while True:
            for tracer in (None, JobTracer(full=True)):
                workdir = workroot / f"unit{len(plain)}-{'traced' if tracer else 'plain'}"
                workdir.mkdir(parents=True)
                gc.collect()
                t0 = perf_counter()
                tally = run_pass(inputs, workdir, local_executor=tracer or execute_job)
                unit_s = perf_counter() - t0
                attempted += n_jobs
                if tally.executed != n_jobs:
                    problems.append(f"{workdir.name}: {tally}, want {n_jobs} executed")
                    failed += n_jobs
                outputs = read_outputs(inputs, workdir)
                text = canonical(outputs)
                if reference is None:
                    reference, summaries = text, outputs
                elif text != reference:
                    problems.append(f"{workdir.name}: summaries differ from the first untraced unit")
                    failed += n_jobs
                if tracer is None:
                    plain.append(unit_s)
                else:
                    metrics, found = layer_metrics(tracer.records, unit_s)
                    units.append(metrics)
                    problems.extend(found)
                shutil.rmtree(workdir)
            if quick or perf_counter() - started >= 0.5 * seconds:
                break

        micro, found = micro_metrics(
            inputs, summaries, statistics.median(plain), quick, workroot
        )
        problems.extend(found)
    finally:
        gc.enable()

    per_layer = {name: [0.0] for name in PER_LAYER_NAMES}
    for name in units[0]:
        per_layer[name] = [unit[name] for unit in units]
    for name, value in micro.items():
        per_layer[name] = [value]
    per_layer["obs.trace_overhead_ratio"] = [
        statistics.median(per_layer["obs.traced_unit_s"]) / statistics.median(plain)
    ]
    unknown = set(per_layer) - set(PER_LAYER_NAMES)
    if unknown:
        problems.append(f"undeclared per-layer metrics {sorted(unknown)}")
    return {
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
