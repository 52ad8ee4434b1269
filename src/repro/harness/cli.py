"""The ``cesrm`` command-line interface.

Regenerate any of the paper's tables/figures, run the ablations, or run a
single protocol/trace pair:

.. code-block:: console

    $ cesrm table1
    $ cesrm figure1 --max-packets 5000 --jobs 4
    $ cesrm figure5 --full
    $ cesrm run --trace WRN951113 --protocol cesrm
    $ cesrm trace --trace WRN951113 --outcome expedited --limit 5
    $ cesrm trace --trace-out events.jsonl --profile
    $ cesrm run --trace WRN951113 --faults plan.json
    $ cesrm faults --sample --out plan.json
    $ cesrm faults --faults plan.json --protocol cesrm
    $ cesrm protocols
    $ cesrm workloads
    $ cesrm topologies
    $ cesrm caches
    $ cesrm run --workload zipf:alpha=1.1,objects=500
    $ cesrm run --cache lru:capacity=8 --workload flash_crowd:peak=20x
    $ cesrm run --faults 'link-down:u=r0,v=r1,at=2,duration=5'
    $ cesrm run --trace tree:depth=3,fanout=4 --workload flash_crowd:peak=20x
    $ cesrm run --trace transit_stub:transits=4,stubs=8,hosts=16 --churn churn:rate=0.5
    $ cesrm verify-paper --jobs 8
    $ cesrm verify-paper fig5a --format markdown
    $ cesrm cache
    $ cesrm cache --clear
    $ cesrm cache prune --older-than 7d --max-size 500M
    $ cesrm sweep run grid.toml --jobs 8
    $ cesrm sweep status
    $ cesrm sweep query --group-by protocol,workload --metric avg_latency_rtt
    $ cesrm sweep report --format markdown

Sweeps (:mod:`repro.sweep`): ``cesrm sweep run grid.toml`` executes a
declarative parameter grid — protocols × traces × workloads × faults ×
seeds × config params — through the execution engine with chunked,
work-stealing, retrying fan-out, checkpointing every completed run in
the content-addressed cache (kill it, rerun, only missing jobs execute)
and flattening every result into a columnar sqlite store that ``sweep
query``/``report`` aggregate without re-reading per-run JSON.

Fault injection (:mod:`repro.faults`): ``--faults plan.json`` runs any
command's simulations under a declarative fault plan — link outages,
node crashes, partitions, duplication, reordering, session suppression —
drawn from dedicated seeded streams, so the same plan and seed reproduce
byte-identical results.  ``cesrm faults`` describes a plan and reports
the injected faults next to the recovery outcome; ``cesrm protocols``
lists every protocol in the pluggable registry
(:mod:`repro.harness.registry`).

Workloads (:mod:`repro.workloads`): ``--workload SPEC`` drives any
command's send schedule with a declarative workload instead of the
default source-paced replay — ``zipf:alpha=1.1,objects=500``,
``flash_crowd:peak=20x,ramp=5s``, ``multi_source:senders=4``, ... —
and ``--trace tree:depth=3,fanout=4`` runs over a generative topology
instead of a Yajnik receiver set.  ``cesrm workloads`` lists the
registered families and their parameters.  Workload and topology specs
fold into the run-cache digests, so every combination caches
independently; the default (no ``--workload``) stays byte-identical to
pre-workload builds.

Cache policies (:mod:`repro.core.cachelab`): ``--cache SPEC`` swaps
CESRM's recovery-pair cache for any registered policy —
``lru:capacity=16``, ``lfu:capacity=16``, ``ttl:capacity=16,ttl=30s``,
``prob:capacity=16,p=0.5``, ``unbounded`` — through the same
family:key=value grammar as workloads.  ``cesrm caches`` lists the
registered policies; per-policy statistics (inserts, evictions, hit
rate, per-source occupancy) land in the ``run`` output and sweep store.
The default (no ``--cache``) is the paper's seqno-ordered cache and
stays byte-identical to pre-cachelab builds.

The ``trace`` command (and ``run`` with ``--trace-out``/``--profile``)
attaches the :mod:`repro.obs` instrumentation: it records the run's full
event stream, folds it into one causal recovery timeline per lost packet
(labelled expedited vs SRM fall-back), and optionally writes the stream
to JSONL and profiles the engine's handlers.  Traced runs always simulate
fresh — the run cache stores summaries, not event streams.

Simulation runs go through :mod:`repro.exec`: cache misses fan out over
``--jobs`` worker processes and every completed run is stored in a
persistent content-addressed cache (``~/.cache/cesrm-repro``, or
``--cache-dir``/``$REPRO_CACHE_DIR``), so a rerun of any figure is
near-instant.  Cached, parallel, and serial runs produce byte-identical
reports; cache accounting goes to stderr so stdout stays comparable.
``--no-cache`` forces fresh simulation without touching the cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.exec.cache import RunCache, default_cache_dir
from repro.exec.jobs import RUN_AXES, run_job, source_fingerprint
from repro.harness import experiments as exp
from repro.harness import report
from repro.harness.registry import PROTOCOLS
from repro.metrics.stats import mean
from repro.traces.yajnik import YAJNIK_TRACES

#: The registry-backed ``cesrm <things>`` commands; each is also the
#: key of its rows in the ``--json`` form.
LISTING_COMMANDS = ("protocols", "workloads", "topologies", "caches")

COMMANDS = (
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "section34",
    "ablations",
    "router-assist",
    "analyze",
    "synth",
    "run",
    "timeline",
    "trace",
    "faults",
    *LISTING_COMMANDS,
    "cache",
    "sweep",
    "verify-paper",
)

#: The run axes whose declaration asks for a ``--<name>`` flag.
FLAG_AXES = tuple(a for a in RUN_AXES if a.flag_help is not None)

#: Subcommands of ``cesrm sweep`` (the first ``names`` positional).
SWEEP_SUBCOMMANDS = ("run", "status", "query", "report")


def _trace_arg(value: str) -> str:
    """``--trace`` accepts a Yajnik trace name or a generative topology
    spec (``tree:depth=3,fanout=4``)."""
    from repro.net.families import TopologyError, is_topology_spec, parse_topology_spec

    if value in {m.name for m in YAJNIK_TRACES}:
        return value
    if is_topology_spec(value):
        try:
            parse_topology_spec(value)
        except TopologyError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    raise argparse.ArgumentTypeError(
        f"unknown trace {value!r}: expected a Yajnik name "
        f"({', '.join(m.name for m in YAJNIK_TRACES[:3])}, ...) or a "
        f"topology spec like tree:depth=3,fanout=4"
    )


def _axis_arg(declared):
    """An argparse ``type`` for a run-axis flag: validate eagerly so typos
    fail at parse time.  Every axis error is a ``ValueError``."""

    def parse(value: str) -> str:
        try:
            declared.check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesrm",
        description="Reproduce the CESRM (DSN 2004) evaluation.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "names",
        nargs="*",
        metavar="ARG",
        help="with `sweep`: a subcommand (run|status|query|report) plus a spec "
        "file (run) or sweep selector (status/query/report); with `cache`: "
        "`prune` to garbage-collect; with `verify-paper`: claim ids or "
        "dotted prefixes (e.g. fig5a) to judge instead of every claim",
    )
    parser.add_argument(
        "--max-packets",
        type=int,
        default=None,
        help="replay length per trace (default: %(default)s -> harness default)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="replay full-length traces (slow; overrides --max-packets)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--trace",
        default="WRN951113",
        type=_trace_arg,
        help="trace for the `run` command: a Yajnik name or a topology "
        "spec like tree:depth=3,fanout=4",
    )
    parser.add_argument(
        "--protocol",
        default="cesrm",
        choices=PROTOCOLS.names(),
        help="protocol for the `run` command",
    )
    for declared in FLAG_AXES:
        parser.add_argument(
            "--" + declared.name.replace("_", "-"),
            default=declared.default,
            type=_axis_arg(declared),
            choices=declared.choices,
            metavar=None if declared.choices else "SPEC",
            help=declared.flag_help,
        )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="with `run`/`trace`/`timeline`/`faults`: execute this fault "
        "schedule — a FaultPlan JSON file, or an inline spec string like "
        "'link-down:u=r0,v=r1,at=2,duration=5;node-crash:host=r2,at=4'",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="with the `faults` command: use the built-in sample plan "
        "(or write it with --out)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output file for the `synth` command (default: <trace>.json)",
    )
    parser.add_argument(
        "--all-traces",
        action="store_true",
        help="run figures 1-4 over all 14 traces (default: the paper's 6)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run with the repro.spec invariant monitor attached",
    )
    parser.add_argument(
        "--receiver",
        default=None,
        help="receiver for the `timeline` command (default: worst-hit)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for uncached simulation runs (default: serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="run-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/cesrm-repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="simulate fresh without reading or writing the run cache",
    )
    parser.add_argument(
        "--clear",
        action="store_true",
        help="with the `cache` command: delete every stored run",
    )
    parser.add_argument(
        "--older-than",
        default=None,
        metavar="AGE",
        help="with `cache prune`: drop entries older than AGE (e.g. 7d, 12h, 30m)",
    )
    parser.add_argument(
        "--max-size",
        default=None,
        metavar="SIZE",
        help="with `cache prune`: drop oldest entries until the cache fits "
        "SIZE (e.g. 500M, 2G)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with `protocols`/`workloads`/`topologies`/`faults`/`caches`: "
        "machine-readable JSON listings (for tools generating or validating "
        "sweep specs)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="with the `sweep` command: sqlite result store "
        "(default: <cache-dir>/sweeps.sqlite)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="with `sweep run`: jobs per worker chunk (default: auto)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="with `sweep run`: extra attempts per job after a worker "
        "failure (default: %(default)s)",
    )
    parser.add_argument(
        "--where",
        action="append",
        default=None,
        metavar="COL=VALUE",
        help="with `sweep query`: filter rows (repeatable), e.g. "
        "--where protocol=cesrm --where seed=0",
    )
    parser.add_argument(
        "--group-by",
        default=None,
        metavar="COL[,COL...]",
        help="with `sweep query`: dimension columns to group by, e.g. "
        "protocol,workload",
    )
    parser.add_argument(
        "--metric",
        default=None,
        metavar="M[,M...]",
        help="with `sweep query`: metric columns to aggregate "
        "(default: avg_latency_rtt)",
    )
    parser.add_argument(
        "--agg",
        default="mean",
        choices=["mean", "sum", "min", "max", "count"],
        help="with `sweep query`: aggregate function (default: %(default)s)",
    )
    parser.add_argument(
        "--format",
        default="table",
        choices=["table", "csv", "markdown"],
        dest="fmt",
        help="with `sweep query`/`report` and `verify-paper`: output format "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="with `run`/`trace`: record the event stream to a JSONL file",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="with `run`/`trace`: profile the sim engine and print hot handlers",
    )
    parser.add_argument(
        "--host",
        default=None,
        help="with the `trace` command: only timelines of this host",
    )
    parser.add_argument(
        "--seq",
        type=int,
        default=None,
        help="with the `trace` command: only timelines of this sequence number",
    )
    parser.add_argument(
        "--outcome",
        default=None,
        choices=["expedited", "srm", "late-data", "unrecovered"],
        help="with the `trace` command: only timelines with this outcome",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="with the `trace` command: max timelines printed (default: %(default)s)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="PREFIX",
        help="with the `trace` command: also dump raw events whose kind "
        "matches this dotted prefix (e.g. `net.`, `erqst.`)",
    )
    return parser


def _cache(args: argparse.Namespace) -> RunCache | None:
    if args.no_cache:
        return None
    return RunCache(args.cache_dir or default_cache_dir())


def _fault_plan(args: argparse.Namespace):
    """The FaultPlan named on the command line (empty plan when absent).

    ``--faults`` accepts either a FaultPlan JSON file or an inline spec
    string (``link-down:u=r0,v=r1,at=2,duration=5;...``) — the same
    family:key=value grammar as workload and cache-policy specs.
    """
    from repro.faults import (
        FaultPlan,
        FaultSpecError,
        compile_fault_plan,
        is_fault_spec,
        sample_plan,
    )

    if getattr(args, "sample", False):
        return sample_plan()
    target = getattr(args, "faults", None)
    if target:
        if is_fault_spec(target):
            try:
                return compile_fault_plan(target)
            except FaultSpecError as exc:
                raise SystemExit(str(exc)) from None
        return FaultPlan.load(target)
    return FaultPlan()


def _context(args: argparse.Namespace) -> exp.ExperimentContext:
    if args.full:
        max_packets: int | None | str = None
    elif args.max_packets is not None:
        max_packets = args.max_packets
    else:
        max_packets = "default"
    progress = (
        (lambda msg: print(msg, file=sys.stderr)) if args.jobs > 1 else None
    )
    ctx = exp.ExperimentContext(
        seed=args.seed,
        max_packets=max_packets,
        jobs=args.jobs,
        cache=_cache(args),
        progress=progress,
        faults=_fault_plan(args),
        axes={a.name: getattr(args, a.name) for a in FLAG_AXES},
    )
    if getattr(args, "verify", False):
        ctx.config = ctx.config.with_(verify_period=0.05)
    return ctx


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "cache":
        print(_cache_command(args))
        return 0
    if args.command == "sweep":
        return _sweep_command(args)
    ctx = _context(args)
    code = 0
    if args.command == "verify-paper":
        code = _verify_paper(args, ctx)
    else:
        print(_render(args, ctx))
    cache = ctx.engine.cache
    if cache is not None:
        print(
            f"[exec] cache: {cache.stats.describe()} — {cache.directory}",
            file=sys.stderr,
        )
    return code


def _render(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    """The report of a one-rendering command (every command but `cache`,
    `sweep` and `verify-paper`)."""
    from repro.traces.yajnik import FIGURE_TRACES

    if args.command in LISTING_COMMANDS:
        return _listing_command(args.command, args.json)
    traces = tuple(m.name for m in YAJNIK_TRACES) if args.all_traces else FIGURE_TRACES
    ablations = (
        (exp.ablation_policy, "selection policy"),
        (exp.ablation_cache_capacity, "cache capacity"),
        (exp.ablation_reorder_delay, "REORDER-DELAY"),
        (exp.ablation_lossy_recovery, "lossy recovery"),
        (exp.ablation_link_delay, "link delay"),
    )
    return {
        "table1": lambda: report.render_table1(exp.table1(ctx)),
        "figure1": lambda: report.render_figure1(exp.figure1(ctx, traces)),
        "figure2": lambda: report.render_figure2(exp.figure2(ctx, traces)),
        "figure3": lambda: report.render_packet_counts(
            exp.figure3(ctx, traces), "Figure 3 (requests)"
        ),
        "figure4": lambda: report.render_packet_counts(
            exp.figure4(ctx, traces), "Figure 4 (replies)"
        ),
        "figure5": lambda: report.render_figure5(exp.figure5(ctx)),
        "section34": lambda: report.render_section_3_4(exp.section_3_4(ctx)),
        "ablations": lambda: "\n\n".join(
            report.render_ablation(driver(ctx), f"Ablation — {title}")
            for driver, title in ablations
        ),
        "router-assist": lambda: report.render_router_assist(
            exp.router_assist_comparison(ctx)
        ),
        "analyze": lambda: _analyze(args, ctx),
        "synth": lambda: _synth(args, ctx),
        "run": lambda: _run_single(args, ctx),
        "timeline": lambda: _timeline(args, ctx),
        "trace": lambda: _trace_command(args, ctx),
        "faults": lambda: _faults_command(args, ctx),
    }[args.command]()


def _verify_paper(args: argparse.Namespace, ctx: exp.ExperimentContext) -> int:
    """Judge the paper's claims (:mod:`repro.harness.claims`); exit 1 on
    any miss no Known deviation waives."""
    from repro.harness import claims

    try:
        selected = claims.select(args.names)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    verdicts = claims.scorecard(ctx, selected)
    print(claims.render(verdicts, args.fmt))
    print(claims.summary(verdicts), file=sys.stderr)
    return 1 if any(v.status == "MISS" for v in verdicts) else 0


def _cache_command(args: argparse.Namespace) -> str:
    """Inspect (default), clear (``--clear``), or garbage-collect
    (``cesrm cache prune --older-than 7d --max-size 500M``) the
    persistent run cache."""
    from repro.exec.cache import parse_age, parse_size

    cache = RunCache(args.cache_dir or default_cache_dir())
    if args.clear:
        removed = cache.clear()
        return f"run cache {cache.directory}: cleared {removed} entries"
    if args.names and args.names[0] == "prune":
        if args.older_than is None and args.max_size is None:
            raise SystemExit(
                "cesrm cache prune needs --older-than AGE and/or --max-size SIZE"
            )
        try:
            older_than = parse_age(args.older_than) if args.older_than else None
            max_size = parse_size(args.max_size) if args.max_size else None
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        stats = cache.prune(older_than=older_than, max_size=max_size)
        return f"run cache {cache.directory}: {stats.describe()}"
    if args.names:
        raise SystemExit(
            f"unknown cache subcommand {args.names[0]!r} (known: prune)"
        )
    entries = cache.entries()
    fingerprint = source_fingerprint()
    fresh = sum(1 for e in entries if e.fingerprint == fingerprint)
    lines = [
        f"run cache {cache.directory}",
        f"  entries: {len(entries)} ({fresh} current, "
        f"{len(entries) - fresh} stale), {cache.size_bytes()} bytes",
        f"  source fingerprint: {fingerprint[:16]}…",
    ]
    for entry in entries:
        marker = "ok " if entry.fingerprint == fingerprint else "old"
        cap = "full" if entry.max_packets is None else entry.max_packets
        labels = "".join(f" {k}={v}" for k, v in entry.axes.items())
        lines.append(
            f"  [{marker}] {entry.protocol:>12} {entry.trace:<10} "
            f"seed={entry.seed} cap={cap}{labels} "
            f"({entry.size_bytes} B)"
        )
    return "\n".join(lines)


def _analyze(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    """Render the [10]-style loss-locality analysis for every trace."""
    rows = [
        (
            row.trace,
            f"{row.mean_burst:.2f}",
            f"{row.locality_gain:.1f}x",
            f"{100 * row.top3_links:.0f}%",
            f"{100 * row.most_recent_accuracy:.0f}%",
            f"{100 * row.most_frequent_accuracy:.0f}%",
        )
        for row in exp.trace_locality(ctx)
    ]
    return "Loss-locality analysis ([10])\n" + report.render_table(
        ["Trace", "MeanBurst", "CondGain", "Top3Links", "RecentAcc", "FreqAcc"],
        rows,
    )


def _synth(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    """Synthesize one trace and write it to a JSON file."""
    from repro.traces.io import save_trace

    synthetic = ctx.trace(args.trace)
    path = args.out or f"{args.trace.lower()}.json"
    save_trace(synthetic.trace, path)
    return (
        f"wrote {path}: {synthetic.trace.n_packets} packets, "
        f"{synthetic.trace.total_losses} losses, "
        f"{len(synthetic.trace.tree.receivers)} receivers"
    )


def _timeline(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    """Render one receiver's per-packet recovery timeline."""
    from repro.harness.report import render_recovery_timeline

    result = ctx.run(args.trace, args.protocol)
    receiver = args.receiver
    if receiver is None:
        receiver = max(
            result.receivers,
            key=lambda r: len(result.metrics.recoveries.get(r, [])),
        )
    return render_recovery_timeline(result, receiver, max_rows=30)


def _traced_run(args: argparse.Namespace, ctx: exp.ExperimentContext):
    """Run one trace/protocol pair with obs hooks attached.

    Traced runs bypass the run cache deliberately: the cache stores only
    ``RunSummary`` reductions, and the point of tracing is the full event
    stream of a *fresh* execution.

    Returns ``(result, ring, profiler)``; ``ring`` holds the in-memory
    event stream, and a JSONL copy lands at ``--trace-out`` when given.
    """
    from repro.obs import JsonlFileSink, RingBufferSink, SimProfiler, Tracer

    ring = RingBufferSink()
    sinks = [ring]
    if args.trace_out:
        sinks.append(JsonlFileSink(args.trace_out))
    tracer = Tracer(*sinks)
    profiler = SimProfiler() if args.profile else None
    result = run_job(
        ctx.job(args.trace, args.protocol),
        synthetic=ctx.trace(args.trace),
        tracer=tracer,
        profiler=profiler,
    )
    return result, ring, profiler


def _trace_command(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    """Record a traced run and pretty-print per-loss recovery timelines."""
    from repro.obs import RecoveryTimeline

    result, ring, profiler = _traced_run(args, ctx)
    timeline = RecoveryTimeline.from_events(ring.events)
    stories = timeline.stories
    if args.host is not None:
        stories = [s for s in stories if s.host == args.host]
    if args.seq is not None:
        stories = [s for s in stories if s.seqno == args.seq]
    if args.outcome is not None:
        stories = [s for s in stories if s.outcome == args.outcome]

    counts = timeline.outcome_counts()
    lines = [
        f"{args.protocol} on {args.trace}: {ring.emitted} events, "
        f"{len(timeline.stories)} losses "
        f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})",
    ]
    if args.trace_out:
        lines.append(f"  event stream written to {args.trace_out}")
    shown = stories[: args.limit] if args.limit >= 0 else stories
    for story in shown:
        lines.append("")
        lines.append(story.describe())
    if len(shown) < len(stories):
        lines.append("")
        lines.append(
            f"  ... {len(stories) - len(shown)} more timelines "
            f"(raise --limit to see them)"
        )
    if args.events is not None:
        matching = [e for e in ring.events if e.kind.startswith(args.events)]
        lines.append("")
        lines.append(f"events matching {args.events!r}: {len(matching)}")
        lines.extend(f"  {e.describe()}" for e in matching[: max(args.limit, 0) * 10])
    if profiler is not None:
        lines.append("")
        lines.append(profiler.describe())
    return "\n".join(lines)


def _faults_command(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    """Describe a fault plan and run it (``--out`` just writes the plan).

    ``cesrm faults --sample --out plan.json`` writes the built-in sample
    plan; ``cesrm faults --faults plan.json`` (or ``--sample``) runs the
    configured trace/protocol under the plan and reports the injected
    faults next to the recovery outcome.
    """
    if args.json:
        from dataclasses import fields as dc_fields

        from repro.faults.plan import EVENT_TYPES

        payload = {
            "events": [
                {
                    "type": name,
                    "fields": [
                        f.name for f in dc_fields(cls) if f.name != "type_name"
                    ],
                }
                for name, cls in sorted(EVENT_TYPES.items())
            ]
        }
        if not ctx.faults.empty:
            payload["plan"] = ctx.faults.to_dict()
        return _listing_json(payload)
    plan = ctx.faults
    if plan.empty:
        return (
            "no fault plan given — pass --faults plan.json or --sample\n"
            "(--sample --out plan.json writes the sample plan to disk)"
        )
    if args.out:
        plan.save(args.out)
        return f"wrote {args.out}:\n{plan.describe()}"
    result = ctx.run(args.trace, args.protocol)
    stats = result.faults or {}
    lines = [
        plan.describe(),
        "",
        f"{args.protocol} on {args.trace} under the plan:",
        f"  recovered {result.recovered_losses}, "
        f"unrecovered {result.unrecovered_losses} "
        f"(of {result.total_losses} trace losses)",
        "  injected: "
        + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())),
    ]
    if "expedited" in PROTOCOLS.get(args.protocol).tags:
        lines.append(
            f"  expedited: requests={result.metrics.expedited_requests_sent}, "
            f"success={100 * result.metrics.expedited_success_rate:.0f}%"
        )
    return "\n".join(lines)


def _listing_json(payload) -> str:
    """The one JSON rendering behind every ``cesrm <registry> --json``
    listing (protocols/workloads/topologies/caches and ``faults``), so
    tools see a uniform serialization (stable key order, two-space
    indent)."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def _listing_command(command: str, as_json: bool) -> str:
    """The one renderer behind ``cesrm protocols | workloads | topologies
    | caches``: a surface's rows come from its registry
    (:meth:`~repro.harness.registries.Registry.rows`); this table adds
    what only the command knows — heading, name column width, the extra
    ``--json`` blocks and the text footer."""
    from repro.churn import CHURN_DEFAULTS, CHURN_FAMILY
    from repro.core.cachelab import CACHE_POLICIES
    from repro.net.families import TOPOLOGIES
    from repro.workloads import WORKLOADS

    registry, heading, width, blocks, footer = {
        "protocols": (PROTOCOLS, "registered protocols:", 12, {}, None),
        "workloads": (
            WORKLOADS,
            "registered workloads (cesrm run --workload <family>[:k=v,...]):",
            14,
            {"topologies": TOPOLOGIES.rows()},
            "topology specs (the --trace slot): "
            + ", ".join(f"{name}:..." for name in TOPOLOGIES.names())
            + " — `cesrm topologies` lists parameters",
        ),
        # Topology specs ride the ``--trace`` slot and fold into run-cache
        # digests like workload specs; docs/topologies.md has the grammar,
        # the ``--churn`` membership axis and the scale methodology.
        "topologies": (
            TOPOLOGIES,
            "registered topology families (cesrm run --trace <family>[:k=v,...]):",
            12,
            {
                "churn": {
                    "name": CHURN_FAMILY,
                    "params": {
                        "rate": "mean join/leave events per second (required)",
                        **{k: f"default {v}" for k, v in CHURN_DEFAULTS.items()},
                    },
                }
            },
            "membership churn (any topology): --churn churn:rate=R"
            "[,leave=0.5,start=0,until=end,floor=2] — see docs/topologies.md",
        ),
        "caches": (
            CACHE_POLICIES,
            "registered cache policies (cesrm run --cache <family>[:k=v,...]):",
            10,
            {},
            "the default (no --cache) is the paper's seqno-ordered cache at "
            "capacity 16; explicit specs fold into run-cache digests",
        ),
    }[command]
    rows = registry.rows()
    if as_json:
        return _listing_json({command: rows, **blocks})
    lines = [heading]
    for row in rows:
        # A boolean listing field reads as a tag unless the spec already
        # tags itself so (``tree`` is both calibrated and "calibrated").
        tags = [
            key
            for key in registry.listing
            if row[key] is True and key not in row["tags"]
        ] + row["tags"]
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        lines.append(f"  {row['name']:>{width}s}  {row['description']}{suffix}")
        for key, doc in row.get("params", {}).items():
            lines.append(f"  {'':>{width}s}    {key}: {doc}")
    if footer is not None:
        lines += ["", footer]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The sweep command
# ----------------------------------------------------------------------
def _sweep_store(args: argparse.Namespace):
    from repro.sweep import SweepStore, default_store_path

    path = args.store or default_store_path(args.cache_dir or default_cache_dir())
    return SweepStore(path)


def _sweep_where(args: argparse.Namespace) -> dict[str, str]:
    where = {}
    for token in args.where or ():
        key, eq, value = token.partition("=")
        if not eq or not key:
            raise SystemExit(f"--where expects COL=VALUE, got {token!r}")
        where[key.strip()] = value.strip()
    return where


def _sweep_command(args: argparse.Namespace) -> int:
    """``cesrm sweep run|status|query|report`` — see docs/sweeps.md."""
    from repro.exec.pool import ExecutionEngine
    from repro.sweep import (
        SweepError,
        SweepStoreError,
        load_sweep,
        render_rows,
        render_sweep_report,
        run_sweep,
    )

    if not args.names or args.names[0] not in SWEEP_SUBCOMMANDS:
        print(
            "usage: cesrm sweep run SPEC.toml [--jobs N] [--retries R] |\n"
            "       cesrm sweep status [SELECTOR] |\n"
            "       cesrm sweep query [SELECTOR] --group-by ... --metric ... |\n"
            "       cesrm sweep report [SELECTOR] [--format markdown]",
            file=sys.stderr,
        )
        return 2
    sub = args.names[0]
    target = args.names[1] if len(args.names) > 1 else None

    if sub == "run":
        if target is None:
            print("cesrm sweep run needs a spec file (TOML or JSON)", file=sys.stderr)
            return 2
        try:
            spec = load_sweep(target)
        except SweepError as exc:
            print(f"bad sweep spec: {exc}", file=sys.stderr)
            return 2
        engine = ExecutionEngine(
            jobs=args.jobs,
            cache=_cache(args),
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        with _sweep_store(args) as store:
            report_ = run_sweep(
                spec,
                engine=engine,
                store=store,
                chunk_size=args.chunk_size,
                retries=args.retries,
                progress=lambda msg: print(msg, file=sys.stderr),
            )
            print(report_.describe())
            print(f"  store {store.path}")
        if engine.cache is not None:
            print(
                f"[exec] cache: {engine.cache.stats.describe()} — "
                f"{engine.cache.directory}",
                file=sys.stderr,
            )
        return 1 if report_.failed else 0

    with _sweep_store(args) as store:
        try:
            if sub == "status":
                return _sweep_status(store, target)
            digest = _resolve_sweep_target(store, target)
            if sub == "query":
                metrics = (args.metric or "avg_latency_rtt").split(",")
                group_by = [g for g in (args.group_by or "").split(",") if g]
                headers, rows = store.query(
                    digest,
                    where=_sweep_where(args),
                    group_by=group_by,
                    metrics=[m.strip() for m in metrics],
                    agg=args.agg,
                )
                print(render_rows(headers, rows, args.fmt))
                return 0
            # report
            print(render_sweep_report(store, digest, args.fmt))
            return 0
        except SweepStoreError as exc:
            print(str(exc), file=sys.stderr)
            return 2


def _resolve_sweep_target(store, target: str | None) -> str:
    """A query/report selector may also be a spec file: compile it and use
    its digest, so `cesrm sweep query grid.toml` just works."""
    from pathlib import Path

    from repro.sweep import SweepError, load_sweep

    if target and (
        target.endswith((".toml", ".json")) or Path(target).is_file()
    ):
        try:
            return load_sweep(target).digest()
        except SweepError as exc:
            raise SystemExit(f"bad sweep spec {target!r}: {exc}") from None
    return store.resolve(target)


def _sweep_status(store, target: str | None) -> int:
    import time as _time

    sweeps = store.sweeps()
    if target:
        digest = _resolve_sweep_target(store, target)
        sweeps = [s for s in sweeps if s["digest"] == digest]
    if not sweeps:
        print(f"no sweeps recorded in {store.path}")
        return 0
    print(f"sweep store {store.path}:")
    for entry in sweeps:
        counts = store.counts(entry["digest"])
        state = "done" if counts["ok"] >= entry["n_jobs"] else "partial"
        if counts["failed"]:
            state += f", {counts['failed']} failed"
        updated = _time.strftime(
            "%Y-%m-%d %H:%M:%S", _time.localtime(entry["updated_at"])
        )
        print(
            f"  {entry['digest'][:12]}  {entry['name']:<24} "
            f"{counts['ok']}/{entry['n_jobs']} ok ({state})  "
            f"updated {updated}"
        )
        if entry["description"]:
            print(f"    {entry['description']}")
    return 0


def _run_single(args: argparse.Namespace, ctx: exp.ExperimentContext) -> str:
    traced = bool(args.trace_out or args.profile)
    if traced:
        result, _, profiler = _traced_run(args, ctx)
    else:
        result = ctx.run(args.trace, args.protocol)
    lat = mean([result.avg_normalized_recovery_time(r) for r in result.receivers])
    lines = [
        f"{args.protocol} on {args.trace}: {result.n_packets} packets, "
        f"{result.total_losses} losses",
        f"  recovered {result.recovered_losses}, unrecovered {result.unrecovered_losses}",
        f"  avg normalized recovery time {lat:.2f} RTT",
        f"  overhead: retx={result.overhead.retransmissions} units, "
        f"mcast-ctl={result.overhead.multicast_control}, "
        f"ucast-ctl={result.overhead.unicast_control}",
        f"  events={result.events_processed}, wall={result.wall_time:.2f}s",
    ]
    if "expedited" in PROTOCOLS.get(args.protocol).tags:
        lines.append(
            f"  expedited: requests={result.metrics.expedited_requests_sent}, "
            f"replies={result.metrics.expedited_replies_sent}, "
            f"success={100 * result.metrics.expedited_success_rate:.0f}%"
        )
    if result.workload is not None:
        w = result.workload
        line = (
            f"  workload {w['spec']}: {w['events']} events from "
            f"{len(w['senders'])} sender(s), "
            f"{w['offered_load_pps']:.1f} pkt/s offered, "
            f"expedited fraction {100 * w['expedited_fraction']:.0f}%"
        )
        if "latency_p50" in w:
            line += (
                f", recovery p50/p90/p99 = {w['latency_p50'] * 1000:.0f}/"
                f"{w['latency_p90'] * 1000:.0f}/{w['latency_p99'] * 1000:.0f} ms"
            )
        lines.append(line)
    if result.cache is not None:
        c = result.cache
        lines.append(
            f"  cache {c['spec']}: {c['inserts']} inserts "
            f"({c['improvements']} improved, {c['rejects']} rejected), "
            f"{c['evictions']} evictions "
            f"({c['capacity_evictions']} capacity, "
            f"{c['replier_evictions']} replier, "
            f"{c['expirations']} expired)"
        )
        lines.append(
            f"    lookups {c['lookups']}, hit rate "
            f"{100 * c['hit_rate']:.0f}%, expedited fraction "
            f"{100 * c['expedited_fraction']:.0f}%"
        )
        if c["occupancy"]:
            occ = ", ".join(
                f"{source}={count}"
                for source, count in sorted(c["occupancy"].items())
            )
            lines.append(f"    occupancy by source: {occ}")
    if result.churn is not None:
        ch = result.churn
        lines.append(
            f"  churn {ch['spec']}: {ch['joins']} joins, {ch['leaves']} "
            f"leaves ({ch['skipped_floor']} floor-skipped), final "
            f"membership {ch['final_receivers']}"
        )
    if traced:
        if args.trace_out:
            lines.append(f"  event stream written to {args.trace_out}")
        if profiler is not None:
            lines.append(profiler.describe())
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
