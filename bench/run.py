"""One command for the whole benchmark.

Driver form (what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

prints the named metrics and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Suite form::

    python -m bench.run [--seed N] [--workload W] [--traced] [--quick]
    python -m bench.run --compare A.json B.json
    python -m bench.run --selfcheck [--traced]

runs every (or one) workload, untraced and optionally traced, writes
``bench/results/latest.json``, appends to ``bench/results/history.jsonl``
and exits non-zero when any output check fails.

This process stays light: each run happens in fresh children (five for
the set-up time, the middle one of which goes on to measure), with GC off
inside timed units, one numeric thread, the legacy ``REPRO_*`` knobs
scrubbed, and every cache and store under ``bench/.work``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import results, spec  # noqa: E402
from bench.child import READY  # noqa: E402

WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Fresh processes whose start-to-ready time is sampled per run.
SETUP_SAMPLES = 5
#: The contract's limit on one run, and this benchmark's share per run of
#: the limit on all the driver's runs (4 + 22 per workload in 3420 s).
RUN_LIMIT_S = 180.0
RUN_BUDGET_S = 3420.0 / (4 + 22 * len(spec.WORKLOADS))

_THREAD_KNOBS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A run could not produce a result."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({knob: "1" for knob in _THREAD_KNOBS})
    return env


def _spawn(workload: str, seed: int, seconds: float, traced: bool, quick: bool,
           setup_only: bool, workroot: Path) -> tuple[float, dict | None]:
    """Start one child; return (seconds from spawn to READY, its result)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--workroot", str(workroot),
    ]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT
    )
    watchdog = threading.Timer(RUN_LIMIT_S - 10, child.kill)
    watchdog.start()
    try:
        ready_s = None
        if child.stdout.readline().strip() == READY:
            ready_s = time.perf_counter() - started
        out = child.stdout.read()
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or ready_s is None:
        raise BenchError(f"{workload}: child exited with code {child.returncode}")
    return ready_s, None if setup_only else json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 quick: bool) -> dict:
    """One run of one workload: the measuring child and the set-up-only
    children around it.  Returns the workload's block of the result
    schema."""
    started = time.perf_counter()
    workroot = WORK_DIR / f"{os.getpid()}-{workload}"
    shutil.rmtree(workroot, ignore_errors=True)
    try:
        # Half of the set-up-only children run before the measuring child
        # and half after it, so a slow spell of the machine shorter than
        # the run cannot reach every sample.
        probes = 0 if quick or traced else SETUP_SAMPLES - 1
        setup = []
        raw = None
        for index in range(probes + 1):
            measuring = index == probes // 2
            ready_s, result = _spawn(workload, seed, seconds, traced, quick,
                                     not measuring, workroot / f"child{index}")
            setup.append(ready_s)
            if measuring:
                raw = result
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    block = {
        "seed": seed,
        "seconds": seconds,
        "ops": {"attempted": raw["attempted"], "failed": raw["failed"]},
        "problems": list(raw["problems"]),
    }
    if traced:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        block["per_layer"] = {
            name: results.summarise(values, units[name])
            for name, values in raw["per_layer"].items()
        }
    else:
        cold, warm = raw["samples"]["wall_s"], raw["samples"]["warm_s"]
        rates = [raw["jobs"] / seconds_ for seconds_ in warm]
        # Host-time metrics report their fast quartile (p25 of times, p75
        # of rates): on a shared box slow-downs come in sub-second bursts
        # that only ever add time, so the fast side of a run's units is
        # the steady side.  Median, quartiles and min are stored beside it.
        block["end_to_end"] = {
            "setup_s": results.summarise(setup, "s", "p25"),
            "wall_s": results.summarise(cold, "s", "p25"),
            "peak_rss_mb": results.summarise([raw["peak_rss_mb"]], "MB"),
            "warm_jobs_per_s": results.summarise(rates, "1/s", "p75"),
        }
        block["repair"] = raw["repair"]
        block["events"] = raw["events"]
    block["elapsed_s"] = time.perf_counter() - started
    if block["elapsed_s"] > RUN_LIMIT_S:
        block["problems"].append(f"run took {block['elapsed_s']:.0f}s, over the {RUN_LIMIT_S:.0f}s limit")
    return block


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _print_block(workload: str, block: dict, traced: bool) -> None:
    mode = "traced" if traced else "untraced"
    print(f"== {workload}  seed={block['seed']}  seconds={block['seconds']:g}  ({mode}, "
          f"{block['elapsed_s']:.1f}s elapsed)")
    if traced:
        for m in spec.PER_LAYER:
            s = block["per_layer"][m.name]
            moves = ", ".join(m.moves) if m.moves else "none (must stay identical)"
            print(f"  {m.name:<34} {s['value']:>14.6g} {m.unit:<6} n={s['n']}  -> {moves}")
    else:
        for m in spec.END_TO_END:
            s = block["end_to_end"][m.name]
            print(f"  {m.name:<16} {s['value']:>12.4f} {m.unit:<4} "
                  f"median={s['median']:.4f} p25={s['p25']:.4f} p75={s['p75']:.4f} "
                  f"min={s['min']:.4f} n={s['n']}  bound={m.bound:.0%}")
        repair = block["repair"]
        failed = repair["unrecovered"] + repair["undetected"]
        share = failed / repair["losses"] if repair["losses"] else 0.0
        print(f"  repair: {repair['losses']} losses, {repair['recovered']} recovered, "
              f"{repair['unrecovered']} unrecovered, {repair['undetected']} undetected "
              f"-> {failed} unrepaired ({share:.2%}); {block['events']} events per unit")
    ops = block["ops"]
    share = ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0
    print(f"  ops_attempted={ops['attempted']} ops_failed={ops['failed']} ({share:.2%} of jobs)")
    for problem in block["problems"]:
        print(f"  CHECK FAILED [{workload}]: {problem}")


def _driver_line(block: dict, traced: bool) -> str:
    metrics = block["per_layer"] if traced else block["end_to_end"]
    return json.dumps({
        "correct": not block["problems"],
        "attempted": block["ops"]["attempted"],
        "failed": block["ops"]["failed"],
        "metrics": {
            name: {"value": s["value"], "unit": s["unit"]} for name, s in metrics.items()
        },
    })


def _meta(args: argparse.Namespace) -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"  # the driver's checkout is not a git repository
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "revision": revision,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace, passes: tuple[bool, ...]) -> dict:
    """Run the chosen workloads once per pass (False = untraced, True =
    traced) and return one result object."""
    started = time.perf_counter()
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    result = {"meta": _meta(args), "workloads": {}}
    runs = 0
    for name in names:
        merged: dict = {"problems": [], "ops": {"attempted": 0, "failed": 0}}
        for traced in passes:
            block = run_workload(name, args.seed, args.seconds, traced, args.quick)
            _print_block(name, block, traced)
            runs += 1
            problems = merged["problems"] + block["problems"]
            ops = {k: merged["ops"][k] + block["ops"][k] for k in merged["ops"]}
            merged.update(block, problems=problems, ops=ops)
        result["workloads"][name] = merged
    elapsed = result["meta"]["elapsed_s"] = time.perf_counter() - started
    if not args.quick and args.seconds <= spec.RUN_SECONDS and elapsed > runs * RUN_BUDGET_S:
        over = f"{runs} runs took {elapsed:.0f}s, over their {runs * RUN_BUDGET_S:.0f}s share of the driver's cap"
        print(f"CHECK FAILED [suite]: {over}")
        result["workloads"][names[-1]]["problems"].append(over)
    return result


def _failed(result: dict) -> bool:
    return any(block["problems"] for block in result["workloads"].values())


def _selfcheck(args: argparse.Namespace, passes: tuple[bool, ...]) -> int:
    first = run_suite(args, passes)
    results.write_ledger(first)
    second = run_suite(args, passes)
    results.write_ledger(second)
    lines, worse = results.compare(first, second)
    print("\n".join(lines))
    mismatches = results.count_mismatches(first, second)
    for line in mismatches:
        print(f"CHECK FAILED [selfcheck]: {line}")
    return 1 if worse or mismatches or _failed(first) or _failed(second) else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite form: also run the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down sizes, one unit per workload")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare the two results")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workroot", type=Path, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        lines, worse = results.compare(a, b)
        print("\n".join(lines))
        return 1 if worse else 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.child:
        from bench.child import main as child_main

        return child_main(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.quick, args.setup_only, args.workroot)

    driver_form = args.workload is not None and args.trace is not None
    passes = ((bool(args.trace),) if args.trace is not None
              else (False, True) if args.traced else (False,))
    try:
        if args.selfcheck:
            return _selfcheck(args, passes)
        result = run_suite(args, passes)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    results.write_ledger(result)
    if driver_form:
        print(_driver_line(result["workloads"][args.workload], bool(args.trace)))
    return 1 if _failed(result) else 0


if __name__ == "__main__":
    sys.exit(main())
