"""``--quick`` smoke: scaled-down sizes, one unit per workload.

Asserts that every declared metric is emitted under its declared unit by
both forms of the command, that the same seed reproduces every exact
count, and that a different seed is a different input.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bench import results, run, spec


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )


def _latest() -> dict:
    return json.loads((results.RESULTS_DIR / "latest.json").read_text())


@pytest.fixture(scope="module")
def quick_suite() -> dict:
    done = _run("--quick", "--traced")
    assert done.returncode == 0, done.stdout + done.stderr
    return _latest()


def test_every_metric_is_present_for_every_workload(quick_suite):
    assert tuple(quick_suite["workloads"]) == spec.WORKLOAD_NAMES
    assert quick_suite["meta"]["elapsed_s"] < 20
    for name, block in quick_suite["workloads"].items():
        assert not block["problems"], (name, block["problems"])
        assert block["ops"]["attempted"] >= 1 and block["ops"]["failed"] == 0
        for declared, emitted in (
            (spec.END_TO_END, block["end_to_end"]),
            (spec.PER_LAYER, block["per_layer"]),
        ):
            assert set(emitted) == {m.name for m in declared}, name
            for metric in declared:
                assert emitted[metric.name]["unit"] == metric.unit
        assert all(s["value"] > 0 for s in block["end_to_end"].values()), name


def test_the_layer_spans_are_taken_where_the_work_is(quick_suite):
    for name, block in quick_suite["workloads"].items():
        layer = {k: s["value"] for k, s in block["per_layer"].items()}
        for span in ("traces.synth_s", "harness.build_s", "sim.run_s",
                     "harness.finalize_s", "net.hop_self_s", "sim.engine_self_s"):
            assert layer[span] > 0, (name, span)
        primed = name in ("scale_lossfree", "lossy_scale")
        assert (layer["core.session.recv_s"] == 0) == primed, name
        assert (layer["net.python_over_vector"] > 0) == primed, name
        assert (layer["sweep.resume_pass_s"] > 0) == (name == "sweep_fleet"), name
        assert (layer["obs.ring_overhead_ratio"] > 0) == (name == "paper_trace"), name


def test_driver_form_prints_one_result_line_per_mode():
    for trace, declared in (("0", spec.END_TO_END_NAMES), ("1", spec.PER_LAYER_NAMES)):
        done = _run("--workload", "session_mesh", "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--quick")
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert tuple(line["metrics"]) == declared
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


def test_same_seed_same_counts_other_seed_other_inputs(quick_suite):
    again = _run("--quick", "--traced", "--workload", "paper_trace")
    assert again.returncode == 0, again.stdout + again.stderr
    first = {"workloads": {"paper_trace": quick_suite["workloads"]["paper_trace"]}}
    assert results.count_mismatches(first, _latest()) == []

    from bench.workloads import build_inputs

    for name in spec.WORKLOAD_NAMES:
        keys = [
            tuple(job.key() for job in build_inputs(name, seed, quick=True).jobs)
            for seed in (0, 0, 1)
        ]
        assert keys[0] == keys[1], name
        assert set(keys[0]).isdisjoint(keys[2]), name


def test_compare_judges_against_the_bound(quick_suite):
    worse = json.loads(json.dumps(quick_suite))
    for block in worse["workloads"].values():
        block["end_to_end"]["peak_rss_mb"]["value"] *= 1.5
    lines, any_worse = results.compare(quick_suite, worse)
    assert any_worse and sum("WORSE" in line for line in lines) == len(spec.WORKLOADS)
    assert results.compare(quick_suite, quick_suite)[1] is False
