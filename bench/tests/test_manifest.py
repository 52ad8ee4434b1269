"""BENCHMARK.json, bench/spec.py and the contract's limits agree.

Run with ``python -m pytest bench/tests -q`` (not collected by tier-1).
"""

from __future__ import annotations

import json
import re

from bench import run, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MANIFEST_PATH = run.ROOT / "BENCHMARK.json"


def test_benchmark_json_is_the_declared_manifest():
    assert json.loads(MANIFEST_PATH.read_text()) == spec.manifest()
    assert MANIFEST_PATH.stat().st_size <= 64 * 1024


def test_names_and_units_fit_the_contract():
    names = spec.WORKLOAD_NAMES + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric


def test_counts_and_bounds_fit_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 1 <= spec.RUN_SECONDS <= 60
    for workload in spec.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_says_what_it_should_move():
    for metric in spec.PER_LAYER:
        assert metric.what
        for move in metric.moves:
            end_to_end, _, workload = move.partition("@")
            assert end_to_end in spec.END_TO_END_NAMES, metric
            assert workload in spec.WORKLOAD_NAMES, metric
    # Simulated statistics move no host-time metric.
    for metric in spec.PER_LAYER:
        if metric.unit == "count":
            assert metric.moves == (), metric


def test_the_driver_fits_its_time_cap():
    # 4 + 22 runs per workload, each measuring RUN_SECONDS, within 3420 s.
    assert spec.RUN_SECONDS < run.RUN_BUDGET_S
