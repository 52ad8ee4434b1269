"""The warm path's work bound: a cached job pays for its identity and its
decode once, however many layers (engine, cache, scheduler, store) ask
for its key on the way through."""

import json

import pytest

import repro.exec.jobs as jobs_mod
from repro.exec.cache import RunCache
from repro.exec.pool import ExecutionEngine
from repro.sweep import SweepStore, compile_sweep, run_sweep

#: 2 protocols x 2 traces x 4 seeds = 16 jobs.
GRID = {
    "name": "warm-bound",
    "grid": {
        "protocol": ["srm", "cesrm"],
        "trace": ["WRN950919", "WRN951113"],
        "seed": [0, 1, 2, 3],
    },
    "defaults": {"max_packets": 60},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A cache and store that a cold pass over ``GRID`` filled."""
    workdir = tmp_path_factory.mktemp("warm")
    engine = ExecutionEngine(cache=RunCache(workdir / "cache"))
    with SweepStore(workdir / "sweeps.sqlite") as store:
        report = run_sweep(compile_sweep(GRID), engine=engine, store=store)
    assert report.executed == 16
    return workdir


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_warm_sweep_builds_each_wire_form_at_most_once(workdir, monkeypatch):
    # Every RunJob wire-form build encodes the job's config exactly once.
    builds = _count_calls(monkeypatch, jobs_mod, "config_to_dict")
    spec = compile_sweep(GRID)  # fresh jobs: nothing memoized yet
    engine = ExecutionEngine(cache=RunCache(workdir / "cache"))
    with SweepStore(workdir / "sweeps.sqlite") as store:
        report = run_sweep(spec, engine=engine, store=store)
    assert (report.cached, report.executed) == (16, 0)
    assert len(spec.cases) == 16
    assert len(builds) <= len(spec.cases)


def test_warm_execute_decodes_each_job_once(workdir, monkeypatch):
    jobs = [case.job for case in compile_sweep(GRID).cases]
    engine = ExecutionEngine(cache=RunCache(workdir / "cache"))
    decodes = _count_calls(monkeypatch, json, "loads")
    results = engine.execute(jobs + jobs[:3])  # duplicates run once
    assert engine.stats.cache_hits == len(jobs) == 16
    assert engine.stats.executed == 0
    assert len(decodes) == len(jobs)
    assert [r.config for r in results[-3:]] == [r.config for r in results[:3]]
