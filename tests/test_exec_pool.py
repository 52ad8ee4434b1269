"""Determinism of the execution engine: parallel == serial, warm == cold,
and cache entries invalidate on config or source change."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exec import pool as pool_mod
from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob
from repro.exec.pool import ExecutionEngine
from repro.harness import report
from repro.harness.config import SimulationConfig
from repro.harness.experiments import ExperimentContext, figure1

#: Tiny replay and two traces keep the fan-out fast on a laptop/CI box.
TINY = 400
TRACES = ("WRN951113", "WRN951216")


def render(ctx) -> str:
    return report.render_figure1(figure1(ctx, traces=TRACES))


@pytest.fixture(scope="module")
def serial_render() -> str:
    return render(ExperimentContext(max_packets=TINY))


class TestParallelDeterminism:
    def test_figure1_jobs4_identical_to_serial(self, serial_render):
        parallel = render(ExperimentContext(max_packets=TINY, jobs=4))
        assert parallel == serial_render

    def test_pool_fallback_when_workers_unavailable(
        self, monkeypatch, serial_render
    ):
        def boom(*args, **kwargs):
            raise OSError("no forking allowed")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", boom)
        degraded = render(ExperimentContext(max_packets=TINY, jobs=4))
        assert degraded == serial_render


class TestCacheDeterminism:
    def test_warm_rerun_identical_and_fully_cached(
        self, tmp_path, serial_render
    ):
        cache_dir = tmp_path / "cache"
        cold_ctx = ExperimentContext(max_packets=TINY, cache=RunCache(cache_dir))
        cold = render(cold_ctx)
        assert cold == serial_render
        assert cold_ctx.engine.stats.executed == 4  # 2 traces x 2 protocols

        warm_ctx = ExperimentContext(max_packets=TINY, cache=RunCache(cache_dir))
        warm = render(warm_ctx)
        assert warm == cold
        assert warm_ctx.engine.stats.executed == 0
        assert warm_ctx.engine.cache.stats.hits == 4
        assert warm_ctx.engine.cache.stats.misses == 0

    def test_config_change_misses_cache(self, tmp_path, serial_render):
        cache_dir = tmp_path / "cache"
        first = ExperimentContext(max_packets=TINY, cache=RunCache(cache_dir))
        first.run(first.job(TRACES[0], "srm"))
        changed = ExperimentContext(
            config=SimulationConfig(reorder_delay=0.05),
            max_packets=TINY,
            cache=RunCache(cache_dir),
        )
        changed.run(changed.job(TRACES[0], "srm"))
        assert changed.engine.stats.executed == 1
        assert changed.engine.cache.stats.hits == 0

    def test_source_fingerprint_change_invalidates(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        first = ExperimentContext(max_packets=TINY, cache=RunCache(cache_dir))
        first.run(first.job(TRACES[0], "srm"))
        assert first.engine.stats.executed == 1

        monkeypatch.setattr(
            pool_mod, "source_fingerprint", lambda root=None: "0" * 64
        )
        stale = ExperimentContext(max_packets=TINY, cache=RunCache(cache_dir))
        stale.run(stale.job(TRACES[0], "srm"))
        assert stale.engine.stats.executed == 1  # recomputed, not served stale
        assert stale.engine.cache.stats.invalidations == 1


class TestEngineBatching:
    def test_duplicate_specs_execute_once(self, tmp_path):
        ctx = ExperimentContext(
            max_packets=TINY, cache=RunCache(tmp_path / "cache")
        )
        ctx.prefetch([ctx.job(TRACES[0], "srm"), ctx.job(TRACES[0], "srm")])
        assert ctx.engine.stats.executed == 1

    def test_results_keep_input_order(self):
        config = SimulationConfig(seed=0, max_packets=TINY)
        jobs = [
            RunJob(trace, protocol, config, 0, TINY)
            for trace in TRACES
            for protocol in ("srm", "cesrm")
        ]
        results = ExecutionEngine().execute(jobs)
        assert [(r.trace_name, r.protocol) for r in results] == [
            (j.trace, j.protocol) for j in jobs
        ]

    def test_memoization_preserved(self):
        ctx = ExperimentContext(max_packets=TINY)
        assert ctx.run(ctx.job(TRACES[0], "srm")) is ctx.run(ctx.job(TRACES[0], "srm"))


def _jobs(n=3):
    config = SimulationConfig(seed=0, max_packets=120)
    return [
        RunJob("WRN950919", "srm", config.with_(seed=seed), seed, 120)
        for seed in range(n)
    ]


class TestExecuteCollectsTheStream:
    """``execute`` is an ordered, fail-fast collector over
    ``map_unordered``; these pin what its own loops used to guarantee."""

    def test_stats_cold_then_warm(self, tmp_path):
        jobs = _jobs()
        cold = ExecutionEngine(cache=RunCache(tmp_path / "cache"))
        cold.execute(jobs + jobs[:1])  # a duplicate runs once
        assert (cold.stats.executed, cold.stats.cache_misses) == (3, 3)
        assert (cold.stats.cache_hits, cold.stats.executed_parallel) == (0, 0)
        warm = ExecutionEngine(cache=RunCache(tmp_path / "cache"))
        warm.execute(jobs)
        assert (warm.stats.executed, warm.stats.cache_hits) == (0, 3)

    def test_finished_runs_are_checkpointed_before_a_later_failure(
        self, tmp_path, monkeypatch
    ):
        jobs = _jobs()
        real = pool_mod.execute_job
        boom = OSError("disk on fire")

        def second_fails(job):  # resolved through pool_mod at call time
            if job == jobs[1]:
                raise boom
            return real(job)

        monkeypatch.setattr(pool_mod, "execute_job", second_fails)
        cache = RunCache(tmp_path / "cache")
        engine = ExecutionEngine(cache=cache)
        with pytest.raises(OSError) as caught:
            engine.execute(jobs)
        assert caught.value is boom  # the exception itself, not a copy
        assert engine.stats.executed == 1  # fail-fast: jobs[2] never ran
        assert [e.key for e in cache.entries()] == [jobs[0].key()]

    def test_local_executor_runs_the_serial_path(self):
        jobs = _jobs(2)
        seen = []

        def local(job):
            seen.append(job)
            return pool_mod.execute_job(job)

        results = ExecutionEngine().execute(jobs, local_executor=local)
        assert seen == jobs
        assert [r.config.seed for r in results] == [0, 1]

    def test_worker_failure_names_the_job(self, monkeypatch):
        """A failure inside a pool worker crosses the boundary as text:
        the raise carries the job's label and the recorded error."""
        config = SimulationConfig(seed=0, max_packets=120)
        jobs = [
            RunJob("WRN950919", protocol, config, 0, 120)
            for protocol in ("srm", "cesrm")
        ]
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        real_chunk = pool_mod._execute_chunk

        def chunk(payloads):
            if payloads == [jobs[1].to_dict()]:
                raise OSError("worker lost")
            return real_chunk(payloads)

        monkeypatch.setattr(pool_mod, "_execute_chunk", chunk)
        engine = ExecutionEngine(jobs=2)
        with pytest.raises(RuntimeError) as caught:
            engine.execute(jobs)
        assert str(caught.value).startswith("cesrm/WRN950919 failed")
        assert "worker lost" in str(caught.value)

    def test_parallel_stats_and_progress_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        jobs = _jobs()
        cache = RunCache(tmp_path / "cache")
        ExecutionEngine(cache=cache).execute(jobs[:1])
        lines = []
        engine = ExecutionEngine(jobs=2, cache=cache, progress=lines.append)
        engine.execute(jobs)
        assert engine.stats.executed == engine.stats.executed_parallel == 2
        assert lines[0] == "[exec] 2 job(s) to run, 1 cached"
        assert [line.split(" (")[0] for line in lines[1:]] == [
            "[exec] 1/2 done", "[exec] 2/2 done"
        ]
        assert {line.split(" (")[1] for line in lines[1:]} == {
            job.describe() + ")" for job in jobs[1:]
        }
