"""Job-oriented experiment execution: declarative run specs, serializable
result summaries, a persistent content-addressed run cache, and process-pool
fan-out.

The harness used to run every simulation serially in one process and
memoize results only in memory; :mod:`repro.exec` turns each simulation
into a hashable :class:`~repro.exec.jobs.RunJob` whose digest keys an
on-disk cache of :class:`~repro.exec.summary.RunSummary` records, and an
:class:`~repro.exec.pool.ExecutionEngine` fans cache misses out over a
process pool.  A summary rehydrates into a full
:class:`~repro.harness.runner.RunResult`, so figures rendered from cached
or parallel runs are byte-identical to fresh serial ones.
"""

from repro.exec.cache import (
    CacheStats,
    PruneStats,
    RunCache,
    default_cache_dir,
    parse_age,
    parse_size,
)
from repro.exec.jobs import RunJob, execute_job, run_job, source_fingerprint
from repro.exec.pool import (
    EngineStats,
    ExecutionEngine,
    JobOutcome,
    default_chunk_size,
)
from repro.exec.summary import RunSummary, config_from_dict, config_to_dict

__all__ = [
    "CacheStats",
    "EngineStats",
    "ExecutionEngine",
    "JobOutcome",
    "PruneStats",
    "RunCache",
    "RunJob",
    "RunSummary",
    "config_from_dict",
    "config_to_dict",
    "default_cache_dir",
    "default_chunk_size",
    "execute_job",
    "parse_age",
    "parse_size",
    "run_job",
    "source_fingerprint",
]
