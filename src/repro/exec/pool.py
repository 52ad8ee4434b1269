"""The execution engine: cache lookup + process-pool fan-out.

:meth:`ExecutionEngine.map_unordered` is the one execution path: cache
hits surface at once, misses run serially or in chunks pulled by pool
workers, and every finished job is written to the cache as it lands.
:meth:`ExecutionEngine.execute` collects that stream into rehydrated
:class:`~repro.harness.runner.RunResult`\\ s **in input order**, regardless
of which worker finished first — parallel runs are byte-identical to
serial ones because each simulation is deterministic in its job spec and
results are reduced through :class:`~repro.exec.summary.RunSummary`
either way.  Duplicate specs within a batch execute once.  When the
platform cannot spawn worker processes the engine degrades to serial
execution instead of failing.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, Callable, Iterator, Sequence

from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, execute_job, source_fingerprint
from repro.exec.summary import RunSummary
from repro.harness.runner import RunResult

#: Optional per-job local executor (serial path); lets the harness reuse
#: its memoized traces instead of re-synthesizing.
LocalExecutor = Callable[[RunJob], RunSummary]

#: How many times a broken process pool is rebuilt before the engine
#: gives up on parallelism and fails the remaining jobs.
MAX_POOL_REBUILDS = 3


def _execute_chunk(payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Worker-process entry point: a *chunk* of job dicts in, summary
    dicts out (plain JSON data on both sides so nothing enum-keyed crosses
    the pickle boundary; a chunk amortizes the submit/pickle round-trip
    when a sweep has thousands of short runs)."""
    return [
        execute_job(RunJob.from_dict(payload)).to_dict() for payload in payloads
    ]


@dataclass
class EngineStats:
    """What one engine handle did across its batches."""

    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    executed_parallel: int = 0
    #: Job attempts re-queued after a worker/chunk failure.
    retried: int = 0
    #: Jobs abandoned after exhausting their retry budget.
    failed: int = 0

    def describe(self) -> str:
        return (
            f"{self.cache_hits} cached, {self.executed} simulated "
            f"({self.executed_parallel} in workers)"
        )


@dataclass(frozen=True)
class JobOutcome:
    """One job's fate under :meth:`ExecutionEngine.map_unordered`."""

    job: RunJob
    summary: RunSummary | None
    #: True when the summary came from the run cache (zero recomputation).
    cached: bool
    #: Execution attempts consumed (0 for a cache hit).
    attempts: int
    error: str | None = None
    #: The exception itself when the job failed in this process (a
    #: worker's failure crosses the pool boundary as ``error`` only).
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.summary is not None


@dataclass
class ExecutionEngine:
    """Runs job batches through the cache and an optional process pool."""

    #: Worker processes for cache misses (1 = serial, the default).
    jobs: int = 1
    cache: RunCache | None = None
    #: Progress sink (e.g. ``lambda msg: print(msg, file=sys.stderr)``).
    progress: Callable[[str], None] | None = None
    stats: EngineStats = field(default_factory=EngineStats)

    def execute(
        self,
        run_jobs: Sequence[RunJob],
        local_executor: LocalExecutor | None = None,
    ) -> list[RunResult]:
        """Execute ``run_jobs`` (deduplicated) and return results in the
        order the jobs were given.  Fails fast: the first job that fails
        raises — the job's own exception when it ran in this process."""
        keys = [job.key() for job in run_jobs]
        unique: dict[str, RunJob] = {}
        for key, job in zip(keys, run_jobs):
            unique.setdefault(key, job)
        results: dict[str, RunResult] = {}
        cached = ran = 0
        # One job per chunk: a worker failure then names the job that
        # raised, not a chunk-mate.
        for outcome in self._stream(
            unique, chunk_size=1, retries=0, local_executor=local_executor
        ):
            if outcome.exception is not None:
                raise outcome.exception
            if outcome.summary is None:
                raise RuntimeError(
                    f"{outcome.job.describe()} failed: {outcome.error}"
                )
            results[outcome.job.key()] = outcome.summary.to_result()
            if outcome.cached:
                cached += 1  # hits all surface before the first run
            else:
                ran += 1
                self._report(
                    f"[exec] {ran}/{len(unique) - cached} done "
                    f"({outcome.job.describe()})"
                )
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    # Streaming execution (the repro.sweep scheduler's substrate)
    # ------------------------------------------------------------------
    def map_unordered(
        self,
        run_jobs: Sequence[RunJob],
        chunk_size: int | None = None,
        retries: int = 2,
        local_executor: LocalExecutor | None = None,
    ) -> Iterator[JobOutcome]:
        """Execute ``run_jobs`` (deduplicated) and yield one
        :class:`JobOutcome` per unique job **as each completes**.

        Cache hits surface immediately, misses are packed
        into chunks and pulled by pool workers as they free up (late
        binding — an idle worker steals the next chunk off the shared
        queue rather than owning a pre-assigned shard), every completed
        job is written to the cache the moment its chunk lands (the
        cache is the sweep checkpoint: ``kill -9`` loses at most the
        in-flight chunks), and a job that dies with its worker is
        retried — as a singleton, so one poisoned job cannot re-fail its
        chunk-mates — up to ``retries`` extra attempts before it is
        reported failed instead of aborting the sweep.  The serial path
        runs each job through ``local_executor`` when one is given.
        """
        unique: dict[str, RunJob] = {}
        for job in run_jobs:
            unique.setdefault(job.key(), job)
        return self._stream(unique, chunk_size, retries, local_executor)

    def _stream(
        self,
        unique: dict[str, RunJob],
        chunk_size: int | None,
        retries: int,
        local_executor: LocalExecutor | None,
    ) -> Iterator[JobOutcome]:
        """:meth:`map_unordered` over jobs already deduplicated by key."""
        fingerprint = source_fingerprint()
        pending: list[RunJob] = []
        for job in unique.values():
            summary = self._cached_summary(job, fingerprint)
            if summary is not None:
                self.stats.cache_hits += 1
                yield JobOutcome(job, summary, cached=True, attempts=0)
                continue
            self.stats.cache_misses += 1
            pending.append(job)
        if not pending:
            return
        self._report(
            f"[exec] {len(pending)} job(s) to run, "
            f"{len(unique) - len(pending)} cached"
        )
        if self.jobs > 1 and len(pending) > 1:
            try:
                yield from self._map_parallel(
                    pending, fingerprint, chunk_size, retries
                )
                return
            except (OSError, ImportError, PicklingError, RuntimeError) as exc:
                self._report(
                    f"[exec] process pool unavailable ({exc!r}); "
                    "running serially"
                )
        yield from self._map_serial(
            pending, fingerprint, retries, local_executor
        )

    def _cached_summary(
        self, job: RunJob, fingerprint: str
    ) -> RunSummary | None:
        if self.cache is None:
            return None
        summary_dict = self.cache.get(job, fingerprint)
        if summary_dict is None:
            return None
        try:
            return RunSummary.from_dict(summary_dict)
        except (ValueError, TypeError, KeyError):
            return None  # undecodable entry: recompute and overwrite

    def _finish_job(
        self, job: RunJob, summary: RunSummary, fingerprint: str, attempts: int
    ) -> JobOutcome:
        if self.cache is not None:
            self.cache.put(job, fingerprint, summary.to_dict())
        self.stats.executed += 1
        return JobOutcome(job, summary, cached=False, attempts=attempts)

    def _fail_job(
        self,
        job: RunJob,
        attempts: int,
        error: str,
        exception: BaseException | None = None,
    ) -> JobOutcome:
        self.stats.failed += 1
        self._report(
            f"[exec] giving up on {job.describe()} after "
            f"{attempts} attempt(s): {error}"
        )
        return JobOutcome(
            job, None, cached=False, attempts=attempts, error=error,
            exception=exception,
        )

    def _map_serial(
        self,
        pending: list[RunJob],
        fingerprint: str,
        retries: int,
        local_executor: LocalExecutor | None,
    ) -> Iterator[JobOutcome]:
        run = local_executor or execute_job
        for job in pending:
            attempts = 0
            while True:
                attempts += 1
                try:
                    summary = run(job)
                except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                    if attempts > retries:
                        yield self._fail_job(job, attempts, repr(exc), exc)
                        break
                    self.stats.retried += 1
                    self._report(
                        f"[exec] retrying {job.describe()} "
                        f"(attempt {attempts} failed: {exc!r})"
                    )
                    continue
                yield self._finish_job(job, summary, fingerprint, attempts)
                break

    def _map_parallel(
        self,
        pending: list[RunJob],
        fingerprint: str,
        chunk_size: int | None,
        retries: int,
    ) -> Iterator[JobOutcome]:
        workers = min(self.jobs, len(pending))
        size = chunk_size or default_chunk_size(len(pending), workers)
        #: Each queue entry is ``(jobs, attempts)`` — attempts counts
        #: execution tries already consumed by every job in the chunk.
        queue: deque[tuple[list[RunJob], int]] = deque(
            (pending[i : i + size], 0) for i in range(0, len(pending), size)
        )
        rebuilds = 0
        pool = ProcessPoolExecutor(max_workers=workers)
        in_flight: dict[Any, tuple[list[RunJob], int]] = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < workers:
                    chunk, attempts = queue.popleft()
                    future = pool.submit(
                        _execute_chunk, [job.to_dict() for job in chunk]
                    )
                    in_flight[future] = (chunk, attempts)
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    chunk, attempts = in_flight.pop(future)
                    try:
                        summaries = future.result()
                    except BrokenExecutor as exc:
                        broken = True
                        for outcome in self._requeue(
                            queue, chunk, attempts + 1, retries, exc
                        ):
                            yield outcome
                        continue
                    except Exception as exc:  # noqa: BLE001 - split and retry
                        for outcome in self._requeue(
                            queue, chunk, attempts + 1, retries, exc
                        ):
                            yield outcome
                        continue
                    for job, summary_dict in zip(chunk, summaries):
                        self.stats.executed_parallel += 1
                        yield self._finish_job(
                            job,
                            RunSummary.from_dict(summary_dict),
                            fingerprint,
                            attempts + 1,
                        )
                if broken:
                    # A dead worker poisons the whole pool: reclaim every
                    # in-flight chunk (their failures are collateral, so
                    # their attempt counts are preserved) and rebuild.
                    for future, (chunk, attempts) in in_flight.items():
                        future.cancel()
                        queue.appendleft((chunk, attempts))
                    in_flight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    rebuilds += 1
                    if rebuilds > MAX_POOL_REBUILDS:
                        while queue:
                            chunk, attempts = queue.popleft()
                            for job in chunk:
                                yield self._fail_job(
                                    job, attempts, "process pool kept breaking"
                                )
                        return
                    self._report(
                        f"[exec] process pool broke; rebuilding "
                        f"({rebuilds}/{MAX_POOL_REBUILDS})"
                    )
                    pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _requeue(
        self,
        queue: deque[tuple[list[RunJob], int]],
        chunk: list[RunJob],
        attempts: int,
        retries: int,
        exc: BaseException,
    ) -> Iterator[JobOutcome]:
        """Put a failed chunk's jobs back on the queue as singletons (so
        one bad job cannot keep sinking its chunk-mates); jobs that are
        out of retry budget are yielded as failed outcomes instead."""
        for job in chunk:
            if attempts > retries:
                yield self._fail_job(job, attempts, repr(exc))
            else:
                self.stats.retried += 1
                self._report(
                    f"[exec] re-queueing {job.describe()} "
                    f"(attempt {attempts} failed: {exc!r})"
                )
                queue.append(([job], attempts))

    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


def default_chunk_size(n_jobs: int, workers: int) -> int:
    """Chunks sized so each worker sees ~4 of them: big enough to
    amortize pickling, small enough that work stealing can rebalance
    stragglers (and that a kill loses little)."""
    return max(1, min(32, -(-n_jobs // (workers * 4))))
