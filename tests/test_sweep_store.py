"""The columnar sqlite result store and its renderers."""

import pytest

from repro.exec.jobs import RunJob, execute_job
from repro.harness.config import SimulationConfig
from repro.metrics.stats import mean
from repro.sweep.report import render_rows, render_sweep_report
from repro.sweep.spec import SweepSpec, compile_sweep
from repro.sweep.store import (
    DIMENSIONS,
    METRICS,
    SweepStore,
    SweepStoreError,
    default_store_path,
    flatten_summary,
)


@pytest.fixture(scope="module")
def summary():
    """One real (tiny) run summary, shared across the module."""
    config = SimulationConfig(seed=0, max_packets=150)
    job = RunJob("WRN950919", "cesrm", config, trace_seed=0, trace_max_packets=150)
    return execute_job(job)


@pytest.fixture(scope="module")
def spec():
    return compile_sweep(
        {
            "name": "store-test",
            "grid": {
                "protocol": ["srm", "cesrm"],
                "trace": ["WRN950919"],
                "seed": [0, 1],
            },
            "defaults": {"max_packets": 150},
        }
    )


@pytest.fixture
def store(tmp_path):
    with SweepStore(tmp_path / "sweeps.sqlite") as st:
        yield st


def _fill(store: SweepStore, spec: SweepSpec, summary) -> str:
    digest = store.begin_sweep(spec)
    for case in spec.cases:
        store.record(digest, case, summary, cached=False, attempts=1)
    return digest


class TestFlatten:
    def test_covers_every_metric_column(self, summary):
        flat = flatten_summary(summary)
        assert set(flat) == set(METRICS)

    def test_values_plausible(self, summary):
        flat = flatten_summary(summary)
        assert flat["n_packets"] == 150
        assert flat["total_losses"] > 0
        assert flat["recovered"] + flat["unrecovered"] == flat["total_losses"]
        assert 0.0 <= flat["expedited_fraction"] <= 1.0
        assert flat["avg_latency_rtt"] > 0


def _flatten_rehydrated(summary) -> dict:
    """The store's columns read through a rehydrated ``RunResult`` — how
    ``flatten_summary`` computed them before it read the summary itself."""
    result = summary.to_result()
    receivers = result.receivers
    latencies = [result.avg_normalized_recovery_time(r) for r in receivers]
    n_recoveries = 0
    n_expedited = 0
    for rows in summary.recoveries.values():
        n_recoveries += len(rows)
        n_expedited += sum(1 for row in rows if row[2])
    metrics = result.metrics
    cache = summary.cache or {}
    return {
        "n_packets": result.n_packets,
        "total_losses": result.total_losses,
        "recovered": result.recovered_losses,
        "unrecovered": result.unrecovered_losses,
        "avg_latency_rtt": mean(latencies) if latencies else 0.0,
        "expedited_requests": metrics.expedited_requests_sent,
        "expedited_replies": metrics.expedited_replies_sent,
        "expedited_success": metrics.expedited_success_rate,
        "expedited_fraction": n_expedited / n_recoveries if n_recoveries else 0.0,
        "retransmissions": result.overhead.retransmissions,
        "multicast_control": result.overhead.multicast_control,
        "unicast_control": result.overhead.unicast_control,
        "events": result.events_processed,
        "sim_time": result.sim_time,
        "wall_time": result.wall_time,
        "cache_inserts": cache.get("inserts"),
        "cache_evictions": cache.get("evictions"),
        "cache_hit_rate": cache.get("hit_rate"),
        "n_receivers": len(receivers),
        "churn_rate": (summary.churn or {}).get("rate"),
    }


class TestFlattenMatchesRehydrated:
    """``flatten_summary`` reads the summary's own lists and counters; its
    row must equal the one a rehydrated ``RunResult`` gives, float for
    float (``==`` on a float column is bit equality here)."""

    @pytest.mark.parametrize(
        "job",
        [
            RunJob("WRN950919", "srm", SimulationConfig(seed=1, max_packets=150),
                   trace_seed=0, trace_max_packets=150),
            RunJob("WRN950919", "cesrm", SimulationConfig(seed=1, max_packets=150),
                   trace_seed=0, trace_max_packets=150),
            RunJob("WRN951113", "cesrm",
                   SimulationConfig(seed=2, max_packets=150, cache="lru:capacity=4"),
                   trace_seed=0, trace_max_packets=150),
            RunJob("WRN951128", "cesrm", SimulationConfig(seed=0, max_packets=150),
                   trace_seed=0, trace_max_packets=150, churn="churn:rate=1"),
        ],
        ids=["srm", "cesrm", "cachelab", "churn"],
    )
    def test_rows_equal(self, job):
        summary = execute_job(job)
        flat = flatten_summary(summary)
        assert flat == _flatten_rehydrated(summary)
        assert [type(v) for v in flat.values()] == [
            type(v) for v in _flatten_rehydrated(summary).values()
        ]
        if job.protocol == "cesrm":
            assert flat["expedited_requests"] > 0
        if job.churn:
            assert flat["churn_rate"] is not None


class TestIngest:
    def test_record_and_counts(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        counts = store.counts(digest)
        assert counts["recorded"] == len(spec.cases)
        assert counts["ok"] == len(spec.cases)
        assert counts["failed"] == 0

    def test_record_is_idempotent(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        store.record(digest, spec.cases[0], summary, cached=True, attempts=0)
        assert store.counts(digest)["recorded"] == len(spec.cases)

    def test_failed_row(self, store, spec, summary):
        digest = store.begin_sweep(spec)
        store.record(digest, spec.cases[0], None, cached=False, attempts=3, error="boom")
        counts = store.counts(digest)
        assert counts["failed"] == 1
        assert counts["ok"] == 0

    def test_survives_reopen(self, tmp_path, spec, summary):
        path = tmp_path / "s.sqlite"
        with SweepStore(path) as st:
            digest = _fill(st, spec, summary)
        with SweepStore(path) as st:
            assert st.counts(digest)["ok"] == len(spec.cases)


class TestResolve:
    def test_latest_by_default(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        assert store.resolve(None) == digest
        assert store.resolve("") == digest

    def test_digest_prefix(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        assert store.resolve(digest[:8]) == digest

    def test_by_name(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        assert store.resolve("store-test") == digest

    def test_unknown_selector(self, store, spec, summary):
        _fill(store, spec, summary)
        with pytest.raises(SweepStoreError, match="no sweep matches"):
            store.resolve("nope")

    def test_empty_store(self, store):
        with pytest.raises(SweepStoreError, match="no sweeps recorded"):
            store.resolve(None)


class TestQuery:
    def test_group_by_protocol(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        headers, rows = store.query(
            digest, group_by=["protocol"], metrics=["avg_latency_rtt"]
        )
        assert headers == ["protocol", "mean_avg_latency_rtt", "n"]
        assert [r[0] for r in rows] == ["cesrm", "srm"]
        assert all(r[2] == 2 for r in rows)  # two seeds per protocol

    def test_where_filter(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        _, rows = store.query(digest, where={"seed": 0}, metrics=["n_packets"])
        assert rows[0][-1] == 2  # one row per protocol at seed 0

    def test_where_coerces_cli_strings(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        _, rows = store.query(digest, where={"seed": "1"}, metrics=["n_packets"])
        assert rows[0][-1] == 2

    def test_aggregates(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        for agg in ("mean", "sum", "min", "max", "count"):
            headers, rows = store.query(digest, metrics=["n_packets"], agg=agg)
            assert headers[0] == f"{agg}_n_packets"
            assert len(rows) == 1

    def test_failed_rows_excluded(self, store, spec, summary):
        digest = store.begin_sweep(spec)
        store.record(digest, spec.cases[0], summary, cached=False, attempts=1)
        store.record(digest, spec.cases[1], None, cached=False, attempts=3, error="x")
        _, rows = store.query(digest, metrics=["n_packets"])
        assert rows[0][-1] == 1

    def test_unknown_group_column(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        with pytest.raises(SweepStoreError, match="unknown group-by column"):
            store.query(digest, group_by=["nope"])

    def test_unknown_metric(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        with pytest.raises(SweepStoreError, match="unknown metric column"):
            store.query(digest, metrics=["nope"])

    def test_unknown_aggregate(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        with pytest.raises(SweepStoreError, match="unknown aggregate"):
            store.query(digest, agg="median")

    def test_bad_where_value(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        with pytest.raises(SweepStoreError, match="integer-typed"):
            store.query(digest, where={"seed": "abc"})

    def test_rows_and_distinct(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        columns, rows = store.rows(digest)
        assert len(rows) == len(spec.cases)
        assert columns[: len(DIMENSIONS)] == list(DIMENSIONS)
        assert store.distinct(digest, "protocol") == ["cesrm", "srm"]
        assert store.distinct(digest, "seed") == [0, 1]


class TestRender:
    HEADERS = ["protocol", "mean_x", "n"]
    ROWS = [("srm", 1.23456, 2), ("cesrm", None, 1)]

    def test_table(self):
        text = render_rows(self.HEADERS, self.ROWS, "table")
        lines = text.splitlines()
        assert lines[0].split() == self.HEADERS
        assert "1.235" in text
        assert lines[3].split() == ["cesrm", "-", "1"]  # None cell renders as -

    def test_csv(self):
        text = render_rows(self.HEADERS, self.ROWS, "csv")
        assert text.splitlines()[0] == "protocol,mean_x,n"
        assert "srm,1.23456,2" in text

    def test_markdown(self):
        text = render_rows(self.HEADERS, self.ROWS, "markdown")
        assert text.startswith("| protocol | mean_x | n |")
        assert "| --- | --- | --- |" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render_rows(self.HEADERS, self.ROWS, "yaml")

    def test_sweep_report(self, store, spec, summary):
        digest = _fill(store, spec, summary)
        text = render_sweep_report(store, digest, "table")
        assert f"sweep {digest[:12]}" in text
        # protocol and seed vary; trace does not.
        assert "grouped by protocol, seed" in text


class TestOptionalDimensions:
    """The store and the report treat every optional dimension alike."""

    POINT = {"protocol": ["cesrm"], "trace": ["WRN950919"]}

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("cache", ["lru:capacity=1", "unbounded"]),
            ("churn", ["", "churn:rate=0.5"]),
        ],
    )
    def test_report_groups_by_every_varying_dimension(
        self, store, summary, axis, values
    ):
        spec = compile_sweep({"grid": {**self.POINT, axis: values}})
        text = render_sweep_report(store, _fill(store, spec, summary), "table")
        assert f"grouped by {axis} " in text
        body = text.splitlines()[5:]
        assert [line.split()[-1] for line in body] == ["1", "1"]  # n per row

    def test_rows_are_ordered_by_churn_too(self, store, summary):
        specs = ["churn:rate=0.9", "", "churn:rate=0.5"]
        spec = compile_sweep({"grid": {**self.POINT, "churn": specs}})
        columns, rows = store.rows(_fill(store, spec, summary))
        at = columns.index("churn")
        assert [row[at] for row in rows] == sorted(specs)


class TestDefaultPath:
    def test_rides_next_to_cache(self, tmp_path):
        assert default_store_path(tmp_path) == tmp_path / "sweeps.sqlite"
