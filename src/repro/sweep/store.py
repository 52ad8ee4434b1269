"""The columnar sweep result store (sqlite).

A fleet-scale sweep cannot live as one JSON blob per run: answering
"expedited fraction by protocol × workload" over ten thousand runs must
not re-read ten thousand files.  :class:`SweepStore` keeps **one row per
run** with the summary metrics every figure/query consumes already
flattened into columns, so aggregation is a single SQL statement —
the per-run :class:`~repro.exec.summary.RunSummary` JSON stays in the
content-addressed run cache (which is also the resume checkpoint), and
the store is derived, rebuildable data.

Layout::

    sweeps(digest PRIMARY KEY, name, description, n_jobs, schema,
           created_at, updated_at)
    runs(sweep_digest, job_key,
         -- dimensions --
         protocol, trace, workload, faults, cache, churn, seed,
         max_packets, params,
         -- bookkeeping --
         status, cached, attempts, error, ingested_at,
         -- metrics --
         n_packets, total_losses, recovered, unrecovered,
         avg_latency_rtt, expedited_requests, expedited_replies,
         expedited_success, expedited_fraction, retransmissions,
         multicast_control, unicast_control, events, sim_time, wall_time,
         cache_inserts, cache_evictions, cache_hit_rate,
         n_receivers, churn_rate,
         PRIMARY KEY (sweep_digest, job_key))

Writes are committed per row (WAL journal), so a ``kill -9`` mid-sweep
leaves a readable store; re-ingesting a row is an idempotent
``INSERT OR REPLACE``.  Opening a store written by an older build
migrates it in place: columns added since (a later optional dimension
or metric) are ``ALTER TABLE``-ed on, with NULL/default values for
pre-existing rows.
"""

from __future__ import annotations

import sqlite3
import time
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.exec.summary import RunSummary
from repro.metrics.stats import mean
from repro.net.packet import PacketKind
from repro.sweep.spec import AXES, OPTIONAL_AXES, SweepCase, SweepSpec

#: Dimension columns (queryable, groupable).
DIMENSIONS = AXES + ("params",)

#: Flattened metric columns (aggregatable).
METRICS = (
    "n_packets",
    "total_losses",
    "recovered",
    "unrecovered",
    "avg_latency_rtt",
    "expedited_requests",
    "expedited_replies",
    "expedited_success",
    "expedited_fraction",
    "retransmissions",
    "multicast_control",
    "unicast_control",
    "events",
    "sim_time",
    "wall_time",
    "cache_inserts",
    "cache_evictions",
    "cache_hit_rate",
    "n_receivers",
    "churn_rate",
)

#: Bookkeeping columns (queryable but not metrics).
BOOKKEEPING = ("status", "cached", "attempts", "error")

_INT_COLUMNS = {
    "seed",
    "max_packets",
    "cached",
    "attempts",
    "n_packets",
    "total_losses",
    "recovered",
    "unrecovered",
    "expedited_requests",
    "expedited_replies",
    "retransmissions",
    "multicast_control",
    "unicast_control",
    "events",
    "cache_inserts",
    "cache_evictions",
    "n_receivers",
}
_FLOAT_COLUMNS = {
    "avg_latency_rtt",
    "expedited_success",
    "expedited_fraction",
    "sim_time",
    "wall_time",
    "cache_hit_rate",
    "churn_rate",
}

#: Column declaration of an optional dimension: a run that pre-dates the
#: column, or does not sweep it, sits at the axis's default spec ``""``.
_OPTIONAL_DECL = "TEXT NOT NULL DEFAULT ''"

#: SQL aggregate per user-facing name.
AGGREGATES = {
    "mean": "AVG",
    "sum": "SUM",
    "min": "MIN",
    "max": "MAX",
    "count": "COUNT",
}


class SweepStoreError(ValueError):
    """Raised for unknown columns/aggregates in queries and for
    unresolvable sweep selectors."""


def flatten_summary(summary: RunSummary) -> dict[str, Any]:
    """One run's summary reduced to the store's metric columns, read off
    the summary's own lists and counters (no ``RunResult`` is rehydrated)
    with the float ops of the ``RunResult`` accessors they stand for:
    ``avg_normalized_recovery_time`` per receiver, then their mean, and
    ``MetricsCollector.expedited_success_rate``."""
    recoveries = summary.recoveries
    rtts = summary.rtt_to_source
    latencies = []
    for receiver in summary.receivers:
        rtt = rtts[receiver]
        rows = () if rtt <= 0 else recoveries.get(receiver, ())
        latencies.append(mean([row[1] / rtt for row in rows]))
    n_recoveries = 0
    n_expedited = 0
    for rows in recoveries.values():
        n_recoveries += len(rows)
        n_expedited += sum(1 for row in rows if row[2])
    sent = Counter()
    for _host, kind, _cast, count in summary.sends:
        sent[kind] += count
    requests = sent[PacketKind.ERQST.value]
    replies = sent[PacketKind.EREPL.value]
    overhead = summary.overhead
    cache = summary.cache or {}
    return {
        "n_packets": summary.n_packets,
        "total_losses": summary.total_losses,
        "recovered": n_recoveries,
        "unrecovered": sum(len(seqs) for seqs in summary.unrecovered_seqs.values()),
        "avg_latency_rtt": mean(latencies) if latencies else 0.0,
        "expedited_requests": requests,
        "expedited_replies": replies,
        "expedited_success": replies / requests if requests else 0.0,
        "expedited_fraction": (
            n_expedited / n_recoveries if n_recoveries else 0.0
        ),
        "retransmissions": overhead["retransmissions"],
        "multicast_control": overhead["multicast_control"],
        "unicast_control": overhead["unicast_control"],
        "events": summary.events_processed,
        "sim_time": summary.sim_time,
        "wall_time": summary.wall_time,
        # NULL on default-cache runs (no explicit policy, no stats block).
        "cache_inserts": cache.get("inserts"),
        "cache_evictions": cache.get("evictions"),
        "cache_hit_rate": cache.get("hit_rate"),
        # Initial membership — the topology's scale point (a churn run's
        # final membership is in the summary's churn block).
        "n_receivers": len(summary.receivers),
        # NULL on static-membership runs (no churn block).
        "churn_rate": (summary.churn or {}).get("rate"),
    }


class SweepStore:
    """One sqlite file holding any number of sweeps' flattened results."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._create_tables()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _create_tables(self) -> None:
        self._conn.execute(
            """CREATE TABLE IF NOT EXISTS sweeps (
                digest TEXT PRIMARY KEY,
                name TEXT NOT NULL,
                description TEXT NOT NULL DEFAULT '',
                n_jobs INTEGER NOT NULL,
                schema INTEGER NOT NULL,
                created_at REAL NOT NULL,
                updated_at REAL NOT NULL
            )"""
        )
        # Joined to read as the hand-written columns did, so a new store's
        # DDL text is what older builds wrote.
        optional_cols = ",\n                ".join(
            f"{name} {_OPTIONAL_DECL}" for name in OPTIONAL_AXES
        )
        metric_cols = ",\n".join(
            f"{name} {'REAL' if name in _FLOAT_COLUMNS else 'INTEGER'}"
            for name in METRICS
        )
        self._conn.execute(
            f"""CREATE TABLE IF NOT EXISTS runs (
                sweep_digest TEXT NOT NULL,
                job_key TEXT NOT NULL,
                protocol TEXT NOT NULL,
                trace TEXT NOT NULL,
                {optional_cols},
                seed INTEGER NOT NULL,
                max_packets INTEGER,
                params TEXT NOT NULL DEFAULT '{{}}',
                status TEXT NOT NULL,
                cached INTEGER NOT NULL,
                attempts INTEGER NOT NULL,
                error TEXT,
                ingested_at REAL NOT NULL,
                {metric_cols},
                PRIMARY KEY (sweep_digest, job_key)
            )"""
        )
        self._migrate_runs_table()
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS runs_by_dims ON runs "
            "(sweep_digest, protocol, trace, workload)"
        )
        self._conn.commit()

    def _migrate_runs_table(self) -> None:
        """Bring a ``runs`` table created by an older build up to the
        current column set.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing table, so
        a store written before an optional dimension or a later metric
        column existed would otherwise break every INSERT.  Missing
        columns are added in place: dimensions default to ``''``
        (pre-existing rows ran the axis's default), metric columns to
        NULL (the stats were never collected).
        """
        existing = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(runs)").fetchall()
        }
        wanted = [(name, _OPTIONAL_DECL) for name in OPTIONAL_AXES]
        wanted += [
            (name, "REAL" if name in _FLOAT_COLUMNS else "INTEGER")
            for name in METRICS
        ]
        for name, decl in wanted:
            if name not in existing:
                self._conn.execute(
                    f"ALTER TABLE runs ADD COLUMN {name} {decl}"
                )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def begin_sweep(self, spec: SweepSpec) -> str:
        """Register (or refresh) the sweep's manifest row; returns its
        digest."""
        digest = spec.digest()
        now = time.time()
        self._conn.execute(
            """INSERT INTO sweeps (digest, name, description, n_jobs,
                                   schema, created_at, updated_at)
               VALUES (?, ?, ?, ?, ?, ?, ?)
               ON CONFLICT(digest) DO UPDATE SET
                 name=excluded.name, description=excluded.description,
                 n_jobs=excluded.n_jobs, updated_at=excluded.updated_at""",
            (
                digest,
                spec.name,
                spec.description,
                len(spec.cases),
                spec.to_manifest()["schema"],
                now,
                now,
            ),
        )
        self._conn.commit()
        return digest

    def record(
        self,
        sweep_digest: str,
        case: SweepCase,
        summary: RunSummary | None,
        cached: bool,
        attempts: int,
        error: str | None = None,
    ) -> None:
        """Ingest one job outcome (idempotent; commits immediately so the
        store survives a kill)."""
        metrics = (
            flatten_summary(summary)
            if summary is not None
            else {name: None for name in METRICS}
        )
        columns = (
            ["sweep_digest", "job_key"]
            + list(DIMENSIONS)
            + list(BOOKKEEPING)
            + ["ingested_at"]
            + list(METRICS)
        )
        axes = case.axes()
        values = (
            [sweep_digest, case.key]
            + [axes[d] for d in DIMENSIONS]
            + [
                "ok" if summary is not None else "failed",
                int(cached),
                attempts,
                error,
            ]
            + [time.time()]
            + [metrics[name] for name in METRICS]
        )
        placeholders = ", ".join("?" for _ in columns)
        self._conn.execute(
            f"INSERT OR REPLACE INTO runs ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            values,
        )
        self._conn.execute(
            "UPDATE sweeps SET updated_at = ? WHERE digest = ?",
            (time.time(), sweep_digest),
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def sweeps(self) -> list[dict[str, Any]]:
        """Every sweep in the store, newest-updated first, with run
        completion counts."""
        rows = self._conn.execute(
            """SELECT s.digest, s.name, s.description, s.n_jobs,
                      s.created_at, s.updated_at,
                      COALESCE(SUM(CASE WHEN r.status = 'ok' THEN 1 END), 0),
                      COALESCE(SUM(CASE WHEN r.status = 'failed' THEN 1 END), 0)
               FROM sweeps s LEFT JOIN runs r ON r.sweep_digest = s.digest
               GROUP BY s.digest
               ORDER BY s.updated_at DESC"""
        ).fetchall()
        return [
            {
                "digest": digest,
                "name": name,
                "description": description,
                "n_jobs": n_jobs,
                "created_at": created,
                "updated_at": updated,
                "ok": ok,
                "failed": failed,
            }
            for digest, name, description, n_jobs, created, updated, ok, failed in rows
        ]

    def resolve(self, selector: str | None) -> str:
        """Resolve a sweep selector — a digest prefix, a sweep name, or
        None/'' (the most recently updated sweep) — to a full digest."""
        sweeps = self.sweeps()
        if not sweeps:
            raise SweepStoreError(f"no sweeps recorded in {self.path}")
        if not selector:
            return sweeps[0]["digest"]
        by_digest = [s for s in sweeps if s["digest"].startswith(selector)]
        if len(by_digest) == 1:
            return by_digest[0]["digest"]
        if len(by_digest) > 1:
            raise SweepStoreError(
                f"digest prefix {selector!r} is ambiguous "
                f"({len(by_digest)} sweeps)"
            )
        by_name = [s for s in sweeps if s["name"] == selector]
        if by_name:
            return by_name[0]["digest"]  # newest-updated wins
        raise SweepStoreError(
            f"no sweep matches {selector!r} (try `cesrm sweep status`)"
        )

    def counts(self, digest: str) -> dict[str, int]:
        row = self._conn.execute(
            """SELECT COUNT(*),
                      COALESCE(SUM(CASE WHEN status = 'ok' THEN 1 END), 0),
                      COALESCE(SUM(CASE WHEN status = 'failed' THEN 1 END), 0),
                      COALESCE(SUM(cached), 0)
               FROM runs WHERE sweep_digest = ?""",
            (digest,),
        ).fetchone()
        return {
            "recorded": row[0],
            "ok": row[1],
            "failed": row[2],
            "cached": row[3],
        }

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(
        self,
        digest: str,
        where: Mapping[str, Any] | None = None,
        group_by: Iterable[str] = (),
        metrics: Iterable[str] = ("avg_latency_rtt",),
        agg: str = "mean",
    ) -> tuple[list[str], list[tuple]]:
        """Aggregate the sweep's runs entirely in SQL.

        Returns ``(headers, rows)``: the group columns, then
        ``<agg>_<metric>`` per requested metric, then ``n`` (the row
        count per group).  Only ``status = 'ok'`` rows aggregate.
        """
        groups = [self._check_column(g, DIMENSIONS, "group-by") for g in group_by]
        metric_list = [self._check_column(m, METRICS, "metric") for m in metrics]
        sql_agg = AGGREGATES.get(agg)
        if sql_agg is None:
            raise SweepStoreError(
                f"unknown aggregate {agg!r}; known: {', '.join(AGGREGATES)}"
            )
        select = groups + [
            f"{sql_agg}({m}) AS {agg}_{m}" for m in metric_list
        ]
        select.append("COUNT(*) AS n")
        sql = f"SELECT {', '.join(select)} FROM runs"
        clauses = ["sweep_digest = ?", "status = 'ok'"]
        values: list[Any] = [digest]
        for key, value in (where or {}).items():
            column = self._check_column(
                key, DIMENSIONS + METRICS + BOOKKEEPING, "where"
            )
            clauses.append(f"{column} = ?")
            values.append(self._coerce(column, value))
        sql += " WHERE " + " AND ".join(clauses)
        if groups:
            sql += f" GROUP BY {', '.join(groups)} ORDER BY {', '.join(groups)}"
        headers = groups + [f"{agg}_{m}" for m in metric_list] + ["n"]
        return headers, self._conn.execute(sql, values).fetchall()

    def rows(
        self, digest: str, where: Mapping[str, Any] | None = None
    ) -> tuple[list[str], list[tuple]]:
        """Raw per-run rows (dimensions + status + metrics), filtered."""
        columns = list(DIMENSIONS) + ["status", "cached", "attempts"] + list(METRICS)
        clauses = ["sweep_digest = ?"]
        values: list[Any] = [digest]
        for key, value in (where or {}).items():
            column = self._check_column(
                key, DIMENSIONS + METRICS + BOOKKEEPING, "where"
            )
            clauses.append(f"{column} = ?")
            values.append(self._coerce(column, value))
        sql = (
            f"SELECT {', '.join(columns)} FROM runs "
            f"WHERE {' AND '.join(clauses)} "
            f"ORDER BY {', '.join(DIMENSIONS)}"
        )
        return columns, self._conn.execute(sql, values).fetchall()

    def distinct(self, digest: str, column: str) -> list[Any]:
        """Distinct values of one dimension within a sweep (what varies)."""
        col = self._check_column(column, DIMENSIONS, "distinct")
        rows = self._conn.execute(
            f"SELECT DISTINCT {col} FROM runs WHERE sweep_digest = ? "
            f"ORDER BY {col}",
            (digest,),
        ).fetchall()
        return [row[0] for row in rows]

    @staticmethod
    def _check_column(name: str, allowed: tuple[str, ...], what: str) -> str:
        if name not in allowed:
            raise SweepStoreError(
                f"unknown {what} column {name!r}; known: {', '.join(allowed)}"
            )
        return name

    @staticmethod
    def _coerce(column: str, value: Any) -> Any:
        """CLI filters arrive as strings; cast to the column's type."""
        if not isinstance(value, str):
            return value
        if column in _INT_COLUMNS:
            try:
                return int(value)
            except ValueError:
                raise SweepStoreError(
                    f"column {column!r} is integer-typed; got {value!r}"
                ) from None
        if column in _FLOAT_COLUMNS:
            try:
                return float(value)
            except ValueError:
                raise SweepStoreError(
                    f"column {column!r} is float-typed; got {value!r}"
                ) from None
        return value


def default_store_path(cache_dir: str | Path) -> Path:
    """The store that rides next to the run cache: ``<dir>/sweeps.sqlite``."""
    return Path(cache_dir) / "sweeps.sqlite"


__all__ = [
    "AGGREGATES",
    "BOOKKEEPING",
    "DIMENSIONS",
    "METRICS",
    "SweepStore",
    "SweepStoreError",
    "default_store_path",
    "flatten_summary",
]
