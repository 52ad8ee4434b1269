"""The on-disk content-addressed run cache."""

import json

import pytest

from repro.exec.cache import CACHE_DIR_ENV, RunCache, default_cache_dir
from repro.exec.jobs import RunJob
from repro.harness.config import SimulationConfig

CFG = SimulationConfig(seed=0, max_packets=200)
JOB = RunJob("WRN951113", "cesrm", CFG, trace_seed=0, trace_max_packets=200)
SUMMARY = {"fake": "summary"}
FP = "f" * 64


@pytest.fixture
def cache(tmp_path):
    return RunCache(tmp_path / "cache")


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().name == "cesrm-repro"


class TestGetPut:
    def test_miss_on_empty(self, cache):
        assert cache.get(JOB, FP) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_hit_after_put(self, cache):
        cache.put(JOB, FP, SUMMARY)
        assert cache.get(JOB, FP) == SUMMARY
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_entry_is_valid_json(self, cache):
        path = cache.put(JOB, FP, SUMMARY)
        payload = json.loads(path.read_text())
        assert payload["summary"] == SUMMARY
        assert payload["fingerprint"] == FP
        assert payload["job"]["trace"] == "WRN951113"

    def test_entry_bytes_are_the_c_encoders(self, cache):
        """An entry is ``json.dumps(payload, sort_keys=True)`` byte for
        byte: what ``json.dump``'s streaming encoder wrote before."""
        summary = {"z": [1, 2.5, None, True], "a": {"k": 1e-9, "j": "é"}}
        path = cache.put(JOB, FP, summary)
        payload = {
            "digest": JOB.digest(FP),
            "fingerprint": FP,
            "job": JOB.to_dict(),
            "summary": summary,
        }
        assert path.read_bytes() == json.dumps(payload, sort_keys=True).encode()

    def test_distinct_jobs_distinct_slots(self, cache):
        other = RunJob("WRN951216", "srm", CFG, 0, 200)
        cache.put(JOB, FP, SUMMARY)
        cache.put(other, FP, {"other": 1})
        assert cache.get(JOB, FP) == SUMMARY
        assert cache.get(other, FP) == {"other": 1}


class TestInvalidation:
    def test_fingerprint_change_invalidates(self, cache):
        cache.put(JOB, FP, SUMMARY)
        assert cache.get(JOB, "0" * 64) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1

    def test_config_change_misses(self, cache):
        cache.put(JOB, FP, SUMMARY)
        changed = RunJob(
            JOB.trace, JOB.protocol, CFG.with_(reorder_delay=0.1), 0, 200
        )
        assert cache.get(changed, FP) is None

    def test_stale_entry_overwritten_in_place(self, cache):
        cache.put(JOB, "0" * 64, {"stale": 1})
        cache.put(JOB, FP, SUMMARY)
        assert len(cache.entries()) == 1
        assert cache.get(JOB, FP) == SUMMARY

    def test_corrupt_entry_is_invalidation(self, cache):
        path = cache.put(JOB, FP, SUMMARY)
        path.write_text("{not json")
        assert cache.get(JOB, FP) is None
        assert cache.stats.invalidations == 1


class TestMigration:
    """Entries written before the workload field existed keep working."""

    def test_pre_workload_payload_reads_back(self, cache):
        # hand-write the exact pre-workload on-disk shape: a job dict
        # with no "workload" key
        cache.runs_dir.mkdir(parents=True, exist_ok=True)
        job_dict = JOB.to_dict()
        assert "workload" not in job_dict
        path = cache.runs_dir / f"{JOB.key()}.json"
        path.write_text(
            json.dumps(
                {
                    "digest": JOB.digest(FP),
                    "fingerprint": FP,
                    "job": job_dict,
                    "summary": SUMMARY,
                }
            )
        )
        assert cache.get(JOB, FP) == SUMMARY  # same slot, still a hit
        [entry] = cache.entries()
        assert "workload" not in entry.axes  # missing key decodes to the default

    def test_workload_entry_listed_with_spec(self, cache):
        workload_job = RunJob(
            "WRN951113",
            "cesrm",
            CFG,
            trace_seed=0,
            trace_max_packets=200,
            workload="zipf:alpha=1.1",
        )
        cache.put(workload_job, FP, SUMMARY)
        [entry] = cache.entries()
        assert entry.axes["workload"] == "zipf:alpha=1.1"

    def test_workload_and_default_use_distinct_slots(self, cache):
        workload_job = RunJob(
            "WRN951113",
            "cesrm",
            CFG,
            trace_seed=0,
            trace_max_packets=200,
            workload="poisson",
        )
        cache.put(JOB, FP, SUMMARY)
        cache.put(workload_job, FP, {"other": 1})
        assert cache.get(JOB, FP) == SUMMARY
        assert cache.get(workload_job, FP) == {"other": 1}


class TestListing:
    def test_jobs_differing_only_in_kernel_list_differently(
        self, cache, capsys
    ):
        from repro.harness.cli import main

        vector = RunJob(
            "WRN951113", "cesrm", CFG.with_(kernel="vector"),
            trace_seed=0, trace_max_packets=200,
        )
        assert JOB.describe() != vector.describe()
        cache.put(JOB, FP, SUMMARY)
        cache.put(vector, FP, SUMMARY)
        by_key = {entry.key: dict(entry.axes) for entry in cache.entries()}
        assert by_key == {JOB.key(): {}, vector.key(): {"kernel": "vector"}}
        assert main(["cache", "--cache-dir", str(cache.directory)]) == 0
        listed = [
            line.split("(")[0]  # drop the entry size
            for line in capsys.readouterr().out.splitlines()
            if "WRN951113" in line
        ]
        assert len(set(listed)) == 2
        assert sum("kernel=vector" in line for line in listed) == 1

    def test_jobs_differing_only_in_fault_plan_list_differently(
        self, cache, capsys
    ):
        import dataclasses
        import hashlib

        from repro.faults import FaultPlan, NodeCrash
        from repro.harness.cli import main

        jobs = [
            dataclasses.replace(
                JOB, faults=FaultPlan((NodeCrash(host="r1", at=at),))
            )
            for at in (1.0, 2.0)
        ]
        labels = [
            "faults=1:"
            + hashlib.sha256(job.faults.to_json().encode()).hexdigest()[:8]
            for job in jobs
        ]
        assert labels[0] != labels[1]
        assert "faults" not in JOB.describe()
        for job, label in zip(jobs, labels):
            assert job.describe().endswith("/" + label)
            cache.put(job, FP, SUMMARY)
        cache.put(JOB, FP, SUMMARY)
        assert main(["cache", "--cache-dir", str(cache.directory)]) == 0
        listed = [
            line.split("(")[0]  # drop the entry size
            for line in capsys.readouterr().out.splitlines()
            if "WRN951113" in line
        ]
        assert len(set(listed)) == 3
        for label in labels:
            assert sum(label in line for line in listed) == 1
        assert sum("faults=" in line for line in listed) == 2


class TestMaintenance:
    def test_entries_listing(self, cache):
        cache.put(JOB, FP, SUMMARY)
        [entry] = cache.entries()
        assert entry.trace == "WRN951113"
        assert entry.protocol == "cesrm"
        assert entry.seed == 0
        assert entry.max_packets == 200
        assert entry.fingerprint == FP
        assert entry.size_bytes > 0
        assert "workload" not in entry.axes

    def test_size_bytes(self, cache):
        assert cache.size_bytes() == 0
        cache.put(JOB, FP, SUMMARY)
        assert cache.size_bytes() > 0

    def test_clear(self, cache):
        cache.put(JOB, FP, SUMMARY)
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.get(JOB, FP) is None

    def test_no_temp_files_left_behind(self, cache):
        cache.put(JOB, FP, SUMMARY)
        leftovers = [
            p for p in cache.runs_dir.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
