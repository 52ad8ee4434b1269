"""RunJob digests: stable, spec-sensitive, and fingerprint-sensitive."""

import dataclasses
import pickle

import pytest

from repro.exec.jobs import RunJob, source_fingerprint
from repro.faults import FaultPlan, NodeCrash, PacketDuplicate
from repro.harness.config import SimulationConfig

CFG = SimulationConfig(seed=0, max_packets=200)
CRASH_PLAN = FaultPlan(events=(NodeCrash(host="r1", at=5.0),))


def job(**overrides) -> RunJob:
    base = dict(
        trace="WRN951113",
        protocol="cesrm",
        config=CFG,
        trace_seed=0,
        trace_max_packets=200,
    )
    base.update(overrides)
    return RunJob(**base)


class TestKey:
    def test_stable_across_constructions(self):
        assert job().key() == job().key()

    def test_differs_by_trace(self):
        assert job().key() != job(trace="WRN951216").key()

    def test_differs_by_protocol(self):
        assert job().key() != job(protocol="srm").key()

    def test_differs_by_config(self):
        assert job().key() != job(config=CFG.with_(seed=1)).key()
        assert job().key() != job(config=CFG.with_(cache_capacity=1)).key()
        assert (
            job().key()
            != job(config=CFG.with_(policy="most-frequent")).key()
        )

    def test_differs_by_kernel(self):
        assert job().key() != job(config=CFG.with_(kernel="vector")).key()

    def test_default_kernel_matches_pre_v2_key(self):
        # selecting the python kernel explicitly must not perturb the
        # cache key of runs executed before the kernel axis existed
        assert job().key() == job(config=CFG.with_(kernel="python")).key()

    def test_differs_by_trace_shape(self):
        assert job().key() != job(trace_max_packets=300).key()
        assert job().key() != job(trace_seed=1).key()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            job(protocol="nope")

    @pytest.mark.parametrize("trace", ["WRN95111", "tree:depth=3,fanout=0"])
    def test_unrunnable_trace_rejected(self, trace):
        with pytest.raises(ValueError):
            job(trace=trace)

    def test_differs_by_fault_plan(self):
        assert job().key() != job(faults=CRASH_PLAN).key()
        other = FaultPlan(events=(PacketDuplicate(rate=0.1),))
        assert job(faults=CRASH_PLAN).key() != job(faults=other).key()

    def test_empty_plan_matches_fault_free_key(self):
        # an empty plan must not perturb the cache key of existing runs
        assert job().key() == job(faults=FaultPlan()).key()

    def test_differs_by_workload(self):
        assert job().key() != job(workload="zipf:alpha=1.1").key()
        assert (
            job(workload="zipf:alpha=1.1").key()
            != job(workload="poisson").key()
        )

    def test_empty_workload_matches_legacy_key(self):
        # the default workload must not perturb pre-workload cache keys
        assert job().key() == job(workload="").key()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            job(workload="nope:x=1")

    def test_malformed_workload_rejected(self):
        with pytest.raises(ValueError):
            job(workload="zipf:")


class TestDigest:
    def test_folds_in_fingerprint(self):
        assert job().digest("aaa") != job().digest("bbb")
        assert job().digest("aaa") == job().digest("aaa")

    def test_distinct_from_key(self):
        assert job().digest("aaa") != job().key()


class TestMemoizedWireForm:
    """A job builds its wire form, key and digests once; nothing a caller
    does with what it is handed can change the identity they name."""

    def test_mutating_to_dict_leaves_identity_alone(self):
        original = job(faults=CRASH_PLAN)
        key, digest = original.key(), original.digest("aaa")
        data = original.to_dict()
        data["trace"] = "WRN951216"
        data["config"]["seed"] = 99
        data["config"]["params"]["c1"] = 9.0
        data["faults"]["events"].clear()
        assert original.key() == key == job(faults=CRASH_PLAN).key()
        assert original.digest("aaa") == digest
        assert original.to_dict() != data
        assert original.to_dict() is not original.to_dict()

    def test_replace_gets_its_own_key(self):
        original = job()
        original.key()  # fill the memo before copying
        moved = dataclasses.replace(original, trace_seed=5)
        assert moved.key() == job(trace_seed=5).key() != original.key()
        assert moved.digest("aaa") != original.digest("aaa")

    def test_pickle_round_trip(self):
        original = job(faults=CRASH_PLAN, workload="zipf:alpha=1.1")
        key = original.key()
        restored = pickle.loads(pickle.dumps(original))
        assert restored == original
        assert hash(restored) == hash(original)
        assert restored.key() == key
        assert restored.digest("aaa") == original.digest("aaa")

    def test_from_dict_round_trip(self):
        original = job(faults=CRASH_PLAN)
        original.digest("aaa")
        restored = RunJob.from_dict(original.to_dict())
        assert restored == original
        assert restored.key() == original.key()
        assert restored.digest("aaa") == original.digest("aaa")

    def test_digest_memoized_per_fingerprint(self):
        original = job()
        first, second = original.digest("aaa"), original.digest("bbb")
        assert first != second
        assert original.digest("aaa") == first == job().digest("aaa")
        assert original.digest("bbb") == second == job().digest("bbb")


class TestSerialization:
    def test_round_trip(self):
        original = job(config=CFG.with_(lossy_recovery=True, verify_period=0.5))
        restored = RunJob.from_dict(original.to_dict())
        assert restored == original
        assert restored.key() == original.key()

    def test_fault_free_dict_omits_faults(self):
        assert "faults" not in job().to_dict()
        assert "faults" not in job(faults=FaultPlan()).to_dict()

    def test_faulted_round_trip(self):
        original = job(faults=CRASH_PLAN)
        data = original.to_dict()
        assert data["faults"] == CRASH_PLAN.to_dict()
        restored = RunJob.from_dict(data)
        assert restored == original
        assert restored.faults == CRASH_PLAN

    def test_default_dict_omits_workload(self):
        # the wire format of pre-workload jobs is preserved byte for byte
        assert "workload" not in job().to_dict()

    def test_workload_round_trip(self):
        original = job(workload="zipf:alpha=1.1,objects=32")
        data = original.to_dict()
        assert data["workload"] == "zipf:alpha=1.1,objects=32"
        restored = RunJob.from_dict(data)
        assert restored == original
        assert restored.key() == original.key()

    def test_pre_workload_dict_still_decodes(self):
        """Wire-format versioning: entries serialized before the workload
        field existed (no ``workload`` key) decode to the default."""
        data = job().to_dict()
        assert "workload" not in data  # genuinely the old shape
        restored = RunJob.from_dict(data)
        assert restored.workload == ""
        assert restored == job()


class TestSourceFingerprint:
    def test_tracks_file_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        first = source_fingerprint(str(tmp_path))
        source_fingerprint.cache_clear()
        (tmp_path / "a.py").write_text("x = 2\n")
        assert source_fingerprint(str(tmp_path)) != first

    def test_tracks_new_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        first = source_fingerprint(str(tmp_path))
        source_fingerprint.cache_clear()
        (tmp_path / "b.py").write_text("y = 1\n")
        assert source_fingerprint(str(tmp_path)) != first

    def test_default_tree_is_stable(self):
        assert source_fingerprint() == source_fingerprint()
