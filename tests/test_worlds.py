"""The named synthetic worlds (``repro.traces.worlds``) and the drivers
that run them as ordinary jobs: each name resolves in a job's ``trace``
slot, synthesizes the bytes it always has at its driver's seed, and its
runs go through the context's replay cap, seed and run cache."""

import hashlib
import json

import pytest

from repro.exec.cache import RunCache
from repro.exec.jobs import RunJob, synthesize_job_trace
from repro.harness import experiments as exp
from repro.harness.config import DEFAULT_MAX_PACKETS, SimulationConfig
from repro.traces.worlds import WORLDS

#: Each world's digest at its driver's trace seed (see ``_digest``),
#: recorded from the in-process builders the world table replaced.
PINNED = {
    "scale-8": (2, "c70667ebbdb3915eb692af0e2e7c4a522b48a252a93e212e7bad9e9c680b4e12"),
    "scale-16": (2, "369413cad09434b7efb2e49be480ceec5633e1cae8802eee6d424e7553a563f6"),
    "scale-24": (2, "ae973cccb90ec601e22000fd90f4374923047d8fbfafb49e180ccb42522ce1b4"),
    "scale-40": (2, "b3c9962002ea4d99590d93a81f0768ce254cc1421f743d5e30899369a8a16d21"),
    "congestion": (4, "f1697a7849f522cd5fc835fef7714fd0214ef908abe0b9fc84954c66eb7f6eb8"),
    "bench-faults": (2, "ac5d72fa3403fe41153aa4e8d67679f229722b53a5440ef2c7861f588985e211"),
    "bench-workloads": (7, "b05d5e276a6e05fc2a01b3893f01554f316ac1f3e7132f2d332adf50e788d46c"),
    "bench-cachelab": (13, "5b38d7576272e4a42200f656fb1705fe6b6a50d640160963021484c42b9b373f"),
    "churn": (5, "e9480231e38107945dc9baf52619cd8377ada42f13bfcb8eb7af94f11a0f0dac"),
    "lms": (3, "8b74267779613ec0535e8a505c9336f7b66d152158fa874894b20386250a1ef0"),
}


def _digest(synthetic) -> str:
    """SHA-256 of a trace's tree parents, receiver order and loss bytes."""
    trace = synthetic.trace
    payload = {
        "parents": sorted(trace.tree.to_parent_map().items()),
        "receivers": list(trace.tree.receivers),
        "loss": {r: seq.hex() for r, seq in sorted(trace.loss_seqs.items())},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_every_world_is_pinned():
    assert sorted(PINNED) == sorted(WORLDS)


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("cap", [None, DEFAULT_MAX_PACKETS])
def test_world_bytes_at_base_seed(name, cap):
    seed, digest = PINNED[name]
    assert _digest(synthesize_job_trace(name, seed=seed, max_packets=cap)) == digest


def test_cap_truncates_a_link_drop_world():
    full = synthesize_job_trace("lms", seed=3)
    capped = synthesize_job_trace("lms", seed=3, max_packets=40)
    assert capped.trace.n_packets == 40
    assert capped.trace.loss_seqs == {
        r: seq[:40] for r, seq in full.trace.loss_seqs.items()
    }


class TestJobTraceSlot:
    @pytest.mark.parametrize("name", ["scale-40", "churn"])
    def test_world_names_construct(self, name):
        assert RunJob(trace=name, protocol="cesrm", config=SimulationConfig()).trace == name

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError, match="scale-41"):
            RunJob(trace="scale-41", protocol="cesrm", config=SimulationConfig())


class TestWorldJobs:
    def test_seeds_offset_by_the_context_seed(self):
        job = exp.ExperimentContext(seed=1).world_job(
            "bench-faults", "srm", trace_seed=2, config=SimulationConfig(seed=1)
        )
        assert (job.trace_seed, job.config.seed) == (3, 2)

    def test_world_jobs_take_the_context_cap(self):
        ctx = exp.ExperimentContext(max_packets=300)
        assert ctx.world_job("scale-8", "srm", trace_seed=2).trace_max_packets == 300

    def test_context_scenario_stays_on_table1_replays(self):
        ctx = exp.ExperimentContext(axes={"workload": "poisson"})
        assert ctx.job("WRN951113", "srm").workload == "poisson"
        assert ctx.world_job("churn", "cesrm", trace_seed=5).workload == ""

    def test_warm_driver_executes_nothing(self, tmp_path):
        cold = exp.ExperimentContext(max_packets=120, cache=RunCache(tmp_path))
        first = exp.lms_comparison(cold)
        assert cold.engine.stats.executed == 4
        warm = exp.ExperimentContext(max_packets=120, cache=RunCache(tmp_path))
        assert exp.lms_comparison(warm) == first
        assert warm.engine.stats.executed == 0
