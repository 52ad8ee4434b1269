"""The generative ``tree:`` topology family (workloads satellite)."""

import pytest

from repro.net.families import (
    TREE_DEFAULTS,
    TopologyError,
    build_topology,
    is_topology_spec,
    parse_topology_spec,
    synthesize_topology_trace,
)


class TestRouter:
    def test_topology_specs_detected(self):
        assert is_topology_spec("tree:depth=3,fanout=2")
        assert is_topology_spec("tree:fanout=4")

    def test_yajnik_names_pass_through(self):
        assert not is_topology_spec("WRN951113")
        assert not is_topology_spec("RFV960508")

    def test_unknown_family_not_routed(self):
        # an unknown family with ':' is not a topology spec — it falls
        # through to trace_meta, which rejects it with its own error
        assert not is_topology_spec("mesh:size=4")


class TestParse:
    def test_defaults_filled_in(self):
        params = parse_topology_spec("tree:depth=2")
        assert params["depth"] == "2"
        for key, default in TREE_DEFAULTS.items():
            if key != "depth":
                assert params[key] == default

    @pytest.mark.parametrize(
        "bad",
        [
            "mesh:size=4",            # unknown family
            "tree:depth=0",           # depth >= 1
            "tree:fanout=0",          # fanout >= 1
            "tree:depth=12,fanout=3", # too many receivers
            "tree:loss=1.5",          # loss in (0, 1)
            "tree:loss=0",
            "tree:period=-1",
            "tree:packets=0",
            "tree:depth=two",         # not an int
            "tree:width=4",           # unknown key
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(TopologyError):
            parse_topology_spec(bad)


class TestBuild:
    def test_balanced_tree_shape(self):
        tree = build_topology("tree:depth=3,fanout=2")
        assert len(tree.receivers) == 8  # 2**3 leaves
        assert tree.depth == 3
        assert tree.source in tree.hosts

    def test_fanout_scales_receivers(self):
        assert len(build_topology("tree:depth=2,fanout=4").receivers) == 16


class TestSynthesize:
    @staticmethod
    def _patterns(synthetic):
        trace = synthetic.trace
        return [trace.loss_pattern(p) for p in range(trace.n_packets)]

    def test_deterministic_in_seed(self):
        a = synthesize_topology_trace("tree:depth=2,fanout=2", seed=3)
        b = synthesize_topology_trace("tree:depth=2,fanout=2", seed=3)
        assert self._patterns(a) == self._patterns(b)

    def test_different_seed_differs(self):
        a = synthesize_topology_trace("tree:depth=2,fanout=2", seed=3)
        b = synthesize_topology_trace("tree:depth=2,fanout=2", seed=4)
        assert self._patterns(a) != self._patterns(b)

    def test_named_by_canonical_spec(self):
        trace = synthesize_topology_trace("tree:fanout=2,depth=2", seed=0)
        assert trace.trace.name == "tree:depth=2,fanout=2"

    def test_max_packets_caps_run_length(self):
        trace = synthesize_topology_trace(
            "tree:depth=2,fanout=2", seed=0, max_packets=50
        )
        assert trace.trace.n_packets == 50

    def test_losses_synthesized(self):
        trace = synthesize_topology_trace(
            "tree:depth=2,fanout=2", seed=0, max_packets=100
        ).trace
        assert trace.total_losses > 0


class TestEndToEnd:
    def test_runs_through_the_exec_stack(self):
        from repro.exec.jobs import RunJob, execute_job
        from repro.harness.config import SimulationConfig

        summary = execute_job(
            RunJob(
                trace="tree:depth=2,fanout=2",
                protocol="cesrm",
                config=SimulationConfig(seed=2, max_packets=60),
                trace_seed=2,
                trace_max_packets=60,
            )
        )
        assert summary.trace_name == "tree:depth=2,fanout=2"
        assert len(summary.receivers) == 4
