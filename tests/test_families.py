"""The generative topology registry (:mod:`repro.net.families`)."""

import pytest

from repro.net.families import (
    TOPOLOGIES,
    TopologyError,
    build_topology,
    parse_topology_spec,
    synthesize_topology_trace,
)
from repro.net.topology import NodeKind


class TestRegistry:
    def test_builtin_families_listed(self):
        for name in ("tree", "transit_stub", "random_tree", "fat_tree"):
            assert name in TOPOLOGIES.names()

    def test_specs_carry_docs_and_tags(self):
        for spec in TOPOLOGIES.specs():
            assert spec.description
            assert set(spec.params_doc) == set(spec.defaults)
        assert TOPOLOGIES.get("tree").calibrated
        assert not TOPOLOGIES.get("transit_stub").calibrated

    def test_unknown_family_rejected(self):
        with pytest.raises(TopologyError):
            TOPOLOGIES.get("mesh")
        with pytest.raises(TopologyError):
            build_topology("mesh:size=4")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TopologyError, match="unknown parameter"):
            parse_topology_spec("transit_stub:transits=2,depth=3")

    def test_canonical_spec_sorts_user_params_only(self):
        assert TOPOLOGIES.canonical(
            "transit_stub:stubs=2,transits=4"
        ) == TOPOLOGIES.canonical("transit_stub:transits=4,stubs=2")
        # defaults stay implicit
        assert "hosts" not in TOPOLOGIES.canonical("transit_stub:transits=4")


class TestShapes:
    def test_transit_stub_counts(self):
        tree = build_topology("transit_stub:transits=3,stubs=4,hosts=5")
        assert len(tree.receivers) == 3 * 4 * 5
        # three-tier: source -> transit chain -> stubs -> hosts
        assert tree.kind("t1") is NodeKind.ROUTER
        assert tree.parent("t2") == "t1"
        assert tree.parent("u2_1") == "t2"

    def test_fat_tree_counts(self):
        tree = build_topology("fat_tree:k=4")
        assert len(tree.receivers) == 4**3 // 4

    def test_random_tree_is_seed_deterministic(self):
        a = build_topology("random_tree:receivers=32", seed=5)
        b = build_topology("random_tree:receivers=32", seed=5)
        c = build_topology("random_tree:receivers=32", seed=6)
        assert a.receivers == b.receivers
        assert {r: a.parent(r) for r in a.receivers} == {
            r: b.parent(r) for r in b.receivers
        }
        assert {r: a.parent(r) for r in a.receivers} != {
            r: c.parent(r) for r in c.receivers
        }

    def test_receiver_caps_enforced(self):
        with pytest.raises(TopologyError, match="unreasonably large"):
            build_topology("tree:depth=7,fanout=8")
        with pytest.raises(TopologyError, match="cap"):
            build_topology("transit_stub:transits=200,stubs=200,hosts=200")
        with pytest.raises(TopologyError, match="cap"):
            build_topology("random_tree:receivers=100000")


class TestSynthesis:
    def test_trace_named_canonically(self):
        trace = synthesize_topology_trace("transit_stub:stubs=2,transits=2")
        assert trace.trace.name == TOPOLOGIES.canonical(
            "transit_stub:transits=2,stubs=2"
        )

    def test_scale_family_trace_deterministic(self):
        spec = "transit_stub:transits=2,stubs=2,hosts=3,packets=50"
        a = synthesize_topology_trace(spec, seed=3, max_packets=50)
        b = synthesize_topology_trace(spec, seed=3, max_packets=50)
        assert a.trace.loss_seqs == b.trace.loss_seqs

    def test_shared_parameter_validation(self):
        with pytest.raises(TopologyError, match="loss"):
            synthesize_topology_trace("transit_stub:loss=1.5")
        with pytest.raises(TopologyError, match="positive"):
            synthesize_topology_trace("fat_tree:k=4,packets=0")
