"""The scale layer's memory and session shortcuts.

Covers the three pieces that take runs from 10^3 to 10^5+ receivers:

* :class:`~repro.srm.state.SeqSet` — the bitmap replacing per-stream
  ``set[int]`` reception state;
* ``__slots__`` on the per-receiver hot-state records;
* ``SimulationConfig.prime_distances`` — the analytic
  :class:`~repro.srm.session.TreeDistanceOracle` replacing the O(n^2)
  simulated session exchange, with the default path byte-identical.
"""

import pytest

from repro.exec.summary import config_from_dict, config_to_dict
from repro.harness.config import SimulationConfig
from repro.harness.runner import run_trace
from repro.net.topology import build_balanced_tree
from repro.srm.session import DistanceEstimator, TreeDistanceOracle
from repro.srm.state import ReplyState, SeqSet, StreamState
from repro.net.families import synthesize_topology_trace


class TestSeqSet:
    def test_set_semantics(self):
        s = SeqSet()
        assert not s and len(s) == 0
        s.add(0)
        s.add(17)
        s.add(17)  # idempotent
        assert s and len(s) == 2
        assert 0 in s and 17 in s
        assert 1 not in s and 1000 not in s

    def test_negative_lookups_false_negative_adds_raise(self):
        s = SeqSet([3])
        assert -1 not in s
        with pytest.raises(ValueError):
            s.add(-1)

    def test_iteration_is_ascending(self):
        s = SeqSet([900, 0, 64, 7, 63])
        assert list(s) == [0, 7, 63, 64, 900]
        assert max(s) == 900
        assert sorted(s) == list(s)

    def test_equality_with_sets_and_seqsets(self):
        s = SeqSet([1, 5, 9])
        assert s == {1, 5, 9}
        assert s == SeqSet([9, 5, 1])
        assert s != {1, 5}
        assert s != SeqSet([1, 5, 8])

    def test_right_hand_set_difference(self):
        # the invariant monitor computes set(request_states) - ever_lost
        assert {1, 2, 3} - SeqSet([2]) == {1, 3}

    def test_constructor_seeds(self):
        assert SeqSet(range(10)) == set(range(10))


class TestSlots:
    def test_hot_state_records_reject_stray_attributes(self):
        stream = StreamState()
        with pytest.raises((AttributeError, TypeError)):
            stream.scratch = 1
        reply = ReplyState()
        with pytest.raises((AttributeError, TypeError)):
            reply.scratch = 1

    def test_stream_state_uses_seqset(self):
        stream = StreamState()
        assert isinstance(stream.received, SeqSet)
        assert isinstance(stream.ever_lost, SeqSet)


class TestOracle:
    def test_distance_is_hops_times_delay(self):
        tree = build_balanced_tree(branching=2, depth=3)
        oracle = TreeDistanceOracle(tree, propagation_delay=0.020)
        index = tree.index
        for a, b in (("r1", "r2"), ("r1", "r8"), ("s", "r1"), ("r3", "r3")):
            hops = index.hop_distance_int(index.ids[a], index.ids[b])
            assert oracle.distance(a, b) == pytest.approx(hops * 0.020)

    def test_primed_estimator_prefers_learned_estimates(self):
        tree = build_balanced_tree(branching=2, depth=2)
        estimator = DistanceEstimator("r1", row=0)
        oracle = TreeDistanceOracle(tree, propagation_delay=0.020)
        estimator.prime(oracle)
        # never heard from r2: analytic fallback, not the default
        assert estimator.get_or("r2", 99.0) == pytest.approx(
            oracle.distance("r1", "r2")
        )
        # a session-learned estimate wins over the oracle
        estimator._estimates["r2"] = 0.123
        assert estimator.get_or("r2", 99.0) == 0.123

    def test_unprimed_estimator_keeps_bound_dict_get(self):
        estimator = DistanceEstimator("r1", row=0)
        assert estimator.get_or == estimator._estimates.get
        assert estimator.get_or("r2", 7.5) == 7.5


class TestPrimeDistancesMode:
    SPEC = "transit_stub:transits=2,stubs=2,hosts=3,packets=120,loss=0.03"

    def test_primed_run_recovers_without_sessions(self):
        trace = synthesize_topology_trace(self.SPEC, seed=2, max_packets=120)
        config = SimulationConfig(max_packets=120, prime_distances=True)
        result = run_trace(trace, "cesrm", config)
        assert result.total_losses > 0
        recovered = sum(len(v) for v in result.metrics.recoveries.values())
        assert recovered == result.total_losses  # full recovery, no sessions
        from repro.net.packet import PacketKind

        session_sends = [
            row for (host, kind, cast), row in result.metrics.sends.items()
            if kind is PacketKind.SESSION
        ]
        assert not session_sends

    def test_flag_folds_out_of_default_configs(self):
        data = config_to_dict(SimulationConfig())
        assert "prime_distances" not in data
        assert not config_from_dict(data).prime_distances
        primed = config_to_dict(SimulationConfig(prime_distances=True))
        assert primed["prime_distances"] is True
        assert config_from_dict(primed).prime_distances
