"""Tests for calibrated trace synthesis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import build_random_tree
from repro.traces.model import TraceError
from repro.traces.synthesize import (
    SynthesisParams,
    calibrate_link_rates,
    expected_total_losses,
    raw_link_propensities,
    synthesize_trace,
)
from repro.traces.yajnik import trace_meta


def small_params(**overrides) -> SynthesisParams:
    defaults = dict(
        name="unit",
        n_receivers=6,
        tree_depth=4,
        period=0.08,
        n_packets=3000,
        target_losses=1500,
    )
    defaults.update(overrides)
    return SynthesisParams(**defaults)


class TestCalibration:
    def test_expected_total_monotone_in_rates(self):
        tree = build_random_tree(6, 4, random.Random(0))
        low = {link: 0.01 for link in tree.links}
        high = {link: 0.05 for link in tree.links}
        assert expected_total_losses(tree, low, 1000) < expected_total_losses(
            tree, high, 1000
        )

    def test_calibrated_expectation_hits_target(self):
        tree = build_random_tree(8, 4, random.Random(1))
        propensities = raw_link_propensities(tree, random.Random(2))
        rates = calibrate_link_rates(tree, propensities, 2000, 5000)
        expected = expected_total_losses(tree, rates, 5000)
        assert expected == pytest.approx(2000, rel=0.01)

    def test_zero_target(self):
        tree = build_random_tree(4, 3, random.Random(0))
        propensities = raw_link_propensities(tree, random.Random(0))
        rates = calibrate_link_rates(tree, propensities, 0, 1000)
        assert all(rate == 0.0 for rate in rates.values())

    def test_unreachable_target_raises(self):
        tree = build_random_tree(2, 2, random.Random(0))
        propensities = raw_link_propensities(tree, random.Random(0))
        with pytest.raises(TraceError):
            calibrate_link_rates(tree, propensities, 10_000, 100)

    def test_rates_respect_cap(self):
        tree = build_random_tree(4, 3, random.Random(3))
        propensities = raw_link_propensities(tree, random.Random(3))
        rates = calibrate_link_rates(tree, propensities, 500, 1000, rate_cap=0.4)
        assert all(rate <= 0.4 for rate in rates.values())


class TestSynthesis:
    def test_deterministic(self):
        a = synthesize_trace(small_params(), seed=5)
        b = synthesize_trace(small_params(), seed=5)
        assert a.trace.loss_seqs == b.trace.loss_seqs
        assert a.link_combos == b.link_combos
        assert a.link_rates == b.link_rates

    def test_seed_changes_output(self):
        a = synthesize_trace(small_params(), seed=1)
        b = synthesize_trace(small_params(), seed=2)
        assert a.trace.loss_seqs != b.trace.loss_seqs

    def test_structure_matches_request(self):
        synthetic = synthesize_trace(small_params(), seed=0)
        trace = synthetic.trace
        assert len(trace.tree.receivers) == 6
        assert trace.tree.depth == 4
        assert trace.n_packets == 3000
        assert trace.period == pytest.approx(0.08)

    def test_losses_near_target(self):
        synthetic = synthesize_trace(small_params(), seed=0)
        assert synthetic.trace.total_losses == pytest.approx(1500, rel=0.15)

    def test_from_meta_matches_table1(self):
        synthetic = synthesize_trace(trace_meta("WRN951216"), seed=0, max_packets=2500)
        trace = synthetic.trace
        meta = trace_meta("WRN951216")
        assert len(trace.tree.receivers) == meta.n_receivers
        assert trace.tree.depth == meta.tree_depth
        assert trace.n_packets == 2500
        scaled_target = round(meta.n_losses * 2500 / meta.n_packets)
        assert trace.total_losses == pytest.approx(scaled_target, rel=0.15)

    def test_max_packets_truncates_params(self):
        params = small_params()
        synthetic = synthesize_trace(params, seed=0, max_packets=1000)
        assert synthetic.trace.n_packets == 1000
        # loss target scales proportionally
        assert synthetic.trace.total_losses == pytest.approx(500, rel=0.25)

    def test_combos_cover_every_lossy_packet(self):
        synthetic = synthesize_trace(small_params(n_packets=1500), seed=3)
        assert set(synthetic.link_combos) == set(synthetic.trace.lossy_packets())

    def test_combos_reproduce_observed_patterns(self):
        synthetic = synthesize_trace(small_params(n_packets=1500), seed=4)
        tree = synthetic.trace.tree
        for packet, combo in synthetic.link_combos.items():
            covered = set()
            for _, child in combo:
                covered |= tree.subtree_receivers(child)
            assert covered == synthetic.trace.loss_pattern(packet)

    def test_combos_are_antichains(self):
        synthetic = synthesize_trace(small_params(n_packets=1500), seed=5)
        tree = synthetic.trace.tree
        for combo in synthetic.link_combos.values():
            for _, child_a in combo:
                for _, child_b in combo:
                    if child_a != child_b:
                        assert not tree.is_descendant(child_a, child_b)

    def test_responsible_link_defined_for_every_loss(self):
        synthetic = synthesize_trace(small_params(n_packets=800), seed=6)
        trace = synthetic.trace
        for packet in trace.lossy_packets():
            for receiver in trace.loss_pattern(packet):
                assert synthetic.responsible_link(receiver, packet) is not None

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_loss_rates_within_physical_bounds(self, seed):
        synthetic = synthesize_trace(small_params(n_packets=500), seed=seed)
        for rate in synthetic.link_rates.values():
            assert 0.0 <= rate <= 0.60

    def test_losses_show_temporal_locality(self):
        """Consecutive-packet loss runs must be far likelier than under
        independence — the property CESRM exploits."""
        synthetic = synthesize_trace(small_params(n_packets=3000), seed=7)
        trace = synthetic.trace
        repeats = 0
        losses = 0
        for receiver in trace.tree.receivers:
            seq = trace.loss_seqs[receiver]
            for i in range(1, len(seq)):
                if seq[i]:
                    losses += 1
                    if seq[i - 1]:
                        repeats += 1
        rate = trace.mean_loss_rate
        # P(loss | previous loss) must far exceed the marginal rate.
        assert repeats / losses > 3 * rate

    def test_losses_show_spatial_locality(self):
        """The responsible link of a loss usually matches the responsible
        link of the receiver's previous loss (the CESRM premise)."""
        synthetic = synthesize_trace(small_params(n_packets=3000), seed=8)
        trace = synthetic.trace
        same = 0
        total = 0
        for receiver in trace.tree.receivers:
            previous = None
            seq = trace.loss_seqs[receiver]
            for packet in range(trace.n_packets):
                if not seq[packet]:
                    continue
                link = synthetic.responsible_link(receiver, packet)
                if previous is not None:
                    total += 1
                    if link == previous:
                        same += 1
                previous = link
        assert total > 0
        assert same / total > 0.5


class TestReceiverMasksFromAncestorCache:
    """``_sample_trace`` reads each receiver's loss mask off the top-down
    per-node cache; it must equal the OR of the link masks on its path."""

    @staticmethod
    def _path_or(synthetic) -> dict[str, bytes]:
        trace = synthetic.trace
        tree = trace.tree
        out = {}
        for receiver in tree.receivers:
            path = tree.path(tree.source, receiver)
            links = set(zip(path, path[1:]))
            seq = bytearray(trace.n_packets)
            # link_combos holds the *effective* (topmost) drops, whose
            # union along a path is exactly the path-OR of the raw masks.
            for packet, combo in synthetic.link_combos.items():
                if combo & links:
                    seq[packet] = 1
            out[receiver] = bytes(seq)
        return out

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(
            [
                "random_tree:receivers={n},packets=40,loss={loss}",
                "transit_stub:transits=2,stubs=2,hosts={n},packets=40,loss={loss}",
            ]
        ),
        n=st.integers(min_value=2, max_value=12),
        loss=st.sampled_from(["1e-9", "5e-3", "5e-2"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_path_or_on_random_topologies(self, family, n, loss, seed):
        from repro.net.families import synthesize_topology_trace

        synthetic = synthesize_topology_trace(
            family.format(n=n, loss=loss), seed=seed, max_packets=40
        )
        assert synthetic.trace.loss_seqs == self._path_or(synthetic)

    def test_raw_masks_or_along_the_path(self):
        """The same property one level down, against the raw link masks."""
        import repro.traces.synthesize as synthesize

        tree = build_random_tree(9, 5, random.Random(3))
        rates = {link: 0.08 for link in tree.links}
        params = small_params(n_receivers=9, tree_depth=5, n_packets=200)
        masks = {}
        real = synthesize.GilbertModel.sample_mask

        def recording(self, n, rng):
            mask = real(self, n, rng)
            masks[len(masks)] = mask
            return mask

        synthesize.GilbertModel.sample_mask = recording
        try:
            synthetic = synthesize._sample_trace(params, tree, rates, random.Random(5))
        finally:
            synthesize.GilbertModel.sample_mask = real
        link_masks = dict(zip(tree.links, masks.values()))
        for receiver in tree.receivers:
            path = tree.path(tree.source, receiver)
            mask = 0
            for link in zip(path, path[1:]):
                mask |= link_masks[link]
            expected = bytes((mask >> i) & 1 for i in range(200))
            assert synthetic.trace.loss_seqs[receiver] == expected

    def test_identical_masks_share_one_bytes_object(self):
        from repro.net.families import synthesize_topology_trace

        synthetic = synthesize_topology_trace(
            "transit_stub:transits=2,stubs=3,hosts=6,packets=8,loss=1e-9", seed=0
        )
        seqs = list(synthetic.trace.loss_seqs.values())
        assert len(seqs) == 36 and all(seq is seqs[0] for seq in seqs)
