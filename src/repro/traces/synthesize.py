"""Calibrated synthetic trace generation.

For each Table 1 row we build a random multicast tree with the row's
receiver count and depth, attach an independent Gilbert loss process to
every downstream link, and calibrate the processes' marginal rates so the
expected total receiver-loss count matches the row's published figure.

Loss *locality*, the property CESRM exploits, emerges in two ways:

* **temporal** — Gilbert bursts produce runs of consecutive drops on a link;
* **spatial** — a drop on an interior link is shared by the whole subtree,
  and link propensities are drawn from a heavy-tailed distribution so a few
  "hot" links dominate, as the MBone measurements consistently found.

Calibration details: the expected total loss count under per-link marginal
rates ``p_l`` is ``sum_r (1 - prod_{l in path(r)} (1 - p_l)) * n_packets``;
a global scale factor on the raw propensities is found by bisection, the
trace is sampled, and — because bursty processes have high variance — the
scale is re-adjusted and resampled until the realized count is within
tolerance of the target (deterministic: each attempt uses a fresh derived
stream).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.topology import LinkId, MulticastTree, build_random_tree
from repro.sim.rng import RngRegistry
from repro.traces.gilbert import GilbertModel, bytes_from_bitmask, iter_set_bits
from repro.traces.model import LossTrace, SyntheticTrace, TraceError
from repro.traces.yajnik import TraceMeta


@dataclass(frozen=True)
class SynthesisParams:
    """Free-form synthesis request (when not reproducing a Table 1 row)."""

    name: str
    n_receivers: int
    tree_depth: int
    period: float
    n_packets: int
    target_losses: int
    min_burst: float = 3.0
    max_burst: float = 10.0
    hot_link_fraction: float = 0.2
    tolerance: float = 0.02
    max_attempts: int = 10

    @classmethod
    def from_meta(cls, meta: TraceMeta, max_packets: int | None = None) -> "SynthesisParams":
        """Derive parameters from a Table 1 row, optionally truncating the
        packet count (the loss target scales proportionally)."""
        n_packets = meta.n_packets
        target = meta.n_losses
        if max_packets is not None and max_packets < n_packets:
            target = max(1, round(target * max_packets / n_packets))
            n_packets = max_packets
        return cls(
            name=meta.name,
            n_receivers=meta.n_receivers,
            tree_depth=meta.tree_depth,
            period=meta.period,
            n_packets=n_packets,
            target_losses=target,
        )


def raw_link_propensities(
    tree: MulticastTree,
    rng: random.Random,
    hot_link_fraction: float = 0.2,
) -> dict[LinkId, float]:
    """Unnormalized per-link loss propensities.

    Drawn log-normally so a small subset of links is far lossier than the
    rest; a ``hot_link_fraction`` of links gets a further multiplier, and
    propensity grows with link depth — the MBone measurements consistently
    located most loss on tail circuits near specific receivers, with the
    backbone links near the source comparatively clean.  Only the *ratios*
    matter — calibration scales them all.
    """
    depth = max(tree.depth, 1)
    all_receivers = tree.subtree_receivers(tree.source)
    out: dict[LinkId, float] = {}
    for link in tree.links:
        base = rng.lognormvariate(0.0, 1.4)
        if rng.random() < hot_link_fraction:
            base *= rng.uniform(3.0, 8.0)
        child_depth = tree.node_depth(link[1])
        base *= (child_depth / depth) ** 2.0
        if tree.subtree_receivers(link[1]) == all_receivers:
            # Links whose drop blanks the whole group are the backbone at
            # the source's uplink — consistently clean in the MBone
            # measurements (whole-group loss events were rare).
            base *= 0.15
        out[link] = base
    return out


def _receiver_links(tree: MulticastTree) -> list[tuple[LinkId, ...]]:
    """Each receiver's source-to-receiver links, in ``tree.receivers`` order."""
    paths = (tree.path(tree.source, receiver) for receiver in tree.receivers)
    return [tuple(zip(path, path[1:])) for path in paths]


def _expected_losses(
    receiver_links: list[tuple[LinkId, ...]],
    rates: dict[LinkId, float],
    n_packets: int,
) -> float:
    total = 0.0
    for links in receiver_links:
        survive = 1.0
        for link in links:
            survive *= 1.0 - rates[link]
        total += 1.0 - survive
    return total * n_packets


def expected_total_losses(
    tree: MulticastTree, rates: dict[LinkId, float], n_packets: int
) -> float:
    """E[total receiver losses] for independent per-link marginals."""
    return _expected_losses(_receiver_links(tree), rates, n_packets)


def calibrate_link_rates(
    tree: MulticastTree,
    propensities: dict[LinkId, float],
    target_losses: int,
    n_packets: int,
    rate_cap: float = 0.60,
) -> dict[LinkId, float]:
    """Scale raw propensities so the expected loss total hits the target.

    Rates are capped at ``rate_cap`` per link; bisection on the global
    scale factor converges because the expectation is monotone in it.
    """
    if target_losses <= 0:
        return {link: 0.0 for link in propensities}
    # The bisection evaluates the expectation ~80 times: walk the tree once.
    receiver_links = _receiver_links(tree)

    def expected(rates: dict[LinkId, float]) -> float:
        return _expected_losses(receiver_links, rates, n_packets)

    max_total = expected({link: rate_cap for link in propensities})
    if target_losses > max_total:
        raise TraceError(
            f"target of {target_losses} losses unreachable (max {max_total:.0f})"
        )

    def rates_at(scale: float) -> dict[LinkId, float]:
        return {link: min(p * scale, rate_cap) for link, p in propensities.items()}

    lo, hi = 0.0, 1.0
    while expected(rates_at(hi)) < target_losses:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover - guarded by the max_total check
            raise TraceError("calibration diverged")
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if expected(rates_at(mid)) < target_losses:
            lo = mid
        else:
            hi = mid
    return rates_at((lo + hi) / 2.0)


def synthesize_trace(
    spec: TraceMeta | SynthesisParams,
    seed: int = 0,
    max_packets: int | None = None,
) -> SyntheticTrace:
    """Generate a synthetic trace for a Table 1 row or custom parameters.

    Deterministic in ``(spec, seed, max_packets)``.  The realized total loss
    count lands within ``tolerance`` of the target (resampling with an
    adjusted scale when bursty variance overshoots).
    """
    params = (
        SynthesisParams.from_meta(spec, max_packets)
        if isinstance(spec, TraceMeta)
        else (spec if max_packets is None else _truncate_params(spec, max_packets))
    )
    registry = RngRegistry(seed).fork(f"trace:{params.name}")
    tree = build_random_tree(
        params.n_receivers, params.tree_depth, registry.stream("topology")
    )
    return _synthesize_with_registry(params, tree, registry)


def synthesize_on_tree(
    tree: MulticastTree,
    params: SynthesisParams,
    seed: int = 0,
) -> SyntheticTrace:
    """Synthesize a trace over a *given* tree (generative topologies).

    Same loss machinery and stream discipline as :func:`synthesize_trace`
    — only the topology step is skipped, so ``params.n_receivers`` /
    ``params.tree_depth`` are taken from the tree, not drawn.
    Deterministic in ``(tree, params, seed)``.
    """
    registry = RngRegistry(seed).fork(f"trace:{params.name}")
    return _synthesize_with_registry(params, tree, registry)


def _synthesize_with_registry(
    params: SynthesisParams,
    tree: MulticastTree,
    registry: RngRegistry,
) -> SyntheticTrace:
    """The calibrate/sample/re-adjust loop shared by both entry points.

    Stream names and draw order are part of the determinism contract:
    ``propensities`` then ``sample:{attempt}``, exactly as the original
    single-function implementation consumed them.
    """
    propensities = raw_link_propensities(
        tree, registry.stream("propensities"), params.hot_link_fraction
    )

    target = params.target_losses
    best: SyntheticTrace | None = None
    best_err = float("inf")
    adjusted_target = float(target)
    for attempt in range(params.max_attempts):
        rates = calibrate_link_rates(
            tree, propensities, max(1, round(adjusted_target)), params.n_packets
        )
        candidate = _sample_trace(
            params, tree, rates, registry.stream(f"sample:{attempt}")
        )
        realized = candidate.trace.total_losses
        err = abs(realized - target) / max(target, 1)
        if err < best_err:
            best, best_err = candidate, err
        if err <= params.tolerance:
            break
        # Burst variance pushed us off target: steer the expectation, but
        # gently — each attempt's count is noisy, and chasing the noise
        # with a full correction makes the loop oscillate.
        correction = target / max(realized, 1)
        adjusted_target *= min(max(correction, 0.75), 1.33)
    assert best is not None
    return best


def _truncate_params(params: SynthesisParams, max_packets: int) -> SynthesisParams:
    if max_packets >= params.n_packets:
        return params
    scaled = max(1, round(params.target_losses * max_packets / params.n_packets))
    return SynthesisParams(
        name=params.name,
        n_receivers=params.n_receivers,
        tree_depth=params.tree_depth,
        period=params.period,
        n_packets=max_packets,
        target_losses=scaled,
        min_burst=params.min_burst,
        max_burst=params.max_burst,
        hot_link_fraction=params.hot_link_fraction,
        tolerance=params.tolerance,
        max_attempts=params.max_attempts,
    )


def _sample_trace(
    params: SynthesisParams,
    tree: MulticastTree,
    rates: dict[LinkId, float],
    rng: random.Random,
) -> SyntheticTrace:
    n = params.n_packets
    link_masks: dict[LinkId, int] = {}
    for link in tree.links:
        rate = rates[link]
        if rate <= 0.0:
            link_masks[link] = 0
            continue
        burst = rng.uniform(params.min_burst, params.max_burst)
        model = GilbertModel.from_rate_and_burst(rate, burst)
        link_masks[link] = model.sample_mask(n, rng)

    # Ground truth: a link's drop is *effective* (observable) only when no
    # ancestor link dropped the same packet — the surviving topmost drops
    # form an antichain that reproduces the observed pattern exactly.
    combos: dict[int, frozenset[LinkId]] = {}
    combo_sets: dict[int, set[LinkId]] = {}
    ancestor_mask_cache: dict[str, int] = {tree.source: 0}
    for link in _links_topdown(tree):
        parent, child = link
        upstream = ancestor_mask_cache[parent]
        effective = link_masks[link] & ~upstream
        ancestor_mask_cache[child] = upstream | link_masks[link]
        for packet in iter_set_bits(effective):
            combo_sets.setdefault(packet, set()).add(link)
    for packet, links in combo_sets.items():
        combos[packet] = frozenset(links)

    # Observed per-receiver sequences: the OR of the raw drops along the
    # receiver's path is its entry in the top-down cache above.  Receivers
    # with the same mask share one bytes object (on a near-loss-free trace
    # that is all of them).
    expanded: dict[int, bytes] = {}
    loss_seqs: dict[str, bytes] = {}
    for receiver in tree.receivers:
        mask = ancestor_mask_cache[receiver]
        seq = expanded.get(mask)
        if seq is None:
            seq = expanded[mask] = bytes_from_bitmask(mask, n)
        loss_seqs[receiver] = seq

    trace = LossTrace(params.name, tree, params.period, loss_seqs)
    return SyntheticTrace(trace=trace, link_rates=dict(rates), link_combos=combos)


def _links_topdown(tree: MulticastTree) -> list[LinkId]:
    """Tree links ordered parents-before-children."""
    out: list[LinkId] = []
    stack = [tree.source]
    while stack:
        node = stack.pop()
        for child in tree.children(node):
            out.append((node, child))
            stack.append(child)
    return out
