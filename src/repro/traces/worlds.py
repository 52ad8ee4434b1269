"""Named synthetic worlds: the small fixed-shape trees that the harness's
drivers below the paper's figures run (group-size and bandwidth sweeps,
crash and churn scenarios, workload and cache-policy grids).

A world's name goes wherever a Table 1 name does — a
:class:`~repro.exec.jobs.RunJob`'s ``trace``, ``cesrm run --trace
bench-cachelab`` — and synthesizes deterministically in ``(name, seed,
max_packets)``.  A row is one of two kinds:

* :class:`~repro.traces.synthesize.SynthesisParams` — a calibrated random
  tree, synthesized exactly like a Table 1 row;
* :class:`LinkDropWorld` — a random tree whose one lossy link drops a
  fixed periodic pattern, so a scenario can aim a crash at the hosts
  behind it.

The name keys the world's random streams, so renaming a world changes
its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.topology import LinkId, MulticastTree, build_random_tree
from repro.sim.rng import RngRegistry
from repro.traces.model import LossTrace, SyntheticTrace
from repro.traces.synthesize import SynthesisParams, synthesize_trace


@dataclass(frozen=True)
class LinkDropWorld:
    """A random tree whose :func:`drop_link` drops the packets with
    ``seq % every == phase``; no other link loses anything."""

    name: str
    n_receivers: int
    tree_depth: int
    n_packets: int
    period: float
    every: int
    phase: int


#: Every named world, by name.
WORLDS: dict[str, SynthesisParams | LinkDropWorld] = {
    world.name: world
    for world in (
        # Group size 8 → 40 at a constant 5 % per-receiver loss rate.
        *(SynthesisParams(f"scale-{n}", n, 5, 0.08, 1200, 60 * n) for n in (8, 16, 24, 40)),
        SynthesisParams("congestion", 16, 5, 0.08, 900, 900),
        SynthesisParams("bench-faults", 8, 3, 0.04, 800, 320),
        SynthesisParams("bench-workloads", 8, 3, 0.05, 600, 200),
        SynthesisParams("bench-cachelab", 10, 4, 0.05, 500, 170),
        LinkDropWorld("churn", 10, 4, 120, 0.25, every=2, phase=1),
        LinkDropWorld("lms", 12, 5, 400, 0.15, every=4, phase=1),
    )
}


def drop_link(tree: MulticastTree) -> LinkId:
    """The deepest interior link (two or more receivers on each side):
    the lossy link of a :class:`LinkDropWorld` over ``tree``."""
    interior = [
        (u, v) for u, v in tree.links
        if 2 <= len(tree.subtree_receivers(v)) <= len(tree.receivers) - 2
    ]
    return max(interior, key=lambda link: tree.node_depth(link[1]))


def synthesize_world(
    name: str, seed: int = 0, max_packets: int | None = None
) -> SyntheticTrace:
    """The named world's trace over its first ``max_packets`` packets
    (a calibrated world's loss target scales down with them)."""
    world = WORLDS[name]
    if isinstance(world, SynthesisParams):
        return synthesize_trace(world, seed=seed, max_packets=max_packets)
    tree = build_random_tree(
        world.n_receivers, world.tree_depth, RngRegistry(seed).stream("topology")
    )
    link = drop_link(tree)
    n_packets = min(world.n_packets, max_packets or world.n_packets)
    lost = bytes(seq % world.every == world.phase for seq in range(n_packets))
    behind = tree.subtree_receivers(link[1])
    seqs = {r: lost if r in behind else bytes(n_packets) for r in tree.receivers}
    rates = dict.fromkeys(tree.links, 0.0)
    rates[link] = sum(lost) / n_packets
    combos = {seq: frozenset({link}) for seq in range(n_packets) if lost[seq]}
    return SyntheticTrace(LossTrace(name, tree, world.period, seqs), rates, combos)
