"""Incremental-index equivalence oracle.

Any sequence of :meth:`MulticastTree.attach_receiver` /
:meth:`MulticastTree.detach_subtree` patches must leave the in-place
:class:`~repro.net.index.TopologyIndex` answering every query — LCA,
paths, hop distances, routing rows, descendant tests, subtree receiver
bitsets — exactly like an index rebuilt from scratch over the patched
tree.  Bit *positions* may differ between the two (the patched index
keeps stable slots across churn, the rebuild numbers the current
membership), so bitsets are compared through their name sets.
"""

from __future__ import annotations

import random

import pytest

from repro.net.families import build_topology
from repro.net.index import NO_NODE, TopologyIndex
from repro.net.topology import NodeKind, build_balanced_tree


def rebuild(tree) -> TopologyIndex:
    """A from-scratch index over the patched tree's current structure.

    Built directly (not via ``MulticastTree.index``) because churn can
    legally leave a router childless, which the tree constructor's
    leaf-kind validation would reject for a *new* tree.
    """
    return TopologyIndex(
        names=tuple(tree._nodes),
        parent_of=tree._parents,
        children_of=tree._children,
        receivers=tuple(tree.current_receivers()),
    )


def _pairs(rng, nodes, k=80):
    if len(nodes) * len(nodes) <= k:
        return [(a, b) for a in nodes for b in nodes]
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(k)]


def assert_equivalent(patched: TopologyIndex, tree, rng) -> None:
    fresh = rebuild(tree)
    nodes = list(tree._nodes)

    for name in nodes:
        p, f = patched.ids[name], fresh.ids[name]
        assert patched.alive[p]
        assert patched.depth[p] == fresh.depth[f], name
        p_parent = patched.parent[p]
        f_parent = fresh.parent[f]
        if f_parent == NO_NODE:
            assert p_parent == NO_NODE
        else:
            assert patched.names[p_parent] == fresh.names[f_parent]
        assert [patched.names[c] for c in patched.children[p]] == [
            fresh.names[c] for c in fresh.children[f]
        ], name
        assert [patched.names[c] for c in patched.neighbors[p]] == [
            fresh.names[c] for c in fresh.neighbors[f]
        ], name
        # Subtree receiver bitsets, compared as name sets.
        assert patched.names_of_bits(
            patched.subtree_bits[p]
        ) == fresh.names_of_bits(fresh.subtree_bits[f]), name

    for a, b in _pairs(rng, nodes):
        pa, pb = patched.ids[a], patched.ids[b]
        fa, fb = fresh.ids[a], fresh.ids[b]
        assert patched.names[patched.lca_int(pa, pb)] == fresh.names[
            fresh.lca_int(fa, fb)
        ], (a, b)
        assert patched.hop_distance_int(pa, pb) == fresh.hop_distance_int(fa, fb)
        assert patched.is_descendant_int(pa, pb) == fresh.is_descendant_int(fa, fb)
        assert tuple(patched.names[i] for i in patched.path_ints(pa, pb)) == tuple(
            fresh.names[i] for i in fresh.path_ints(fa, fb)
        ), (a, b)

    assert sorted(tree.current_receivers()) == sorted(
        fresh.names[r] for r in fresh.receiver_ids
    )


class TestSingleOps:
    def test_attach_one_leaf(self):
        tree = build_balanced_tree(branching=2, depth=3)
        index = tree.index
        tree.attach_receiver("j1", "x2")
        assert tree.index is index  # patched in place, not rebuilt
        assert_equivalent(index, tree, random.Random(0))

    def test_detach_one_receiver(self):
        tree = build_balanced_tree(branching=2, depth=3)
        index = tree.index
        tree.detach_subtree("r3")
        assert_equivalent(index, tree, random.Random(0))
        assert "r3" not in tree.current_receivers()
        assert "r3" in tree.receivers  # display membership is the initial one

    def test_detach_router_subtree(self):
        tree = build_balanced_tree(branching=2, depth=3)
        index = tree.index
        removed = tree.detach_subtree("x2")
        assert set(removed) == {"x2", "x5", "x6", "r5", "r6", "r7", "r8"}
        assert_equivalent(index, tree, random.Random(0))

    def test_revive_reuses_id_and_bit_slot(self):
        tree = build_balanced_tree(branching=2, depth=3)
        index = tree.index
        rid = index.ids["r1"]
        slot = index._receiver_slot[rid]
        tree.detach_subtree("r1")
        assert not index.alive[rid]
        tree.attach_receiver("r1", "x3")  # rejoin under a different router
        assert index.ids["r1"] == rid
        assert index._receiver_slot[rid] == slot
        assert tree.parent("r1") == "x3"
        assert_equivalent(index, tree, random.Random(0))

    def test_attach_deepens_past_lifting_levels(self):
        # A chain of attach_leaf calls (router spine growing one hop at a
        # time) pushes depth past the original lifting-table level count;
        # the table must grow columns and keep answering LCA/paths.
        tree = build_balanced_tree(branching=2, depth=2)
        index = tree.index
        levels_before = len(index._up)
        parent = "x1"
        for i in range(20):
            name = f"j{i}"
            index.attach_leaf(name, parent, receiver=(i == 19))
            parent = name
        assert len(index._up) > levels_before
        assert index.hop_distance("s", "j19") == 21
        assert index.names[index.lca_int(index.ids["j19"], index.ids["r1"])] == "x1"
        path = index.path_names("j19", "r2")
        assert path[0] == "j19" and path[-1] == "r2" and len(path) == 22

    def test_attach_under_receiver_rejected(self):
        tree = build_balanced_tree(branching=2, depth=2)
        with pytest.raises(Exception):
            tree.attach_receiver("j1", "r1")

    def test_detach_source_rejected(self):
        tree = build_balanced_tree(branching=2, depth=2)
        with pytest.raises(Exception):
            tree.detach_subtree("s")


class TestRandomChurnSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_patched_matches_rebuild(self, seed):
        rng = random.Random(seed)
        tree = build_topology("transit_stub:transits=3,stubs=3,hosts=3")
        index = tree.index  # materialize, then patch in place
        routers = [n for n in tree.nodes if tree.kind(n) is NodeKind.ROUTER]
        joined = 0
        detached_names: list[str] = []
        for step in range(48):
            members = tree.current_receivers()
            action = rng.random()
            if action < 0.4 and len(members) > 2:
                victim = rng.choice(members)
                tree.detach_subtree(victim)
                detached_names.append(victim)
            elif action < 0.55 and detached_names:
                # Rejoin a previously departed member (id/bit-slot revive).
                name = detached_names.pop(rng.randrange(len(detached_names)))
                tree.attach_receiver(name, rng.choice(routers))
            else:
                joined += 1
                tree.attach_receiver(f"j{joined}", rng.choice(routers))
            if step % 12 == 11:
                assert_equivalent(index, tree, rng)
        assert_equivalent(index, tree, rng)
