"""RMTP region planning: local regions and designated receivers.

RMTP groups receivers into local regions aligned with the network
topology.  Here each subtree hanging off the tree's first branching point
becomes a region; its **designated receiver (DR)** is the receiver closest
to the region's root router (ties broken lexicographically).  DRs answer
their region members' status messages and send their own status to the
sender; members of degenerate regions (a region whose only receiver is the
DR itself) report straight to the sender as well.
"""

from __future__ import annotations

from repro.net.topology import MulticastTree


class RmtpFabric:
    """Region and designated-receiver assignment for a multicast tree."""

    def __init__(self, tree: MulticastTree) -> None:
        self.tree = tree
        #: region root router -> designated receiver.
        self.designated: dict[str, str] = {}
        #: receiver -> the host its status messages go to (DR or sender).
        self.parent_of: dict[str, str] = {}

        regions = self._region_roots()
        for root in regions:
            members = sorted(tree.subtree_receivers(root))
            dr = min(members, key=lambda r: (tree.hop_distance(root, r), r))
            self.designated[root] = dr
            for member in members:
                self.parent_of[member] = dr if member != dr else tree.source
        # receivers outside every region (possible when the source's first
        # branching point is a receiver's parent) report to the sender
        for receiver in tree.receivers:
            self.parent_of.setdefault(receiver, tree.source)

    def _region_roots(self) -> list[str]:
        """The children of the tree's first branching node (following the
        chain down from the source until the tree fans out)."""
        node = self.tree.source
        while True:
            children = self.tree.children(node)
            if len(children) != 1:
                break
            node = children[0]
        return [child for child in self.tree.children(node)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def status_parent(self, receiver: str) -> str:
        """Where ``receiver`` sends its status messages: a receiver that
        joined after planning is outside every region, so, like any such
        receiver, it reports to the sender."""
        return self.parent_of.get(receiver, self.tree.source)

    def designated_receivers(self) -> set[str]:
        return set(self.designated.values())

    def region_members(self, dr: str) -> list[str]:
        """The receivers whose status parent is ``dr``."""
        return [r for r, parent in self.parent_of.items() if parent == dr]
