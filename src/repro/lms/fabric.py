"""LMS router state: replier designation and request routing.

Each router designates one *replier* host inside its subtree (here: the
hop-closest receiver, ties broken lexicographically — LMS leaves the
election mechanism open).  A repair request (NACK) from a receiver climbs
toward the source; at each router:

* if the NACK arrived on the router's replier link (the designated replier
  lives in the same child subtree the NACK came from), the replier shares
  the loss — forward the NACK upstream;
* otherwise divert it down the replier link; this router is the NACK's
  **turning point**, stamped on the request so the repair can be unicast
  back to it and subcast downstream.

If the NACK climbs all the way to the root, the source itself answers and
the repair is subcast from the root (i.e. reaches the whole group).

Router state is the protocol's Achilles heel (§3.3): it must be updated
when members leave or crash.  :meth:`LmsFabric.fail_host` models a crash
*without* repairing router state; :meth:`redesignate` models the (slow)
control-plane repair.  The ``lms.*`` claims of ``cesrm verify-paper``
measure exactly this window.
"""

from __future__ import annotations

from repro.net.topology import MulticastTree


class LmsFabric:
    """Replier tables for every router of a multicast tree."""

    def __init__(self, tree: MulticastTree) -> None:
        self.tree = tree
        self._failed: set[str] = set()
        #: router -> designated replier host in its subtree.
        self.repliers: dict[str, str] = {}
        for router in [*tree.routers, tree.source]:
            self.repliers[router] = self._elect(router)

    # ------------------------------------------------------------------
    # Designation
    # ------------------------------------------------------------------
    def _elect(self, router: str) -> str:
        """The hop-closest live receiver in ``router``'s subtree; the
        source elects itself (it holds every packet)."""
        if router == self.tree.source:
            return self.tree.source
        candidates = [
            receiver
            for receiver in self.tree.subtree_receivers(router)
            if receiver not in self._failed
        ]
        if not candidates:
            return self.tree.source  # empty subtree: defer to the source
        return min(
            candidates,
            key=lambda r: (self.tree.hop_distance(router, r), r),
        )

    def replier_of(self, router: str) -> str:
        return self.repliers[router]

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def route_request(self, requestor: str) -> tuple[str, str]:
        """Where a NACK from ``requestor`` ends up: ``(turning_point,
        replier)``.

        Walks the ancestor chain exactly as per-hop LMS forwarding would:
        the first router whose designated replier is *not* in the child
        subtree the NACK arrives from diverts it; otherwise the NACK
        reaches the source.
        """
        child = requestor
        for ancestor in self.tree.ancestors(requestor):
            if ancestor == self.tree.source:
                break
            replier = self.repliers[ancestor]
            if not self._in_subtree(replier, child):
                return (ancestor, replier)
            child = ancestor
        return (self.tree.source, self.tree.source)

    def _in_subtree(self, host: str, subtree_root: str) -> bool:
        return host == subtree_root or self.tree.is_descendant(host, subtree_root)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def fail_host(self, host: str) -> None:
        """Record a crash.  Router tables are **not** updated — that is
        LMS's fragility window (§3.3)."""
        self._failed.add(host)

    def stale_routers(self) -> list[str]:
        """Routers whose designated replier has crashed."""
        return [
            router
            for router, replier in self.repliers.items()
            if replier in self._failed
        ]

    def redesignate(self) -> int:
        """Repair every stale router table (the eventual control-plane
        update); returns the number of routers fixed."""
        fixed = 0
        for router in self.stale_routers():
            self.repliers[router] = self._elect(router)
            fixed += 1
        return fixed
