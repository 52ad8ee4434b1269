"""Router-assisted CESRM: localized expedited recovery (§3.3).

With two small router capabilities — (i) annotating reply packets with
their *turning point* (the router where a reply stops travelling upstream
and is forwarded downstream with respect to the source-rooted tree) and
(ii) *subcasting* a packet down the subtree below a router — CESRM's
expedited replies stop being exposed to the whole group:

* recovery tuples are augmented with the turning-point router observed in
  the recovery they describe;
* expedited requests carry that turning point;
* the expeditious replier unicasts its expedited reply to the turning
  point, which subcasts it downstream — reaching exactly the loss
  neighbourhood.

Because the tree is static, a reply's turning point is a pure function of
topology: the lowest common ancestor of replier and requestor.  The network
computes it as :meth:`repro.net.topology.MulticastTree.lca`, standing in
for the per-hop router annotation (byte-for-byte the same value a real
annotating router would stamp).

Unlike LMS, routers keep **no replier state** — the turning point is
recomputed from each recovery — so membership churn can never strand stale
router state; and SRM's scheme still runs underneath as the fall-back.
"""

from __future__ import annotations

from repro.core.agent import CesrmAgent
from repro.core.cachelab import RecoveryTuple
from repro.net.packet import Packet


class RouterAssistedCesrmAgent(CesrmAgent):
    """CESRM with §3.3 router assistance for expedited replies."""

    protocol_name = "cesrm-router"

    __slots__ = ()

    def _tuple_from_reply(self, packet: Packet) -> RecoveryTuple:
        """Augment cached tuples with the reply's turning point.

        Subcast replies carry the turning point they were injected at;
        multicast replies (SRM fall-back traffic) get the topology-derived
        annotation the §3.3 routers would add.
        """
        turning_point = packet.turning_point
        if turning_point is None and packet.replier and packet.requestor:
            turning_point = self.net.tree.lca(packet.replier, packet.requestor)
        return RecoveryTuple(
            seqno=packet.seqno,
            requestor=packet.requestor,  # type: ignore[arg-type]
            requestor_to_source=packet.requestor_dist,
            replier=packet.replier,  # type: ignore[arg-type]
            replier_to_requestor=packet.replier_dist,
            turning_point=turning_point,
        )

    def _send_expedited_reply(self, reply: Packet, request: Packet) -> None:
        """Unicast the reply to the turning point; the router subcasts it
        downstream (§3.3).  Falls back to plain multicast when no turning
        point is known."""
        turning_point = request.turning_point
        if turning_point is None or not self.net.tree.has_node(turning_point):
            self.net.multicast(reply)
            return
        requestor = request.requestor or request.origin
        if not self._covers(turning_point, requestor):
            # Stale annotation (the requestor moved outside the subtree):
            # recompute the true turning point for this pair.
            turning_point = self.net.tree.lca(self.host_id, requestor)
        self.net.unicast_then_subcast(turning_point, reply)

    def _covers(self, router: str, host: str) -> bool:
        return host == router or self.net.tree.is_descendant(host, router)
