"""LMS — Light-weight Multicast Services (Papadopoulos et al., INFOCOM '98).

The router-assisted reliable-multicast comparator the paper discusses in
§3.3: every router on the multicast tree maintains a *replier link* toward
a designated replier host for its subtree; repair requests travel upstream
until a router diverts them down its replier link; repairs are unicast to
the *turning point* router and subcast downstream.

The paper's qualitative claims about LMS, which this package lets the
``lms.*`` rows of ``cesrm verify-paper`` check head-to-head:

* localization — like router-assisted CESRM, repairs reach only the loss
  subtree (similar exposure);
* fragility — replier state lives **in the routers**; when a designated
  replier leaves or crashes, recovery through that router stalls until the
  state is repaired, whereas CESRM keeps recovering through SRM and adapts
  its pair selection on the fly (§3.3, §5).

Modelling note: on a static tree, LMS's hop-by-hop NACK forwarding follows
exactly the tree path from the requestor to the designated replier through
their lowest common ancestor — which is the turning point.  The
:class:`~repro.lms.fabric.LmsFabric` therefore computes ``(turning point,
replier)`` from the router tables, and the packets ride the ordinary
unicast / unicast-then-subcast primitives, crossing the same links a
per-hop implementation would.
"""

from repro.lms.fabric import LmsFabric
from repro.lms.agent import LmsAgent

__all__ = ["LmsFabric", "LmsAgent"]
