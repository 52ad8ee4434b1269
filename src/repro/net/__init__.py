"""Network substrate: multicast tree, links, and packet delivery.

The paper's simulations run over a *static IP multicast tree*: the source at
the root, routers inside, receivers at the leaves (§4.1).  This subpackage
models exactly that world:

* :class:`~repro.net.topology.MulticastTree` — the tree, with path/LCA/
  subtree queries used by every other layer.
* :class:`~repro.net.packet.Packet` — data, session, request, reply,
  expedited-request, and expedited-reply packets with CESRM annotations.
* :class:`~repro.net.network.Network` — hop-by-hop store-and-forward
  delivery with per-link bandwidth, propagation delay, FIFO queues, the
  run's fault injector consulted on every hop (every loss is one of its
  hop rules), and link-crossing cost accounting.

Multicast floods the shared tree from the sender, unicast follows the unique
tree path, and subcast (router-assisted CESRM, §3.3) floods only the subtree
below a router.
"""

from repro.net.packet import Packet, PacketKind, Cast, PAYLOAD_BYTES, CONTROL_BYTES
from repro.net.topology import (
    MulticastTree,
    NodeKind,
    TopologyError,
    build_balanced_tree,
    build_random_tree,
)
from repro.net.link import LinkState
from repro.net.network import Network, CrossingCounter

__all__ = [
    "Packet",
    "PacketKind",
    "Cast",
    "PAYLOAD_BYTES",
    "CONTROL_BYTES",
    "MulticastTree",
    "NodeKind",
    "TopologyError",
    "build_balanced_tree",
    "build_random_tree",
    "LinkState",
    "Network",
    "CrossingCounter",
]
