"""Packet model.

The paper distinguishes payload-carrying packets (original transmissions and
retransmissions, 1 KB) from control packets (requests and session messages,
0 KB) — §4.3.  CESRM additionally annotates requests with ``(q, d_qs)`` and
replies with ``(q, d_qs, r, d_rq)`` so receivers can cache optimal
requestor/replier pairs (§3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

#: Size of payload-carrying packets (original data and retransmissions).
PAYLOAD_BYTES = 1024
#: Size of control packets (requests, session messages) — §4.3 uses 0 KB.
CONTROL_BYTES = 0


class PacketKind(enum.Enum):
    """Wire-level packet types used by SRM and CESRM."""

    DATA = "data"          # original transmission from the source
    SESSION = "session"    # SRM session message (distance estimation, seq reports)
    RQST = "rqst"          # SRM repair request (multicast)
    REPL = "repl"          # SRM repair reply / retransmission (multicast)
    ERQST = "erqst"        # CESRM expedited request (unicast to the replier)
    EREPL = "erepl"        # CESRM expedited reply (multicast, or subcast w/ routers)
    ACK = "ack"            # RMTP status message (unicast to the designated receiver)

    # Identity hashing, in C: members are singletons compared by identity,
    # and ``Enum.__hash__`` (a Python-level ``hash(self._name_)``) would
    # run on every ``(host, kind, cast)`` send count and kind-slot lookup.
    # Neither hash is stable across processes, so nothing may depend on it.
    __hash__ = object.__hash__

    @property
    def carries_payload(self) -> bool:
        """True for packets that carry the 1 KB data payload."""
        return self in (PacketKind.DATA, PacketKind.REPL, PacketKind.EREPL)

    @property
    def is_retransmission(self) -> bool:
        """True for repair replies (the overhead category of Fig. 5b)."""
        return self in (PacketKind.REPL, PacketKind.EREPL)

    @property
    def is_recovery_control(self) -> bool:
        """True for recovery control traffic: repair requests (SRM and
        expedited) and RMTP status messages."""
        return self in (PacketKind.RQST, PacketKind.ERQST, PacketKind.ACK)


class Cast(enum.Enum):
    """How a packet is propagated over the tree."""

    MULTICAST = "multicast"  # flood the shared tree from the sender
    UNICAST = "unicast"      # unique tree path between two nodes
    SUBCAST = "subcast"      # downstream flood from a turning-point router

    __hash__ = object.__hash__  # identity, in C (see PacketKind)


@dataclass(slots=True)
class Packet:
    """A packet in flight.

    Attributes
    ----------
    kind:
        The wire-level type.
    origin:
        Node id of the host that transmitted this packet.
    source:
        The data source whose stream the packet pertains to (for DATA /
        RQST / REPL / ERQST / EREPL); equals ``origin`` for DATA.
    seqno:
        Data sequence number the packet pertains to; ``-1`` for session
        messages.
    size_bytes:
        On-the-wire size used for transmission-delay computation.
    cast:
        Propagation mode.
    requestor / requestor_dist:
        CESRM request annotation ``(q, d_qs)`` — the requestor and its
        distance estimate to the source (§3.1).  Replies copy the pair
        from the request that instigated them.
    replier / replier_dist:
        CESRM reply annotation ``(r, d_rq)`` — the replier and its distance
        estimate to the requestor.
    turning_point:
        Router-assisted CESRM (§3.3): the turning-point router a reply
        should be unicast to before being subcast downstream.
    payload:
        Opaque application body (used by session messages).
    sent_at:
        Simulated send time, stamped by the network.
    """

    kind: PacketKind
    origin: str
    source: str
    seqno: int
    size_bytes: int
    cast: Cast = Cast.MULTICAST
    requestor: str | None = None
    requestor_dist: float = 0.0
    replier: str | None = None
    replier_dist: float = 0.0
    turning_point: str | None = None
    payload: Any = None
    sent_at: float = field(default=0.0, compare=False)

    @property
    def packet_id(self) -> tuple[str, int]:
        """Identity of the data packet this packet pertains to."""
        return (self.source, self.seqno)

    def copy(self) -> "Packet":
        """A fast independent copy (slot-wise, no dataclass machinery)."""
        clone = object.__new__(Packet)
        for slot in self.__slots__:
            object.__setattr__(clone, slot, getattr(self, slot))
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet({self.kind.value} {self.cast.value} origin={self.origin} "
            f"src={self.source} seq={self.seqno})"
        )
