"""The LMS protocol agent.

LMS replaces SRM's suppression-based recovery entirely: on detecting a
loss, a receiver immediately sends a NACK which the router fabric steers
to the designated replier; the replier unicasts the repair to the turning
point, which subcasts it downstream.  There are no multicast requests, no
random suppression timers — and no SRM fall-back, which is exactly the
robustness difference §3.3/§5 call out.

Reuses from :class:`~repro.srm.agent.SrmAgent`: session messages and
distance estimation, gap/session loss detection, per-source stream state,
and the reply-abstinence bookkeeping (approximating router NACK
deduplication).  Replaces: request scheduling (immediate NACK with
exponential retry) and reply transmission (turning-point subcast).

Wire format: NACKs ride :class:`ERQST` packets (unicast control) and
repairs ride :class:`EREPL` packets (subcast payload), so the §4.4
overhead accounting applies to LMS unchanged.
"""

from __future__ import annotations

import random

from repro.lms.fabric import LmsFabric
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import CONTROL_BYTES, PAYLOAD_BYTES, Packet, PacketKind
from repro.sim.engine import Simulator
from repro.srm.agent import SrmAgent
from repro.srm.constants import SrmParams
from repro.srm.state import ReplyState


class LmsAgent(SrmAgent):
    """An LMS endpoint: NACK-to-designated-replier recovery."""

    protocol_name = "lms"

    #: A shared-loss NACK is forwarded upstream at most this many times
    #: before being dropped (the requestor's retry covers the rest).
    MAX_FORWARDS = 3

    __slots__ = ("fabric", "nack_delay", "nacks_sent", "repairs_sent", "nacks_forwarded")

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_id: str,
        source: str,
        params: SrmParams,
        rng: random.Random,
        metrics: MetricsCollector,
        fabric: LmsFabric,
        nack_delay: float = 0.0,
        session_period: float = 1.0,
        detect_on_request: bool = True,
    ) -> None:
        super().__init__(
            sim=sim,
            network=network,
            host_id=host_id,
            source=source,
            params=params,
            rng=rng,
            metrics=metrics,
            session_period=session_period,
            detect_on_request=detect_on_request,
        )
        self.fabric = fabric
        self.nack_delay = nack_delay
        self.nacks_sent = 0
        self.repairs_sent = 0
        self.nacks_forwarded = 0

    # ------------------------------------------------------------------
    # Loss detection -> immediate NACK with exponential retry
    # ------------------------------------------------------------------
    def _detect_loss(self, seq, initial_backoff=0, src=None):
        src = src or self.primary_source
        super()._detect_loss(seq, initial_backoff, src)
        state = self.source_state(src).request_states.get(seq)
        if state is not None and state.timer.armed:
            state.timer.start(self.nack_delay)

    def _request_timer_fired(self, src: str, seq: int) -> None:
        state = self.source_state(src).request_states.get(seq)
        if state is None:  # pragma: no cover - timers cancelled on removal
            return
        turning_point, replier = self.fabric.route_request(self.host_id)
        self._send_nack(src, seq, turning_point, replier, forwards=0)
        state.requests_sent += 1
        self.nacks_sent += 1
        # Retry with exponential back-off until the repair arrives: the
        # base interval covers a NACK + repair round trip to the replier.
        state.backoff += 1
        base = max(2.0 * self._distance_to(replier), 4.0 * self.net.propagation_delay)
        scale = 2.0 ** min(state.backoff, self.params.max_backoff)
        state.timer.start(scale * base)

    def _send_nack(
        self, src: str, seq: int, turning_point: str, replier: str, forwards: int
    ) -> None:
        if replier == self.host_id:
            return  # degenerate routing; rely on the retry
        packet = Packet(
            kind=PacketKind.ERQST,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=CONTROL_BYTES,
            requestor=self.host_id,
            requestor_dist=self._distance_to(src),
            replier=replier,
            turning_point=turning_point,
            payload={"forwards": forwards},
        )
        self.metrics.on_send(self.host_id, packet)
        self.net.unicast(replier, packet)

    # ------------------------------------------------------------------
    # NACK arrival -> subcast repair (or forward upstream)
    # ------------------------------------------------------------------
    def _on_expedited_request(self, packet: Packet) -> None:
        src = packet.source
        seq = packet.seqno
        state = self.source_state(src)
        self._advance_stream(src, seq - 1)
        if state.stream.has(seq):
            reply_state = state.reply_states.get(seq)
            if reply_state is not None and reply_state.pending(self.sim.now):
                return  # just repaired this packet (NACK dedup window)
            self._send_repair(packet)
            return
        # The designated replier shares the loss: forward the NACK
        # upstream from the turning point, as the router fabric would.
        forwards = (packet.payload or {}).get("forwards", 0)
        if forwards >= self.MAX_FORWARDS:
            return  # give up; the requestor's retry takes over
        origin_point = packet.turning_point or self.host_id
        turning_point, replier = self.fabric.route_request(self.host_id)
        if replier == self.host_id:
            return
        self.nacks_forwarded += 1
        forwarded = Packet(
            kind=PacketKind.ERQST,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=CONTROL_BYTES,
            requestor=packet.requestor,
            requestor_dist=packet.requestor_dist,
            replier=replier,
            # keep the ORIGINAL turning point: the repair must cover the
            # requestor's loss subtree, not ours
            turning_point=origin_point,
            payload={"forwards": forwards + 1},
        )
        self.metrics.on_send(self.host_id, forwarded)
        self.net.unicast(replier, forwarded)
        # the shared loss is (or will be) under our own recovery too
        if seq not in state.request_states and src != self.host_id:
            self._detect_loss(seq, src=src)

    def _send_repair(self, request: Packet) -> None:
        src = request.source
        seq = request.seqno
        state = self.source_state(src)
        turning_point = request.turning_point or self.host_id
        repair = Packet(
            kind=PacketKind.EREPL,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=PAYLOAD_BYTES,
            requestor=request.requestor or request.origin,
            requestor_dist=request.requestor_dist,
            replier=self.host_id,
            replier_dist=self.distances.get_or(
                request.requestor or request.origin, self.params.default_distance
            ),
        )
        self.metrics.on_send(self.host_id, repair)
        self.repairs_sent += 1
        if self.net.tree.has_node(turning_point) and turning_point != self.host_id:
            self.net.unicast_then_subcast(turning_point, repair)
        else:
            self.net.unicast_then_subcast(
                self.net.tree.lca(self.host_id, repair.requestor or self.host_id),
                repair,
            )
        reply_state = state.reply_states.get(seq)
        if reply_state is None:
            reply_state = ReplyState()
            state.reply_states[seq] = reply_state
        reply_state.replies_sent += 1
        reply_state.hold_until = self.sim.now + self.params.reply_abstinence(
            self.net.propagation_delay * 2
        )

    # ------------------------------------------------------------------
    # LMS never multicasts SRM requests; foreign RQSTs cannot occur.
    # ------------------------------------------------------------------
    def _on_request(self, packet: Packet) -> None:  # pragma: no cover
        raise AssertionError("LMS never produces multicast repair requests")
