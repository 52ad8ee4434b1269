"""The (simplified) RMTP protocol agent.

Recovery is driven by the periodic status cycle:

* every ``status_period`` each receiver unicasts an :class:`ACK` status
  message to its status parent (its region's designated receiver, or the
  sender for DRs themselves), listing the sequence numbers it is missing
  (capped per message — the window);
* the status parent unicasts retransmissions (``REPL``) of every listed
  packet it holds, deduplicating repeats within a short hold window;
* a DR missing a packet simply lists it in its own upstream status — the
  sender repairs the DR, and the DR's next answer repairs the member.

There are no loss-triggered requests and no suppression: loss *detection*
(for latency accounting) reuses the SRM machinery, but the request timer
is never armed.  Latency is therefore bounded below by the status period,
and repairs are never duplicated — RMTP trades recovery speed for
tightly-controlled overhead, the opposite corner of the design space from
SRM's multicast storms and CESRM's cached immediacy.
"""

from __future__ import annotations

import random

from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import CONTROL_BYTES, PAYLOAD_BYTES, Packet, PacketKind
from repro.rmtp.fabric import RmtpFabric
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer
from repro.srm.agent import SrmAgent
from repro.srm.constants import SrmParams
from repro.srm.state import ReplyState


class RmtpAgent(SrmAgent):
    """An RMTP endpoint: periodic status to a designated receiver."""

    protocol_name = "rmtp"

    #: Maximum missing sequence numbers listed per status message.
    STATUS_WINDOW = 64

    __slots__ = ("fabric", "status_period", "statuses_sent", "repairs_sent", "_status_timer")

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_id: str,
        source: str,
        params: SrmParams,
        rng: random.Random,
        metrics: MetricsCollector,
        fabric: RmtpFabric,
        status_period: float = 0.2,
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
        self.status_period = status_period
        self.statuses_sent = 0
        self.repairs_sent = 0
        #: Built by the first :meth:`start`, like the session timer.
        self._status_timer: PeriodicTimer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, session_offset: float = 0.0) -> None:
        super().start(session_offset)
        if self.host_id != self.primary_source:
            if self._status_timer is None:
                self._status_timer = PeriodicTimer(
                    self.sim, self.status_period, self._send_status
                )
            # stagger statuses the same way sessions are staggered
            self._status_timer.start(first_delay=session_offset + self.status_period)

    def stop(self) -> None:
        if self._status_timer is not None:
            self._status_timer.stop()
        super().stop()

    def fail(self) -> None:
        if self._status_timer is not None:
            self._status_timer.stop()
        super().fail()

    def restart(self) -> None:
        was_failed = self.failed
        super().restart()
        if was_failed and self._status_timer is not None:
            self._status_timer.start()

    # ------------------------------------------------------------------
    # Loss detection without request scheduling
    # ------------------------------------------------------------------
    def _detect_loss(self, seq, initial_backoff=0, src=None):
        src = src or self.primary_source
        super()._detect_loss(seq, initial_backoff, src)
        state = self.source_state(src).request_states.get(seq)
        if state is not None:
            state.timer.cancel()  # recovery rides the status cycle instead

    # ------------------------------------------------------------------
    # Status cycle
    # ------------------------------------------------------------------
    def _send_status(self) -> None:
        parent = self.fabric.status_parent(self.host_id)
        if parent == self.host_id:
            return
        for src in self.known_sources():
            if src == self.host_id:
                continue
            state = self.source_state(src)
            missing = sorted(state.request_states)[: self.STATUS_WINDOW]
            if not missing:
                continue
            packet = Packet(
                kind=PacketKind.ACK,
                origin=self.host_id,
                source=src,
                seqno=missing[0],
                size_bytes=CONTROL_BYTES,
                requestor=self.host_id,
                requestor_dist=self._distance_to(src),
                payload={"missing": missing, "max": state.stream.max_seq},
            )
            self.metrics.on_send(self.host_id, packet)
            self.statuses_sent += 1
            self.net.unicast(parent, packet)

    def receive(self, packet: Packet) -> None:
        if not self.failed and packet.kind is PacketKind.ACK:
            self._on_status(packet)
            return
        super().receive(packet)

    def _on_status(self, packet: Packet) -> None:
        src = packet.source
        member = packet.requestor or packet.origin
        state = self.source_state(src)
        payload = packet.payload or {}
        self._advance_stream(src, payload.get("max", -1))
        for seq in payload.get("missing", ()):
            if not state.stream.has(seq):
                # we share the loss: our own next status will fetch it
                if (
                    src != self.host_id
                    and seq not in state.request_states
                ):
                    self._detect_loss(seq, src=src)
                continue
            reply_state = state.reply_states.get(seq)
            if reply_state is not None and reply_state.pending(self.sim.now):
                continue  # just repaired it (dedup window)
            repair = Packet(
                kind=PacketKind.REPL,
                origin=self.host_id,
                source=src,
                seqno=seq,
                size_bytes=PAYLOAD_BYTES,
                requestor=member,
                requestor_dist=packet.requestor_dist,
                replier=self.host_id,
                replier_dist=self.distances.get_or(
                    member, self.params.default_distance
                ),
            )
            self.metrics.on_send(self.host_id, repair)
            self.repairs_sent += 1
            self.net.unicast(member, repair)
            if reply_state is None:
                reply_state = ReplyState()
                state.reply_states[seq] = reply_state
            reply_state.replies_sent += 1
            # hold briefly: repeated statuses inside one round trip to the
            # member do not earn duplicate repairs
            reply_state.hold_until = self.sim.now + 2.0 * self.distances.get_or(
                member, self.params.default_distance
            )

    # ------------------------------------------------------------------
    # RMTP never multicasts requests; foreign RQSTs cannot occur.
    # ------------------------------------------------------------------
    def _on_request(self, packet: Packet) -> None:  # pragma: no cover
        raise AssertionError("RMTP never produces multicast repair requests")
