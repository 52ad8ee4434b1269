"""The SRM protocol agent (§2).

One :class:`SrmAgent` runs at every host (senders and receivers alike —
SRM is an *any-source* protocol, and every piece of per-stream state is
kept **per source**, exactly as the paper's "collection of per-source
requestor/replier caches" prescribes for CESRM).  The agent implements:

* data transmission (any host may source a stream) and in-order gap-based
  loss detection per source;
* secondary loss detection from session-message sequence reports and —
  matching the classic ns-2 implementation — from repair requests seen for
  packets the host does not have;
* request scheduling with deterministic + probabilistic suppression,
  exponential back-off, and the back-off abstinence period (§2.1);
* reply scheduling with suppression and the reply abstinence period (§2.2);
* periodic session-message exchange and distance estimation.

Subclass hooks (all no-ops here) let CESRM attach its expedited recovery
scheme without duplicating any of the SRM machinery:
``_after_loss_detected``, ``_on_reply_observed``, ``_on_packet_obtained``,
and ``_on_expedited_request``.

Pay per use: losses are rare and local, so most hosts spend a run doing
nothing but taking the next in-order packet, and an agent builds nothing
it has not been asked for.  The agent itself is a slotted record (every
stock agent class declares ``__slots__``; see docs/protocols.md for
subclasses).  Its random stream is resolved on the first draw (``rng``
may be a factory shared by all hosts; see :class:`_DeferredStream`), its
session timer by the first :meth:`SrmAgent.start`.  Its per-source state is created by
:meth:`SrmAgent.adopt` alone, the first time something other than the
next in-order DATA packet concerns that source; until then, under the
vector kernel, the host is a row of the network's reception columns
(:mod:`repro.net.columns`) and ``receive`` is not even called for the
packets it takes.  Methods marked :func:`column_safe` are the ones that
arrangement skips; ``stop``, ``unrecovered_losses`` and
``rtt_to_source`` answer for an untouched host without creating
anything, while ``stream`` / ``source_state`` / ``known_sources`` (and
so the invariant monitor) materialise what they read.

Single-source convenience: the ``source`` constructor argument names the
*primary* source (the root sender in the paper's trace replays); the
``stream`` / ``request_states`` / ``reply_states`` properties expose that
source's state directly, and per-source variants take an explicit source
id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import CONTROL_BYTES, PAYLOAD_BYTES, Packet, PacketKind
from repro.obs.events import EventKind
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.srm.constants import SrmParams
from repro.srm.session import DistanceEstimator, SessionReport
from repro.srm.state import ReplyState, RequestState, SeqSet, StreamState, insert

# Members bound once at import: :meth:`SrmAgent.receive` compares by
# identity against these on every delivery, and a module global is
# cheaper than an enum attribute lookup (or the ``is_retransmission``
# property, which is a Python-level call) on that path.
_DATA = PacketKind.DATA
_SESSION = PacketKind.SESSION
_RQST = PacketKind.RQST
_ERQST = PacketKind.ERQST
_REPL = PacketKind.REPL
_EREPL = PacketKind.EREPL


@dataclass(slots=True)
class SourceState:
    """Everything a host tracks about one source's stream."""

    stream: StreamState = field(default_factory=StreamState)
    request_states: dict[int, RequestState] = field(default_factory=dict)
    reply_states: dict[int, ReplyState] = field(default_factory=dict)


class _DeferredStream:
    """Stands in for an agent's ``rng`` until the first draw: resolving
    any attribute (``uniform``, ``random``...) asks the run's shared
    stream factory for this host's stream, installs it as ``agent.rng``
    and is never consulted again.

    Deliberately not a ``cached_property`` (or an agent ``__getattr__``):
    the first needs an instance ``__dict__``, which a slotted agent does
    not have, and the second disables attribute specialisation for the
    class, slowing every ``self.x`` in the agent's hot methods.  A plain
    store to a slot does neither.
    """

    __slots__ = ("_agent", "_factory")

    def __init__(self, agent: "SrmAgent", factory: Callable[[str], random.Random]):
        self._agent = agent
        self._factory = factory

    def __getattr__(self, name: str):
        agent = self._agent
        rng = agent.rng = self._factory(agent.host_id)
        return getattr(rng, name)


def column_safe(method):
    """Mark a DATA-path method as provably inert for the next in-order
    packet at a host holding no state for the packet's source: it makes
    no metrics call, draws no randomness, arms no timer and touches no
    state but that source's reception count.  The mark sits on the
    function, so a subclass that overrides the method loses it without
    declaring anything."""
    method.column_safe = True
    return method


class SrmAgent:
    """An SRM endpoint attached at one host of the multicast tree.

    Parameters
    ----------
    sim, network:
        The simulation engine and the network this host is attached to.
    host_id:
        This host's node id in the tree.
    source:
        The primary transmission source (used for the single-source
        convenience accessors and RTT normalization).
    params:
        SRM scheduling constants.
    rng:
        The random stream used for all timer jitter at this host — or a
        callable taking the host id and returning it, called on the first
        draw (a host draws only when it schedules a request or reply
        timer; most never do), so one factory serves every host of a run.
    metrics:
        Shared per-run metrics collector.
    session_period:
        Session message period in seconds (paper: 1 s).
    detect_on_request:
        When True (default, matching ns-2 SRM), seeing a repair request for
        a packet this host does not have counts as detecting the loss; the
        fresh request is scheduled already backed off (suppressed by the
        request just heard).
    """

    protocol_name = "srm"

    __slots__ = (
        "sim",
        "net",
        "host_id",
        "primary_source",
        "params",
        "rng",
        "metrics",
        "session_period",
        "detect_on_request",
        "is_source",
        "failed",
        "session_muted",
        "sessions_suppressed",
        "distances",
        "_sources",
        "_session_timer",
    )

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host_id: str,
        source: str,
        params: SrmParams,
        rng: random.Random | Callable[[str], random.Random],
        metrics: MetricsCollector,
        session_period: float = 1.0,
        detect_on_request: bool = True,
    ) -> None:
        self.sim = sim
        self.net = network
        self.host_id = host_id
        self.primary_source = source
        self.params = params
        self.rng = rng if isinstance(rng, random.Random) else _DeferredStream(self, rng)
        self.metrics = metrics
        self.session_period = session_period
        self.detect_on_request = detect_on_request

        self.is_source = host_id == source
        self.failed = False
        #: Fault injection (repro.faults): while True, periodic session
        #: reports are swallowed before they reach the wire.
        self.session_muted = False
        self.sessions_suppressed = 0
        self.distances = DistanceEstimator(host_id, network.tree.index.ids[host_id])
        self._sources: dict[str, SourceState] = {}
        #: Built by the first :meth:`start`; a primed run never makes one.
        self._session_timer: PeriodicTimer | None = None

        # On the reception columns (repro.net.columns) iff everything
        # in-order DATA runs through is the marked stock code.
        network.attach(
            host_id,
            self,
            plain=getattr(self.receive, "column_safe", False)
            and getattr(self._on_data, "column_safe", False)
            and getattr(self._on_packet_obtained, "column_safe", False),
        )

    # ------------------------------------------------------------------
    # Per-source state
    # ------------------------------------------------------------------
    def source_state(self, source: str) -> SourceState:
        """This host's state for ``source``'s stream (created on demand)."""
        state = self._sources.get(source)
        if state is None:
            state = self._materialise(source)
        return state

    def known_sources(self) -> list[str]:
        """Sources this host has seen traffic (or reports) for."""
        self.adopt(self.net.hand_over(self, None))
        return list(self._sources)

    def _materialise(self, src: str) -> SourceState:
        """First news of ``src`` beyond its next in-order packet: leave
        the reception columns for it and hold its state here for good."""
        self.adopt(self.net.hand_over(self, src))
        return self._sources[src]

    def adopt(self, handed: tuple[tuple[str, int], ...]) -> None:
        """Create this host's state for each ``(source, n)`` handed over
        by the network: the host has received exactly packets ``0..n-1``
        of that source (what the reception column counted; nothing for a
        source it is hearing of for the first time).  The one place a
        :class:`SourceState` is made — insertion order is the order in
        which the host first touched the sources, which session reports
        expose (see :mod:`repro.net.columns`)."""
        sources = self._sources
        for src, count in handed:
            state = sources[src] = SourceState()
            if count:
                state.stream.max_seq = count - 1
                state.stream.received = SeqSet.prefix(count)

    # -- single-source convenience accessors ---------------------------
    @property
    def stream(self) -> StreamState:
        """The primary source's reception state."""
        return self.source_state(self.primary_source).stream

    @property
    def request_states(self) -> dict[int, RequestState]:
        """The primary source's per-packet request states."""
        return self.source_state(self.primary_source).request_states

    @property
    def reply_states(self) -> dict[int, ReplyState]:
        """The primary source's per-packet reply states."""
        return self.source_state(self.primary_source).reply_states

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, session_offset: float = 0.0) -> None:
        """Begin session-message exchange; first message at ``offset``."""
        timer = self._session_timer
        if timer is None:
            timer = self._session_timer = PeriodicTimer(
                self.sim, self.session_period, self._send_session
            )
        timer.start(first_delay=session_offset)

    @property
    def session_running(self) -> bool:
        """Whether this host's session exchange is ticking (False for a
        host that never started one, e.g. every host of a primed run)."""
        timer = self._session_timer
        return timer is not None and timer.running

    def fail(self) -> None:
        """Crash this host: it stops sending, replying, and recovering.

        Models the membership churn of §3.3/§5 — a crashed member neither
        answers (expedited) requests nor continues its own recoveries.
        Packets delivered to a failed host are silently dropped.
        """
        self.failed = True
        self.net.withdraw(self)  # no DATA reaches a failed host by column
        self.stop()

    def restart(self) -> None:
        """Recover from :meth:`fail`: the host rejoins the group with its
        pre-crash reception state (a warm process restart) and resumes
        session exchange — if it had one: a host that never started
        exchanging (a primed run's) does not start now.  Pending recoveries
        were abandoned by the crash; later traffic or session reports
        re-detect anything still missing.
        """
        if not self.failed:
            return
        self.failed = False
        if self._session_timer is not None:
            self._session_timer.start()

    def stop(self) -> None:
        """Stop periodic activity (end of run)."""
        if self._session_timer is not None:
            self._session_timer.stop()
        for state in self._sources.values():
            for request in state.request_states.values():
                request.timer.cancel()
            for reply in state.reply_states.values():
                if reply.timer is not None:
                    reply.timer.cancel()

    def unrecovered_losses(self, source: str | None = None) -> list[int]:
        """Packets still under recovery (detected but never repaired)."""
        state = self._sources.get(source or self.primary_source)
        # A host still on the reception column has detected no loss.
        return sorted(state.request_states) if state is not None else []

    # ------------------------------------------------------------------
    # Sending data (any host may source its own stream)
    # ------------------------------------------------------------------
    def send_data(self, seqno: int) -> None:
        """Multicast an original data packet of this host's own stream."""
        if self.failed:
            return
        state = self.source_state(self.host_id)
        state.stream.received.add(seqno)
        state.stream.max_seq = max(state.stream.max_seq, seqno)
        packet = Packet(
            kind=PacketKind.DATA,
            origin=self.host_id,
            source=self.host_id,
            seqno=seqno,
            size_bytes=PAYLOAD_BYTES,
        )
        self.metrics.on_send(self.host_id, packet)
        self.net.multicast(packet)

    # ------------------------------------------------------------------
    # Packet dispatch
    # ------------------------------------------------------------------
    @column_safe
    def receive(self, packet: Packet) -> None:
        if self.failed:
            return
        kind = packet.kind
        if kind is _DATA:
            self._on_data(packet)
        elif kind is _SESSION:
            report: SessionReport = packet.payload
            now = self.sim._now
            # Inline of DistanceEstimator.on_session: with 160 members this
            # branch is 94 % of a run's deliveries and nothing else.
            distances = self.distances
            heard = distances._heard
            if heard is None:
                heard = distances._heard = ([], [])
            sent_at, received_at = heard
            row = report.row
            try:
                sent_at[row] = report.sent_at
            except IndexError:
                grow = (-1.0,) * (row + 1 - len(sent_at))
                sent_at.extend(grow)
                received_at.extend(grow)
                sent_at[row] = report.sent_at
            received_at[row] = now
            me = distances._row
            try:
                t1 = report.echo_sent_at[me]
            except IndexError:
                t1 = -1.0
            if t1 >= 0:
                rtt = (now - t1) - (report.sent_at - report.echo_received_at[me])
                if rtt >= 0:
                    distances._estimates[report.sender] = rtt / 2.0
                    distances.updates += 1
            # Secondary loss detection: the sender's highest seqno per source.
            host_id = self.host_id
            sources = self._sources
            for src, reported in report.max_seqs.items():
                if src == host_id:
                    continue
                state = sources.get(src)
                if state is None:
                    state = self._materialise(src)
                if reported > state.stream.max_seq:
                    self._advance_stream(src, reported)
        elif kind is _RQST:
            self._on_request(packet)
        elif kind is _ERQST:
            self._on_expedited_request(packet)
        elif kind is _REPL or kind is _EREPL:
            self._on_reply(packet)
        else:  # pragma: no cover - exhaustive over PacketKind
            raise ValueError(f"unhandled packet kind {kind!r}")

    # ------------------------------------------------------------------
    # Data path and loss detection
    # ------------------------------------------------------------------
    @column_safe
    def _on_data(self, packet: Packet) -> None:
        src = packet.source
        seq = packet.seqno
        # Inline of source_state / StreamState.has / max(): this handler
        # runs once per delivered data packet at every host.
        state = self._sources.get(src)
        if state is None:
            state = self._materialise(src)
        stream = state.stream
        if seq in stream.received:
            stream.duplicates += 1
            return
        if seq - 1 > stream.max_seq:
            # Guarded call: _advance_stream is a no-op otherwise (the
            # common in-order case), and the check is one comparison.
            self._advance_stream(src, seq - 1)
        insert(stream.received, seq)  # set.add: no Python-level call
        if seq > stream.max_seq:
            stream.max_seq = seq
        request = state.request_states.pop(seq, None)
        if request is not None:
            # The packet was presumed lost but showed up on the data path
            # (possible only with reordering); treat as a zero-cost repair.
            request.timer.cancel()
            self.metrics.on_late_arrival(self.host_id, seq)
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    self.sim.now,
                    EventKind.RECOVERY_LATE_DATA,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                )
        self._on_packet_obtained(src, seq)

    def _advance_stream(self, src: str, new_max: int) -> None:
        """Learn that ``src`` has sent every packet up to ``new_max``; any
        never-received gap at or below it is a detected loss."""
        if src == self.host_id:
            return  # own stream: nothing to detect
        stream = self.source_state(src).stream
        if new_max <= stream.max_seq:
            return
        for seq in range(stream.max_seq + 1, new_max + 1):
            if not stream.has(seq):
                self._detect_loss(seq, src=src)
        stream.max_seq = new_max

    def _detect_loss(
        self, seq: int, initial_backoff: int = 0, src: str | None = None
    ) -> None:
        src = src or self.primary_source
        state = self.source_state(src)
        if seq in state.request_states or state.stream.has(seq):
            return
        now = self.sim.now
        state.stream.ever_lost.add(seq)
        distance = self._distance_to(src)
        request = RequestState(
            timer=Timer(self.sim, self._request_timer_fired, src, seq),
            detected_at=now,
            backoff=initial_backoff,
        )
        state.request_states[seq] = request
        lo, hi = self.params.request_interval(distance, request.backoff)
        request.timer.start(self.rng.uniform(lo, hi))
        if initial_backoff > 0:
            # Detected via a foreign request: that request already opened
            # the round, so observe abstinence as if suppressed by it.
            request.abstain_until = now + self.params.backoff_abstinence(
                distance, request.backoff
            )
        self.metrics.on_loss_detected(self.host_id, seq, now)
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                now,
                EventKind.LOSS_DETECTED,
                node=self.host_id,
                source=src,
                seqno=seq,
                backoff=initial_backoff,
                first_timer=request.timer.expiry,
            )
        self._after_loss_detected(src, seq, request)

    # ------------------------------------------------------------------
    # Request scheduling (§2.1)
    # ------------------------------------------------------------------
    def _request_timer_fired(self, src: str, seq: int) -> None:
        state = self.source_state(src)
        request = state.request_states.get(seq)
        if request is None:  # pragma: no cover - timers cancelled on removal
            return
        distance = self._distance_to(src)
        packet = Packet(
            kind=PacketKind.RQST,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=CONTROL_BYTES,
            requestor=self.host_id,
            requestor_dist=distance,
        )
        self.metrics.on_send(self.host_id, packet)
        self.net.multicast(packet)
        request.requests_sent += 1
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now,
                EventKind.REQUEST_SENT,
                node=self.host_id,
                source=src,
                seqno=seq,
                round=request.requests_sent,
            )
        # Schedule the next round and enter back-off abstinence.
        request.backoff += 1
        lo, hi = self.params.request_interval(distance, request.backoff)
        request.timer.start(self.rng.uniform(lo, hi))
        request.abstain_until = self.sim.now + self.params.backoff_abstinence(
            distance, request.backoff
        )

    def _on_request(self, packet: Packet) -> None:
        src = packet.source
        seq = packet.seqno
        state = self._sources.get(src)
        if state is None:
            state = self._materialise(src)
        if seq - 1 > state.stream.max_seq:
            self._advance_stream(src, seq - 1)
        if seq in state.stream.received:
            self._consider_reply(packet)
            return
        if src == self.host_id:
            return  # request for a packet of our own stream we never sent
        request = state.request_states.get(seq)
        if request is not None:
            if self.sim.now < request.abstain_until:
                return  # same recovery round — do not back off again
            distance = self._distance_to(src)
            request.backoff += 1
            lo, hi = self.params.request_interval(distance, request.backoff)
            request.timer.start(self.rng.uniform(lo, hi))
            request.abstain_until = self.sim.now + self.params.backoff_abstinence(
                distance, request.backoff
            )
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    self.sim.now,
                    EventKind.REQUEST_BACKOFF,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                    suppressed_by=packet.origin,
                    backoff=request.backoff,
                )
            return
        if self.detect_on_request:
            # First news of this packet comes from someone else's request:
            # detect the loss, already suppressed by that request.
            self._detect_loss(seq, initial_backoff=1, src=src)

    # ------------------------------------------------------------------
    # Reply scheduling (§2.2)
    # ------------------------------------------------------------------
    def _consider_reply(self, request: Packet) -> None:
        src = request.source
        seq = request.seqno
        states = self.source_state(src).reply_states
        state = states.get(seq)
        if state is not None and (state.scheduled() or state.pending(self.sim.now)):
            return  # a reply is already scheduled or pending — discard
        requestor = request.requestor or request.origin
        if requestor == self.host_id:
            return
        distance = self.distances.get_or(requestor, self.params.default_distance)
        if state is None:
            state = ReplyState()
            states[seq] = state
        state.requestor = requestor
        state.requestor_dist_to_source = request.requestor_dist
        if state.timer is None:
            state.timer = Timer(self.sim, self._reply_timer_fired, src, seq)
        lo, hi = self.params.reply_interval(distance)
        state.timer.start(self.rng.uniform(lo, hi))
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now,
                EventKind.REPLY_SCHEDULED,
                node=self.host_id,
                source=src,
                seqno=seq,
                requestor=requestor,
            )

    def _reply_timer_fired(self, src: str, seq: int) -> None:
        state = self.source_state(src).reply_states.get(seq)
        if state is None:  # pragma: no cover - timers are cancelled on removal
            return
        requestor = state.requestor or src
        distance = self.distances.get_or(requestor, self.params.default_distance)
        packet = Packet(
            kind=PacketKind.REPL,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=PAYLOAD_BYTES,
            requestor=requestor,
            requestor_dist=state.requestor_dist_to_source,
            replier=self.host_id,
            replier_dist=distance,
        )
        self.metrics.on_send(self.host_id, packet)
        self.net.multicast(packet)
        state.replies_sent += 1
        state.hold_until = self.sim.now + self.params.reply_abstinence(distance)
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now,
                EventKind.REPLY_SENT,
                node=self.host_id,
                source=src,
                seqno=seq,
                requestor=requestor,
            )

    def _on_reply(self, packet: Packet) -> None:
        src = packet.source
        seq = packet.seqno
        state = self._sources.get(src)
        if state is None:
            state = self._materialise(src)
        stream = state.stream
        if seq - 1 > stream.max_seq:
            self._advance_stream(src, seq - 1)
        sim = self.sim
        now = sim._now
        tracer = sim.tracer
        received = stream.received
        if seq not in received:
            insert(received, seq)  # set.add: no Python-level call
            if seq > stream.max_seq:
                stream.max_seq = seq
            request = state.request_states.pop(seq, None)
            if request is not None:
                request.timer.cancel()
                expedited = packet.kind is _EREPL
                self.metrics.on_recovery(
                    host=self.host_id,
                    seq=seq,
                    latency=now - request.detected_at,
                    expedited=expedited,
                    requests_sent=request.requests_sent,
                )
                if tracer is not None:
                    tracer.emit(
                        now,
                        EventKind.RECOVERY_COMPLETED,
                        node=self.host_id,
                        source=src,
                        seqno=seq,
                        expedited=expedited,
                        latency=now - request.detected_at,
                        replier=packet.replier or packet.origin,
                        requests_sent=request.requests_sent,
                    )
                    tracer.observe("recovery.latency", now - request.detected_at)
            else:
                # Repaired before the gap was even noticed.
                stream.ever_lost.add(seq)
                self.metrics.on_undetected_recovery(self.host_id, seq)
                if tracer is not None:
                    tracer.emit(
                        now,
                        EventKind.RECOVERY_UNDETECTED,
                        node=self.host_id,
                        source=src,
                        seqno=seq,
                    )
            self._on_packet_obtained(src, seq)
        else:
            self.metrics.on_duplicate_reply(self.host_id, seq)
            if tracer is not None:
                tracer.emit(
                    now,
                    EventKind.REPLY_DUPLICATE,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                    replier=packet.replier or packet.origin,
                )
        # Anyone who hears a reply observes reply abstinence (§2.2) and
        # suppresses any reply of their own.
        reply_state = state.reply_states.get(seq)
        if reply_state is None:
            reply_state = ReplyState()
            state.reply_states[seq] = reply_state
        if reply_state.timer is not None:
            if tracer is not None and reply_state.scheduled():
                tracer.emit(
                    now,
                    EventKind.REPLY_SUPPRESSED,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                    suppressed_by=packet.origin,
                )
            reply_state.timer.cancel()
        requestor = packet.requestor or packet.origin
        distance = self.distances.get_or(requestor, self.params.default_distance)
        # reply_abstinence and max() inlined (identical float-op order).
        hold = now + self.params.d3 * distance
        if hold > reply_state.hold_until:
            reply_state.hold_until = hold
        self._on_reply_observed(packet)

    # ------------------------------------------------------------------
    # Session messages (§2, §4.3)
    # ------------------------------------------------------------------
    def _send_session(self) -> None:
        if self.session_muted:
            self.sessions_suppressed += 1
            return
        now = self.sim.now
        # The report covers every source received from, in first-touch
        # order — including those so far only counted in a column.
        self.adopt(self.net.hand_over(self, None))
        max_seqs = {
            src: state.stream.max_seq
            for src, state in self._sources.items()
            if state.stream.max_seq >= 0
        }
        packet = Packet(
            kind=PacketKind.SESSION,
            origin=self.host_id,
            source=self.host_id,
            seqno=-1,
            size_bytes=CONTROL_BYTES,
            payload=self.distances.report(now, max_seqs),
        )
        self.metrics.on_send(self.host_id, packet)
        self.net.multicast(packet)

    # ------------------------------------------------------------------
    # Expedited recovery interface (CESRM overrides these)
    # ------------------------------------------------------------------
    def _on_expedited_request(self, packet: Packet) -> None:
        """Plain SRM ignores expedited requests (it never receives any)."""

    def _after_loss_detected(self, src: str, seq: int, state: RequestState) -> None:
        """Hook: called once per newly detected loss."""

    def _on_reply_observed(self, packet: Packet) -> None:
        """Hook: called for every repair reply this host receives."""

    @column_safe
    def _on_packet_obtained(self, src: str, seq: int) -> None:
        """Hook: called whenever a previously missing packet arrives."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _distance_to(self, peer: str) -> float:
        return self.distances.get_or(peer, self.params.default_distance)

    def _distance_to_source(self) -> float:
        return self._distance_to(self.primary_source)

    def rtt_to_source(self) -> float:
        """This host's RTT estimate to the primary source."""
        return 2.0 * self._distance_to_source()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.host_id!r})"
