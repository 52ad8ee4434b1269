"""The CESRM protocol agent (§3).

:class:`CesrmAgent` extends :class:`repro.srm.agent.SrmAgent` — SRM's whole
recovery scheme keeps running — and adds the caching-based expedited
recovery scheme:

* every repair reply for a packet this host lost updates the **per-source**
  optimal requestor/replier cache (§3.1: "each host maintains a collection
  of per-source requestor/replier caches, one for each source");
* on detecting a loss, the selection policy proposes an expeditious pair
  ``⟨q, r⟩`` from the lost packet's source's cache; if this host *is* ``q``,
  it schedules an expedited request ``REORDER-DELAY`` in the future
  (cancelled if the packet shows up meanwhile) and then unicasts it
  straight to ``r`` (§3.2);
* a host receiving an expedited request immediately multicasts an
  expedited reply, provided it has the packet and no reply for it is
  scheduled or pending (§3.2);
* expedited replies travel the multicast tree like ordinary replies, so
  they repair co-losers and suppress SRM's scheduled requests/replies —
  and when the expedited path fails (replier shares the loss), SRM's
  scheme is already running as the fall-back.

An idle host pays for none of it: the selection policy is instantiated at
the host's first cache lookup, and the three per-host maps (``caches``,
pending and in-flight expedited requests) are created by their first
write — until then a read answers "empty".
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Callable, Mapping

from repro.core.cachelab import (
    CachePolicy,
    CompiledCachePolicy,
    RecoveryPairCache,
    RecoveryTuple,
)
from repro.core.policies import SELECTION_POLICIES, SelectionPolicy
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import CONTROL_BYTES, PAYLOAD_BYTES, Packet, PacketKind
from repro.obs.events import EventKind
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.srm.agent import SrmAgent, column_safe
from repro.srm.constants import SrmParams
from repro.srm.state import ReplyState, RequestState

#: What :attr:`CesrmAgent.caches` reads as before the first cache exists.
_NO_CACHES: Mapping[str, CachePolicy] = MappingProxyType({})


class CesrmAgent(SrmAgent):
    """A CESRM endpoint: SRM plus caching-based expedited recovery.

    Parameters (beyond :class:`~repro.srm.agent.SrmAgent`'s)
    ----------------------------------------------------------
    policy:
        The expeditious-pair selection policy (§3.2), or the registered
        name of one — resolved here, instantiated at the first cache
        lookup, so every host that looks one up keeps a policy object of
        its own.
    cache_capacity:
        Number of recovery tuples kept per source (§3.1); the paper's
        most-recent-loss policy needs only 1, larger caches feed the
        most-frequent-loss policy and the ablations.
    reorder_delay:
        The REORDER-DELAY guard between detecting a loss and unicasting
        the expedited request (§3.2).  The paper's simulations use 0 since
        the replayed traces are reorder-free.
    cache_policy:
        A compiled :mod:`repro.core.cachelab` policy; per-source caches
        are built from it (seeded by ``cache_seed`` + host + source).
        ``None`` — the default — means the paper's policy at
        ``cache_capacity``, byte-identical to the pre-cachelab agent.
    cache_seed:
        The run seed, forwarded to policy construction so stochastic
        policies (``prob``) draw from a dedicated deterministic stream.
    """

    protocol_name = "cesrm"

    __slots__ = (
        "_policy",
        "cache_capacity",
        "reorder_delay",
        "cache_policy",
        "cache_seed",
        "_caches",
        "_expedited",
        "_erqst_inflight",
        "evict_on_failure",
        "expedited_scheduled",
        "expedited_cancelled",
        "repliers_evicted",
        "erqst_received",
        "erqst_answered",
        "erqst_shared_loss",
        "erqst_suppressed",
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
        policy: SelectionPolicy | str,
        cache_capacity: int = 16,
        reorder_delay: float = 0.0,
        session_period: float = 1.0,
        detect_on_request: bool = True,
        cache_policy: CompiledCachePolicy | None = None,
        cache_seed: int = 0,
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
        if reorder_delay < 0:
            raise ValueError(f"reorder_delay must be >= 0, got {reorder_delay!r}")
        #: A policy instance, or the registered class until the first lookup.
        self._policy: SelectionPolicy | type[SelectionPolicy] = (
            SELECTION_POLICIES.get(policy) if isinstance(policy, str) else policy
        )
        self.cache_capacity = cache_capacity
        self.reorder_delay = reorder_delay
        self.cache_policy = cache_policy
        self.cache_seed = cache_seed
        # The three maps below are None until their first write.
        #: per-source optimal requestor/replier caches (§3.1) — any
        #: :mod:`repro.core.cachelab` policy; ``paper`` by default.
        self._caches: dict[str, CachePolicy] | None = None
        #: (source, seq) -> (timer, chosen tuple) for pending expedited requests.
        self._expedited: dict[tuple[str, int], tuple[Timer, RecoveryTuple]] | None = None
        #: (source, seq) -> chosen tuple for expedited requests already on
        #: the wire, kept until the packet is obtained so a failed attempt
        #: can be attributed to its replier.
        self._erqst_inflight: dict[tuple[str, int], RecoveryTuple] | None = None
        #: Fault injection (repro.faults): when armed, a loss that an
        #: expedited request failed to recover (SRM repaired it instead)
        #: evicts the chosen replier's tuples from the cache, forcing the
        #: pair to be relearned.  Off by default — fault-free runs never
        #: evict, preserving the paper's cache dynamics bit-for-bit.
        self.evict_on_failure = False
        self.expedited_scheduled = 0
        self.expedited_cancelled = 0
        self.repliers_evicted = 0
        # Expedited-replier diagnostics: why expedited requests to this
        # host did or did not produce an expedited reply.
        self.erqst_received = 0
        self.erqst_answered = 0
        self.erqst_shared_loss = 0
        self.erqst_suppressed = 0

    # ------------------------------------------------------------------
    # Per-source caches
    # ------------------------------------------------------------------
    @property
    def caches(self) -> Mapping[str, CachePolicy]:
        """The per-source caches created so far, by source (read-only;
        :meth:`cache_for` creates one)."""
        caches = self._caches
        return _NO_CACHES if caches is None else caches

    def cache_for(self, source: str) -> CachePolicy:
        """The recovery-tuple cache for ``source`` (created on demand)."""
        caches = self._caches
        if caches is None:
            caches = self._caches = {}
        cache = caches.get(source)
        if cache is None:
            if self.cache_policy is None:
                cache = RecoveryPairCache(self.cache_capacity)
            else:
                cache = self.cache_policy.make(
                    seed=self.cache_seed, host=self.host_id, source=source
                )
            caches[source] = cache
        return cache

    @property
    def cache(self) -> CachePolicy:
        """The primary source's cache (single-source convenience)."""
        return self.cache_for(self.primary_source)

    @property
    def policy(self) -> SelectionPolicy:
        """This host's selection policy (instantiated on first use)."""
        policy = self._policy
        if isinstance(policy, type):
            policy = self._policy = policy()
        return policy

    # ------------------------------------------------------------------
    # Hook: loss detected -> maybe act as expeditious requestor (§3.2)
    # ------------------------------------------------------------------
    def _after_loss_detected(self, src: str, seq: int, state: RequestState) -> None:
        choice = self.cache_for(src).lookup(self.policy, now=self.sim.now)
        tracer = self.sim.tracer
        if choice is None:
            if tracer is not None:
                tracer.emit(
                    self.sim.now,
                    EventKind.CACHE_MISS,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                )
            return  # no usable cache entry: SRM alone recovers this loss
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                EventKind.CACHE_HIT,
                node=self.host_id,
                source=src,
                seqno=seq,
                requestor=choice.requestor,
                replier=choice.replier,
            )
        if choice.requestor != self.host_id:
            return  # someone else is the expeditious requestor
        if choice.replier == self.host_id:
            return  # degenerate tuple; cannot ask ourselves
        timer = Timer(self.sim, self._expedited_timer_fired, src, seq)
        if self._expedited is None:
            self._expedited = {}
        self._expedited[(src, seq)] = (timer, choice)
        timer.start(self.reorder_delay)
        self.expedited_scheduled += 1
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                EventKind.ERQST_SCHEDULED,
                node=self.host_id,
                source=src,
                seqno=seq,
                replier=choice.replier,
                reorder_delay=self.reorder_delay,
            )

    def _expedited_timer_fired(self, src: str, seq: int) -> None:
        entry = self._expedited.pop((src, seq), None)
        if entry is None:  # pragma: no cover - timers cancelled on removal
            return
        _, choice = entry
        if self.source_state(src).stream.has(seq):
            return  # arrived during REORDER-DELAY (reordering guard)
        packet = Packet(
            kind=PacketKind.ERQST,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=CONTROL_BYTES,
            requestor=self.host_id,
            requestor_dist=self._distance_to(src),
            replier=choice.replier,
            turning_point=choice.turning_point,
        )
        self.metrics.on_send(self.host_id, packet)
        self.net.unicast(choice.replier, packet)
        if self._erqst_inflight is None:
            self._erqst_inflight = {}
        self._erqst_inflight[(src, seq)] = choice
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now,
                EventKind.ERQST_SENT,
                node=self.host_id,
                source=src,
                seqno=seq,
                replier=choice.replier,
            )

    # ------------------------------------------------------------------
    # Hook: expedited request arrives -> immediate expedited reply (§3.2)
    # ------------------------------------------------------------------
    def _on_expedited_request(self, packet: Packet) -> None:
        src = packet.source
        seq = packet.seqno
        self.erqst_received += 1
        state = self.source_state(src)
        self._advance_stream(src, seq - 1)
        if not state.stream.has(seq):
            # The expeditious replier shared the loss: the expedited
            # recovery fails and SRM remains the fall-back.  Hearing the
            # request still reveals the packet exists.
            self.erqst_shared_loss += 1
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    self.sim.now,
                    EventKind.ERQST_SHARED_LOSS,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                    requestor=packet.requestor or packet.origin,
                )
            if (
                src != self.host_id
                and seq not in state.request_states
                and self.detect_on_request
            ):
                self._detect_loss(seq, initial_backoff=1, src=src)
            return
        reply_state = state.reply_states.get(seq)
        if reply_state is not None and (
            reply_state.scheduled() or reply_state.pending(self.sim.now)
        ):
            self.erqst_suppressed += 1
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    self.sim.now,
                    EventKind.ERQST_SUPPRESSED,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                    requestor=packet.requestor or packet.origin,
                )
            return  # a reply is scheduled or pending — §3.2's proviso
        self.erqst_answered += 1
        requestor = packet.requestor or packet.origin
        distance = self.distances.get_or(requestor, self.params.default_distance)
        reply = Packet(
            kind=PacketKind.EREPL,
            origin=self.host_id,
            source=src,
            seqno=seq,
            size_bytes=PAYLOAD_BYTES,
            requestor=requestor,
            requestor_dist=packet.requestor_dist,
            replier=self.host_id,
            replier_dist=distance,
        )
        self.metrics.on_send(self.host_id, reply)
        self._send_expedited_reply(reply, packet)
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now,
                EventKind.EREPL_SENT,
                node=self.host_id,
                source=src,
                seqno=seq,
                requestor=requestor,
            )
        if reply_state is None:
            reply_state = ReplyState()
            state.reply_states[seq] = reply_state
        reply_state.replies_sent += 1
        reply_state.hold_until = self.sim.now + self.params.reply_abstinence(distance)

    def _send_expedited_reply(self, reply: Packet, request: Packet) -> None:
        """Transmit an expedited reply; the router-assisted variant
        overrides this to subcast from the turning point (§3.3)."""
        self.net.multicast(reply)

    # ------------------------------------------------------------------
    # Hook: replies update the cache (§3.1)
    # ------------------------------------------------------------------
    def _on_reply_observed(self, packet: Packet) -> None:
        src = packet.source
        seq = packet.seqno
        on_wire = self._erqst_inflight
        inflight = None if on_wire is None else on_wire.pop((src, seq), None)
        if (
            inflight is not None
            and self.evict_on_failure
            and packet.kind is not PacketKind.EREPL
        ):
            # We unicast an expedited request for this packet, yet plain
            # SRM repaired it: the chosen replier failed us (crashed or
            # partitioned).  Forget every pair naming it; later recoveries
            # relearn a live pair (§3 fall-back, stressed under faults).
            self._evict_failed_replier(src, seq, inflight.replier)
        if seq not in self.source_state(src).stream.ever_lost:
            return  # did not suffer this loss -> discard (§3.1)
        if packet.requestor is None or packet.replier is None:
            return  # unannotated reply (foreign/legacy); nothing to cache
        cache = self.cache_for(src)
        cache.observe(self._tuple_from_reply(packet), now=self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.emit(
                self.sim.now,
                EventKind.CACHE_UPDATE,
                node=self.host_id,
                source=src,
                seqno=seq,
                requestor=packet.requestor,
                replier=packet.replier,
            )
            # cache.insert / cache.evict (capacity) events only exist on
            # non-default cache policies: default traced runs must stay
            # byte-identical to the pre-cachelab event stream.
            if self.cache_policy is not None:
                if cache.last_outcome == "insert":
                    tracer.emit(
                        self.sim.now,
                        EventKind.CACHE_INSERT,
                        node=self.host_id,
                        source=src,
                        seqno=seq,
                        requestor=packet.requestor,
                        replier=packet.replier,
                    )
                if cache.last_evicted is not None:
                    tracer.emit(
                        self.sim.now,
                        EventKind.CACHE_EVICT,
                        node=self.host_id,
                        source=src,
                        seqno=cache.last_evicted,
                        reason="capacity",
                        evicted=1,
                    )

    def _tuple_from_reply(self, packet: Packet) -> RecoveryTuple:
        return RecoveryTuple(
            seqno=packet.seqno,
            requestor=packet.requestor,  # type: ignore[arg-type]
            requestor_to_source=packet.requestor_dist,
            replier=packet.replier,  # type: ignore[arg-type]
            replier_to_requestor=packet.replier_dist,
        )

    def _evict_failed_replier(self, src: str, seq: int, replier: str) -> None:
        evicted = self.cache_for(src).evict_replier(replier)
        if not evicted:
            return
        self.repliers_evicted += 1
        if self.sim.tracer is not None:
            self.sim.tracer.emit(
                self.sim.now,
                EventKind.CACHE_EVICT,
                node=self.host_id,
                source=src,
                seqno=seq,
                replier=replier,
                evicted=evicted,
            )

    # column_safe, here and on _on_packet_obtained: the pop each one adds
    # can only hit for a source this host has detected a loss on — and a
    # host that has is no longer counted in that source's column.
    @column_safe
    def _on_data(self, packet: Packet) -> None:
        super()._on_data(packet)
        # Data outran the expedited exchange (reordering): the attempt is
        # moot, not a replier failure — just forget it.
        on_wire = self._erqst_inflight
        if on_wire is not None:
            on_wire.pop((packet.source, packet.seqno), None)

    # ------------------------------------------------------------------
    # Hook: packet obtained -> cancel any pending expedited request
    # ------------------------------------------------------------------
    @column_safe
    def _on_packet_obtained(self, src: str, seq: int) -> None:
        pending = self._expedited
        if pending is None:
            return
        entry = pending.pop((src, seq), None)
        if entry is not None:
            entry[0].cancel()
            self.expedited_cancelled += 1
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    self.sim.now,
                    EventKind.ERQST_CANCELLED,
                    node=self.host_id,
                    source=src,
                    seqno=seq,
                    replier=entry[1].replier,
                )

    def stop(self) -> None:
        super().stop()
        if self._expedited is not None:
            for timer, _ in self._expedited.values():
                timer.cancel()
