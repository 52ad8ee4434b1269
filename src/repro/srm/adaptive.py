"""Adaptive request-timer adjustment (Floyd et al., ToN '97 §V).

The SRM papers the protocol substrate reproduces ([4, 5] in the CESRM
paper) also describe an *adaptive* variant of the random-timer algorithm:
instead of fixed C1/C2 request constants, each member steers its own
constants from two observed signals, trading duplicate suppression against
recovery delay:

* ``ave_dup`` — moving average of the number of *duplicate* requests seen
  per loss (beyond the first);
* ``ave_delay`` — moving average of the first-round request delay, in
  units of the member's distance to the source.

After each completed recovery round the constants move:

* too many duplicates (``ave_dup ≥ dup_target``) → grow both constants
  (``C1 += 0.1``, ``C2 += 0.5``): spread timers out;
* few duplicates and high delay → shrink (``C2 -= 0.5``; ``C1 -= 0.05``
  when duplicates are very rare, else ``C1 += 0.05``): respond faster.

Constants are clamped (``C1 ∈ [0.5, 2.0]``, ``C2 ∈ [1.0, 4.0]`` by
default) so the protocol never collapses into an unsuppressed request
storm nor freezes.  CESRM itself runs fixed constants (the paper's §4.3
setting); the adaptive agent is provided as the ``srm-adaptive`` protocol
for the corresponding ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.packet import Packet, PacketKind
from repro.srm.agent import SrmAgent


@dataclass(frozen=True)
class AdaptiveParams:
    """Tuning constants of the adaptive algorithm (ToN '97 defaults)."""

    dup_target: float = 1.0
    delay_target: float = 1.5
    ewma_weight: float = 0.25
    c1_step_up: float = 0.1
    c1_step_down: float = 0.05
    c2_step: float = 0.5
    c1_min: float = 0.5
    c1_max: float = 2.0
    c2_min: float = 1.0
    c2_max: float = 4.0


@dataclass
class _AdaptiveState:
    """Per-source adaptive timer state at one member."""

    c1: float
    c2: float
    ave_dup: float = 0.0
    ave_delay: float = 1.0
    #: seq -> requests seen (own + foreign) for the current recovery.
    request_counts: dict[int, int] = field(default_factory=dict)
    adjustments: int = 0


class AdaptiveSrmAgent(SrmAgent):
    """SRM with the ToN '97 adaptive request-timer adjustment."""

    protocol_name = "srm-adaptive"

    __slots__ = ("adaptive", "_adaptive_states")

    def __init__(self, *args, adaptive: AdaptiveParams | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.adaptive = adaptive or AdaptiveParams()
        self._adaptive_states: dict[str, _AdaptiveState] = {}

    # ------------------------------------------------------------------
    # Adaptive constants
    # ------------------------------------------------------------------
    def adaptive_state(self, src: str) -> _AdaptiveState:
        state = self._adaptive_states.get(src)
        if state is None:
            state = _AdaptiveState(c1=self.params.c1, c2=self.params.c2)
            self._adaptive_states[src] = state
        return state

    def request_constants(self, src: str) -> tuple[float, float]:
        """The member's current (C1, C2) for ``src``'s stream."""
        state = self.adaptive_state(src)
        return state.c1, state.c2

    def _request_interval(self, src: str, backoff: int) -> tuple[float, float]:
        distance = self._distance_to(src)
        c1, c2 = self.request_constants(src)
        scale = 2.0 ** min(backoff, self.params.max_backoff)
        return (scale * c1 * distance, scale * (c1 + c2) * distance)

    # ------------------------------------------------------------------
    # Signal collection
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if not self.failed and packet.kind is PacketKind.RQST:
            self._count_request(packet.source, packet.seqno)
        super().receive(packet)

    def _count_request(self, src: str, seq: int) -> None:
        counts = self.adaptive_state(src).request_counts
        counts[seq] = counts.get(seq, 0) + 1

    def _request_timer_fired(self, src: str, seq: int) -> None:
        state = self.source_state(src).request_states.get(seq)
        first_round = state is not None and state.backoff == 0
        if first_round and state is not None:
            distance = max(self._distance_to(src), 1e-9)
            delay_ratio = (self.sim.now - state.detected_at) / distance
            adaptive = self.adaptive_state(src)
            w = self.adaptive.ewma_weight
            adaptive.ave_delay = (1 - w) * adaptive.ave_delay + w * delay_ratio
        self._count_request(src, seq)
        super()._request_timer_fired(src, seq)
        # Re-draw the (already scheduled) next round from the adaptive
        # interval rather than the fixed one.
        if state is not None and state.timer.armed:
            lo, hi = self._request_interval(src, state.backoff)
            state.timer.start(self.rng.uniform(lo, hi))

    def _detect_loss(self, seq, initial_backoff=0, src=None):
        src = src or self.primary_source
        super()._detect_loss(seq, initial_backoff, src)
        # Re-draw the initial request timer from the adaptive interval.
        state = self.source_state(src).request_states.get(seq)
        if state is not None and state.timer.armed:
            lo, hi = self._request_interval(src, state.backoff)
            state.timer.start(self.rng.uniform(lo, hi))

    # ------------------------------------------------------------------
    # Adjustment on recovery completion
    # ------------------------------------------------------------------
    def _on_packet_obtained(self, src: str, seq: int) -> None:
        super()._on_packet_obtained(src, seq)
        adaptive = self.adaptive_state(src)
        requests = adaptive.request_counts.pop(seq, None)
        if requests is None:
            return  # no request round observed for this packet
        duplicates = max(requests - 1, 0)
        w = self.adaptive.ewma_weight
        adaptive.ave_dup = (1 - w) * adaptive.ave_dup + w * duplicates
        self._adjust(adaptive)

    def _adjust(self, state: _AdaptiveState) -> None:
        p = self.adaptive
        if state.ave_dup >= p.dup_target:
            state.c1 += p.c1_step_up
            state.c2 += p.c2_step
        elif state.ave_delay > p.delay_target:
            state.c2 -= p.c2_step
            if state.ave_dup < 0.25:
                state.c1 -= p.c1_step_down
            else:
                state.c1 += p.c1_step_down
        else:
            return
        state.c1 = min(max(state.c1, p.c1_min), p.c1_max)
        state.c2 = min(max(state.c2, p.c2_min), p.c2_max)
        state.adjustments += 1
