"""The safety invariants of the SRM/CESRM agent state machines.

Each invariant is a pure predicate over one agent's state (plus the
simulation clock), derived from the protocol text:

* **request-iff-missing** — a request state exists only for packets the
  host has not received (§2.1: requests recover *missing* packets; the
  state is deleted the instant the packet arrives);
* **received-within-max** — a host's ``max_seq`` is the maximum of its
  received set and reported gaps (stream bookkeeping consistency);
* **ever-lost-superset** — every packet under active recovery was marked
  as lost at detection time;
* **no-scheduled-reply-for-missing** — a host never schedules a repair
  reply for a packet it cannot retransmit (§2.2: only hosts that sent or
  received ``p`` reply);
* **backoff-nonnegative-monotone-interval** — back-off counts stay within
  the configured cap;
* **cache-packets-were-lost** (CESRM) — every cached recovery tuple
  describes a packet this host actually lost (§3.1's first update rule);
* **cache-capacity** (CESRM) — per-source caches never exceed capacity;
* **expedited-iff-missing** (CESRM) — a pending expedited request exists
  only for packets still missing and under recovery;
* **failed-is-silent** — a crashed host keeps no armed timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.agent import CesrmAgent
from repro.srm.agent import SrmAgent


@dataclass(frozen=True)
class Invariant:
    """A named predicate over one agent's state."""

    name: str
    check: Callable[[SrmAgent, float], str | None]
    """Returns None when the invariant holds, else a violation message."""


def _request_iff_missing(agent: SrmAgent, now: float) -> str | None:
    for src in agent.known_sources():
        state = agent.source_state(src)
        for seq in state.request_states:
            if state.stream.has(seq):
                return (
                    f"{agent.host_id}: request state for received packet "
                    f"{src}:{seq}"
                )
    return None


def _received_within_max(agent: SrmAgent, now: float) -> str | None:
    for src in agent.known_sources():
        stream = agent.source_state(src).stream
        if stream.received and max(stream.received) > stream.max_seq:
            return (
                f"{agent.host_id}: received beyond max_seq for {src} "
                f"({max(stream.received)} > {stream.max_seq})"
            )
    return None


def _ever_lost_superset(agent: SrmAgent, now: float) -> str | None:
    for src in agent.known_sources():
        state = agent.source_state(src)
        missing = set(state.request_states) - state.stream.ever_lost
        if missing:
            return (
                f"{agent.host_id}: recovery without loss record for "
                f"{src}:{sorted(missing)[:3]}"
            )
    return None


def _no_scheduled_reply_for_missing(agent: SrmAgent, now: float) -> str | None:
    for src in agent.known_sources():
        state = agent.source_state(src)
        for seq, reply in state.reply_states.items():
            if reply.scheduled() and not state.stream.has(seq):
                return (
                    f"{agent.host_id}: reply scheduled for missing packet "
                    f"{src}:{seq}"
                )
    return None


def _backoff_within_cap(agent: SrmAgent, now: float) -> str | None:
    for src in agent.known_sources():
        for seq, request in agent.source_state(src).request_states.items():
            if request.backoff < 0:
                return f"{agent.host_id}: negative backoff at {src}:{seq}"
    return None


def _cache_packets_were_lost(agent: SrmAgent, now: float) -> str | None:
    if not isinstance(agent, CesrmAgent):
        return None
    for src, cache in agent.caches.items():
        stream = agent.source_state(src).stream
        for entry in cache.entries():
            if entry.seqno not in stream.ever_lost:
                return (
                    f"{agent.host_id}: cached tuple for never-lost packet "
                    f"{src}:{entry.seqno}"
                )
    return None


def _cache_capacity(agent: SrmAgent, now: float) -> str | None:
    if not isinstance(agent, CesrmAgent):
        return None
    for src, cache in agent.caches.items():
        if len(cache) > cache.capacity:
            return f"{agent.host_id}: cache over capacity for {src}"
    return None


def _expedited_iff_missing(agent: SrmAgent, now: float) -> str | None:
    if not isinstance(agent, CesrmAgent):
        return None
    for (src, seq), (timer, _) in (agent._expedited or {}).items():
        if not timer.armed:
            continue
        state = agent.source_state(src)
        if state.stream.has(seq):
            return (
                f"{agent.host_id}: expedited request pending for received "
                f"packet {src}:{seq}"
            )
    return None


def _failed_is_silent(agent: SrmAgent, now: float) -> str | None:
    if not agent.failed:
        return None
    if agent.session_running:
        return f"{agent.host_id}: failed host with running session timer"
    for src in agent.known_sources():
        state = agent.source_state(src)
        for seq, request in state.request_states.items():
            if request.timer.armed:
                return f"{agent.host_id}: failed host with armed request timer"
        for seq, reply in state.reply_states.items():
            if reply.timer is not None and reply.timer.armed:
                return f"{agent.host_id}: failed host with armed reply timer"
    return None


#: Every invariant, in check order.
ALL_INVARIANTS: tuple[Invariant, ...] = (
    Invariant("request-iff-missing", _request_iff_missing),
    Invariant("received-within-max", _received_within_max),
    Invariant("ever-lost-superset", _ever_lost_superset),
    Invariant("no-scheduled-reply-for-missing", _no_scheduled_reply_for_missing),
    Invariant("backoff-within-cap", _backoff_within_cap),
    Invariant("cache-packets-were-lost", _cache_packets_were_lost),
    Invariant("cache-capacity", _cache_capacity),
    Invariant("expedited-iff-missing", _expedited_iff_missing),
    Invariant("failed-is-silent", _failed_is_silent),
)
