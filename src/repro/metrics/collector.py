"""The per-run metrics collector.

One :class:`MetricsCollector` is shared by all agents of a simulation run.
Agents report sends, loss detections, and recoveries; the harness combines
the collector with the network's link-crossing counts into a
:class:`repro.harness.runner.RunResult`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

from repro.net.packet import Cast, Packet, PacketKind


class RecoveryRecord(NamedTuple):
    """One completed loss recovery at one host (a tuple, so a cached
    run rehydrates thousands of them at tuple-build cost)."""

    host: str
    seq: int
    latency: float
    expedited: bool
    requests_sent: int


class MetricsCollector:
    """Accumulates protocol events for one simulation run."""

    def __init__(self) -> None:
        #: (host, kind, cast) -> packets sent.
        self.sends: Counter[tuple[str, PacketKind, Cast]] = Counter()
        #: host -> losses detected.
        self.losses_detected: Counter[str] = Counter()
        #: host -> recovery records.
        self.recoveries: dict[str, list[RecoveryRecord]] = defaultdict(list)
        #: host -> duplicate repair replies received.
        self.duplicate_replies: Counter[str] = Counter()
        #: host -> packets repaired before their loss was noticed.
        self.undetected_recoveries: Counter[str] = Counter()
        #: host -> presumed-lost packets that arrived on the data path.
        self.late_arrivals: Counter[str] = Counter()
        #: host -> losses never repaired (filled by the harness at the end).
        self.unrecovered: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Agent-facing recording API
    # ------------------------------------------------------------------
    def on_send(self, host: str, packet: Packet) -> None:
        # ERQST is the only unicast kind; EREPL may be multicast or subcast
        # but is stamped by the network after this call, so classify by
        # kind rather than trusting packet.cast here.
        cast = Cast.UNICAST if packet.kind is PacketKind.ERQST else packet.cast
        self.sends[(host, packet.kind, cast)] += 1

    def on_loss_detected(self, host: str, seq: int, time: float) -> None:
        self.losses_detected[host] += 1

    def on_recovery(
        self,
        host: str,
        seq: int,
        latency: float,
        expedited: bool,
        requests_sent: int,
    ) -> None:
        self.recoveries[host].append(
            RecoveryRecord(host, seq, latency, bool(expedited), requests_sent)
        )

    def on_duplicate_reply(self, host: str, seq: int) -> None:
        self.duplicate_replies[host] += 1

    def on_undetected_recovery(self, host: str, seq: int) -> None:
        self.undetected_recoveries[host] += 1

    def on_late_arrival(self, host: str, seq: int) -> None:
        self.late_arrivals[host] += 1

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------
    def sends_by_host_kind(self, host: str, kind: PacketKind) -> int:
        return sum(
            n for (h, k, _), n in self.sends.items() if h == host and k is kind
        )

    def total_sends(self, kind: PacketKind) -> int:
        return sum(n for (_, k, _), n in self.sends.items() if k is kind)

    def recovery_latencies(
        self, host: str, expedited: bool | None = None
    ) -> list[float]:
        """Latencies of ``host``'s recoveries, optionally filtered by
        whether the repair arrived through the expedited path."""
        return [
            r.latency
            for r in self.recoveries.get(host, [])
            if expedited is None or r.expedited == expedited
        ]

    def recovery_count(self, host: str, expedited: bool | None = None) -> int:
        return len(self.recovery_latencies(host, expedited))

    def all_recoveries(self) -> list[RecoveryRecord]:
        out: list[RecoveryRecord] = []
        for records in self.recoveries.values():
            out.extend(records)
        return out

    def rounds_histogram(self) -> dict[int, int]:
        """How many recoveries needed 0, 1, 2, ... own request rounds.

        Round 0 means the host never fired a request of its own (another
        member's request — or an expedited recovery — repaired the loss
        first); under lossless recovery almost everything completes within
        round 0 or 1, and the tail quantifies lossy-recovery retries.
        """
        histogram: dict[int, int] = {}
        for record in self.all_recoveries():
            histogram[record.requests_sent] = (
                histogram.get(record.requests_sent, 0) + 1
            )
        return dict(sorted(histogram.items()))

    @property
    def expedited_requests_sent(self) -> int:
        """Total expedited requests across hosts (Fig. 5a denominator)."""
        return self.total_sends(PacketKind.ERQST)

    @property
    def expedited_replies_sent(self) -> int:
        """Total expedited replies across hosts (Fig. 5a numerator)."""
        return self.total_sends(PacketKind.EREPL)

    @property
    def expedited_success_rate(self) -> float:
        """#expedited replies / #expedited requests (§4.4, Fig. 5a)."""
        requests = self.expedited_requests_sent
        if requests == 0:
            return 0.0
        return self.expedited_replies_sent / requests
