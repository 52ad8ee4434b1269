"""Session message exchange and inter-host distance estimation (§2).

Group members periodically multicast *session messages*.  Each message
carries (a) the sender's highest observed sequence number per source — a
secondary loss-detection channel — and (b) timestamp echoes enabling every
pair of hosts to estimate their one-way distance without synchronized
clocks, exactly as in SRM/NTP:

* host ``g`` remembers, for each peer ``h``, the send timestamp ``t1`` of
  the last session message it received from ``h`` and when it arrived;
* when ``g`` sends its own session message at ``t2`` it echoes
  ``(t1, Δ)`` with ``Δ = t2 - arrival``;
* on receiving that echo at ``t4``, host ``h`` computes
  ``rtt = (t4 - t1) - Δ`` and estimates the one-way distance ``rtt / 2``.

The paper's simulations make session exchange lossless and start the data
transmission only after distances have converged (§4.3); the harness does
the same.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SessionReport:
    """The payload of a session message."""

    sender: str
    sent_at: float
    #: source -> highest sequence number observed from that source.
    max_seqs: dict[str, int]
    #: peer -> (peer's last session send-timestamp, delay held at sender).
    echoes: dict[str, tuple[float, float]]


@dataclass(slots=True)
class _PeerRecord:
    last_sent_at: float = -1.0
    received_at: float = -1.0


class TreeDistanceOracle:
    """Analytic pairwise distances computed from the topology on demand.

    At 10^5 receivers the session exchange is infeasible to simulate —
    every member multicasting to every other member is O(n²) deliveries
    per period — and so is materializing the pairwise distance matrix the
    exchange would converge to.  The oracle is the scale-mode shortcut
    (``SimulationConfig.prime_distances``): one shared object per run
    answering ``distance(a, b)`` by an O(1) LCA hop count times the
    propagation delay, memoized per queried pair.  That is exactly the
    value a lossless session exchange converges to (§4.3), so primed runs
    recover with the same timer math — they just skip simulating the
    convergence.
    """

    __slots__ = ("_index", "_ids", "_delay", "_cache")

    def __init__(self, tree, propagation_delay: float) -> None:
        self._index = tree.index
        self._ids = tree.index.ids
        self._delay = propagation_delay
        self._cache: dict[tuple[str, str], float] = {}

    def distance(self, a: str, b: str) -> float:
        key = (a, b)
        found = self._cache.get(key)
        if found is None:
            found = (
                self._index.hop_distance_int(self._ids[a], self._ids[b])
                * self._delay
            )
            self._cache[key] = found
        return found


class DistanceEstimator:
    """Tracks one-way distance estimates to every peer via session echoes."""

    def __init__(self, host_id: str) -> None:
        self.host_id = host_id
        self._estimates: dict[str, float] = {}
        self._peers: dict[str, _PeerRecord] = {}
        self.updates = 0
        self._oracle: TreeDistanceOracle | None = None
        # Shadow the get_or method with the estimate dict's own bound
        # ``get`` (same signature): agents call it once per observed reply
        # and per scheduled timer, where the extra Python frame shows up.
        self.get_or = self._estimates.get

    # -- priming (scale mode) ------------------------------------------
    def prime(self, oracle: TreeDistanceOracle) -> None:
        """Back this estimator with an analytic oracle: session-learned
        estimates still win, and any peer never heard from resolves to
        its true tree distance instead of the default.  Swaps the
        ``get_or`` fast path; unprimed estimators keep the bound
        ``dict.get`` byte for byte."""
        self._oracle = oracle
        self.get_or = self._primed_get_or

    def _primed_get_or(self, peer: str, default: float) -> float:
        found = self._estimates.get(peer)
        if found is not None:
            return found
        return self._oracle.distance(self.host_id, peer)

    # -- incoming ------------------------------------------------------
    def on_session(self, report: SessionReport, now: float) -> None:
        """Digest a peer's session message received at time ``now``."""
        record = self._peers.get(report.sender)
        if record is None:
            record = self._peers[report.sender] = _PeerRecord()
        record.last_sent_at = report.sent_at
        record.received_at = now
        echo = report.echoes.get(self.host_id)
        if echo is not None:
            t1, delta = echo
            rtt = (now - t1) - delta
            if rtt >= 0:
                self._estimates[report.sender] = rtt / 2.0
                self.updates += 1

    # -- outgoing ------------------------------------------------------
    def build_echoes(self, now: float) -> dict[str, tuple[float, float]]:
        """The echo block for this host's next session message."""
        return {
            peer: (rec.last_sent_at, now - rec.received_at)
            for peer, rec in self._peers.items()
            if rec.last_sent_at >= 0
        }

    # -- queries -------------------------------------------------------
    def get(self, peer: str) -> float | None:
        """Current one-way distance estimate to ``peer``, if any."""
        return self._estimates.get(peer)

    def get_or(self, peer: str, default: float) -> float:
        return self._estimates.get(peer, default)

    def known_peers(self) -> set[str]:
        return set(self._estimates)

    def rtt_to(self, peer: str) -> float | None:
        est = self._estimates.get(peer)
        return None if est is None else 2.0 * est
