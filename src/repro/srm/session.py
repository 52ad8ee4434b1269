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
from typing import Sequence


@dataclass(frozen=True, slots=True)
class SessionReport:
    """The payload of a session message.

    The timestamp echoes travel as a *columnar echo block*: the sender's
    two rows of what it has heard (see :class:`DistanceEstimator`), copied
    when the report was sent and indexed by peer row.  For the peer whose
    row is ``r``, ``echo_sent_at[r]`` is the send timestamp ``t1`` of the
    last report the sender heard from it (negative: never heard) and
    ``echo_received_at[r]`` when that report arrived; the hold time is
    ``Δ = sent_at - echo_received_at[r]``.  A block is as long as the
    sender's rows were — a peer that joined since lies past its end.
    """

    sender: str
    #: The sender's own row in every listener's rows.
    row: int
    sent_at: float
    #: source -> highest sequence number observed from that source.
    max_seqs: dict[str, int]
    echo_sent_at: Sequence[float]
    echo_received_at: Sequence[float]


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
    """Tracks one-way distance estimates to every peer via session echoes.

    ``row`` is this host's index in the run's peer index — any dense
    ``name -> int`` numbering that appends on join and never reuses a
    number (the harness uses the topology's node ids).  What the host has
    heard is two float rows over that index, ``last_sent_at`` and
    ``received_at`` per peer, created by the first report it hears: a run
    without session exchange (``prime_distances``) allocates none.

    ``get_or(peer, default)`` — the estimate, else ``default`` — is an
    instance slot, not a method: the estimate dict's own bound ``get``
    (same signature), swapped by :meth:`prime`.  Agents call it once per
    observed reply and per scheduled timer, where a Python frame shows.
    """

    __slots__ = ("host_id", "_row", "_estimates", "_heard", "updates", "_oracle", "get_or")

    def __init__(self, host_id: str, row: int) -> None:
        self.host_id = host_id
        self._row = row
        self._estimates: dict[str, float] = {}
        #: ``(last_sent_at row, received_at row)``; None until a report is heard.
        self._heard: tuple[list[float], list[float]] | None = None
        self.updates = 0
        self._oracle: TreeDistanceOracle | None = None
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
        """Digest a peer's session message received at time ``now``.

        :meth:`SrmAgent.receive <repro.srm.agent.SrmAgent.receive>` carries
        an inline of this body (one frame per delivery saved on the O(n²)
        exchange); keep the two identical.
        """
        heard = self._heard
        if heard is None:
            heard = self._heard = ([], [])
        sent_at, received_at = heard
        row = report.row
        try:
            sent_at[row] = report.sent_at
        except IndexError:
            # First report from a peer whose row lies past the end: it
            # joined after these rows were last extended.
            grow = (-1.0,) * (row + 1 - len(sent_at))
            sent_at.extend(grow)
            received_at.extend(grow)
            sent_at[row] = report.sent_at
        received_at[row] = now
        me = self._row
        try:
            t1 = report.echo_sent_at[me]
        except IndexError:
            t1 = -1.0  # we joined after the sender took this block
        if t1 >= 0:
            rtt = (now - t1) - (report.sent_at - report.echo_received_at[me])
            if rtt >= 0:
                self._estimates[report.sender] = rtt / 2.0
                self.updates += 1

    # -- outgoing ------------------------------------------------------
    def report(self, sent_at: float, max_seqs: dict[str, int]) -> SessionReport:
        """This host's next session message: ``max_seqs`` plus a copy of
        the two rows as they stand (the listener works out each hold time
        from ``sent_at``)."""
        sent, received = self._heard or ((), ())
        return SessionReport(
            self.host_id, self._row, sent_at, max_seqs, sent[:], received[:]
        )

    # -- queries -------------------------------------------------------
    def get(self, peer: str) -> float | None:
        """Current one-way distance estimate to ``peer``, if any."""
        return self._estimates.get(peer)

    def known_peers(self) -> set[str]:
        return set(self._estimates)

    def rtt_to(self, peer: str) -> float | None:
        est = self._estimates.get(peer)
        return None if est is None else 2.0 * est
