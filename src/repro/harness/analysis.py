"""The §3.4 closed-form recovery-latency model.

With ``d`` an upper bound on the one-way inter-host delay (``RTT = 2d``):

* Eq. (1): a successful **first-round non-expedited** recovery takes about

      (C1 + C2/2)·d  +  d  +  (D1 + D2/2)·d  +  d

  (request delay at the interval midpoint, request propagation, reply delay
  at the midpoint, reply propagation);

* Eq. (2): a successful **expedited** recovery takes about

      REORDER-DELAY + RTT

For the paper's parameters (C1=C2=2, D1=D2=1) Eq. (1) gives ``6.5·d =
3.25·RTT``, so expedited recoveries save roughly ``2.25·RTT`` when
REORDER-DELAY is negligible.  §4.4 then observes simulated SRM first-round
averages between 1.5 and 3.25 RTT and expedited/non-expedited gaps between
1 and 2.5 RTT — which ``bench_analysis`` cross-checks against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.srm.constants import SrmParams


@dataclass(frozen=True)
class LatencyModel:
    """Closed-form §3.4 latency bounds, in RTT units (RTT = 2d)."""

    params: SrmParams
    reorder_delay_rtt: float = 0.0  # REORDER-DELAY expressed in RTTs

    @property
    def non_expedited_rtt(self) -> float:
        """Eq. (1) in RTT units: ((C1 + C2/2) + 1 + (D1 + D2/2) + 1) / 2."""
        p = self.params
        in_d = (p.c1 + 0.5 * p.c2) + 1.0 + (p.d1 + 0.5 * p.d2) + 1.0
        return in_d / 2.0

    @property
    def expedited_rtt(self) -> float:
        """Eq. (2) in RTT units: REORDER-DELAY + 1 RTT."""
        return self.reorder_delay_rtt + 1.0

    @property
    def expected_gap_rtt(self) -> float:
        """The predicted expedited-vs-non-expedited latency gap."""
        return self.non_expedited_rtt - self.expedited_rtt


def paper_latency_model() -> LatencyModel:
    """The model under the paper's parameter values: 3.25 / 1.0 / 2.25 RTT."""
    return LatencyModel(params=SrmParams())


#: The §4.4 empirical bands the simulations should land in.
SRM_FIRST_ROUND_BAND_RTT: tuple[float, float] = (1.5, 3.25)
EXPEDITED_GAP_BAND_RTT: tuple[float, float] = (1.0, 2.5)
