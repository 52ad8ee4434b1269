"""Per-packet recovery state kept by an SRM host.

A host missing a packet holds a :class:`RequestState` (request timer,
back-off count, abstinence deadline); a host asked to retransmit holds a
:class:`ReplyState` (reply timer, requestor bookkeeping, abstinence
deadline).  The states are plain mutable records — the scheduling logic
lives in :class:`repro.srm.agent.SrmAgent`.

Scale: these records exist per host (times per missing packet for the
recovery states), so at 10^5 receivers their footprint dominates the
run's RSS.  All of them are ``__slots__`` dataclasses.  The per-stream
reception sets are :class:`SeqSet`\\ s, built-in sets with ascending
iteration: a host's receive path tests and inserts a seqno once per
packet, which a bitmap's Python-level ``__contains__`` / ``add`` made the
dearer part of a delivery.  The price is a hash table per stream (~128 KB
for 3 000 seqnos, a bitmap's 0.4 KB); an idle receiver holds no stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.sim.timers import Timer


class SeqSet(set):
    """A set of non-negative sequence numbers.

    A ``set`` underneath, so what the recovery kernel does per packet —
    ``in``, ``len``, truthiness, equality with sets, ``set - seqset`` —
    runs in C with no Python-level call, and the hot receive paths insert
    through the built-in ``set.add`` (:data:`insert`).  On top of the
    built-in it keeps reception state's contract: iteration is ascending
    (``max()``/``sorted()``/``list()`` read seqno order), :meth:`add`
    rejects a negative seqno, and :meth:`prefix` builds ``{0..n-1}``.
    Reception state only grows: nothing in the kernel removes from one.
    """

    __slots__ = ()

    def __init__(self, seqs: Iterable[int] = ()) -> None:
        super().__init__()
        for seq in seqs:
            self.add(seq)

    @classmethod
    def prefix(cls, n: int) -> "SeqSet":
        """The set ``{0, ..., n-1}``: what a host holds after ``n``
        in-order packets (see :meth:`SrmAgent._materialise`)."""
        out = cls()
        set.update(out, range(n))
        return out

    def add(self, seq: int) -> None:
        if seq < 0:
            raise ValueError(f"SeqSet holds non-negative seqnos, got {seq}")
        insert(self, seq)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(set.__iter__(self)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeqSet({sorted(self)!r})"


#: The built-in insert, without :meth:`SeqSet.add`'s sign check: for the
#: receive paths, whose seqnos the sending host's own ``add`` checked.
insert = set.add


@dataclass(slots=True)
class RequestState:
    """Recovery bookkeeping for one packet a host is missing.

    Attributes
    ----------
    timer:
        The pending request timer.
    backoff:
        The exponent ``k`` used for the *currently scheduled* request: 0
        for the first schedule, incremented on every transmission or
        suppression-triggered reschedule.
    abstain_until:
        End of the back-off abstinence period; foreign requests arriving
        earlier belong to the current round and are discarded (§2.1).
    detected_at:
        When the loss was detected — the recovery-latency clock origin.
    requests_sent:
        Number of repair requests this host multicast for the packet.
    """

    timer: Timer
    detected_at: float
    backoff: int = 0
    abstain_until: float = -1.0
    requests_sent: int = 0


@dataclass(slots=True)
class ReplyState:
    """Reply bookkeeping for one packet at a host able to retransmit it.

    Attributes
    ----------
    timer:
        The pending reply timer (None when not scheduled).
    requestor:
        The host whose request instigated the scheduled reply.
    requestor_dist_to_source:
        The requestor's advertised distance to the source (annotation
        copied from request to reply, feeding CESRM's caches).
    hold_until:
        End of the reply abstinence period: while ``now < hold_until`` a
        reply is *pending* and further requests are discarded (§2.2).
    """

    timer: Timer | None = None
    requestor: str | None = None
    requestor_dist_to_source: float = 0.0
    hold_until: float = -1.0
    replies_sent: int = 0

    def scheduled(self) -> bool:
        """True while a reply transmission is scheduled."""
        return self.timer is not None and self.timer.armed

    def pending(self, now: float) -> bool:
        """True while a reply is considered pending (abstinence, §2.2)."""
        return now < self.hold_until


@dataclass(slots=True)
class StreamState:
    """Reception state for one source's data stream at one host."""

    max_seq: int = -1
    received: SeqSet = field(default_factory=SeqSet)
    ever_lost: SeqSet = field(default_factory=SeqSet)
    duplicates: int = 0

    def has(self, seq: int) -> bool:
        return seq in self.received

    def missing(self) -> list[int]:
        """Sequence numbers at or below ``max_seq`` not yet received."""
        return [s for s in range(self.max_seq + 1) if s not in self.received]
