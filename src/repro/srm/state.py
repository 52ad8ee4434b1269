"""Per-packet recovery state kept by an SRM host.

A host missing a packet holds a :class:`RequestState` (request timer,
back-off count, abstinence deadline); a host asked to retransmit holds a
:class:`ReplyState` (reply timer, requestor bookkeeping, abstinence
deadline).  The states are plain mutable records — the scheduling logic
lives in :class:`repro.srm.agent.SrmAgent`.

Scale: these records exist per host (times per missing packet for the
recovery states), so at 10^5 receivers their footprint dominates the
run's RSS.  All of them are ``__slots__`` dataclasses, and the per-stream
reception sets are :class:`SeqSet` bitmaps — sequence numbers are dense
(``0..max_seq``), so a bytearray bit per seqno replaces ~32 bytes per
hash-table entry while keeping the exact ``set`` operations the kernel
uses (``add``/``in``/``len``/truthiness/iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.sim.timers import Timer


class SeqSet:
    """A set of non-negative sequence numbers backed by a bitmap.

    Supports the operations the recovery kernel, the invariant monitor,
    and the tests perform on reception state: ``add``, ``in``, ``len``,
    truthiness, ascending iteration (``max()``/``sorted()`` work), and
    being the right operand of ``set - seqset``.  Removal is deliberately
    absent — reception state only grows.
    """

    __slots__ = ("_bits", "_len")

    def __init__(self, seqs: Iterable[int] = ()) -> None:
        self._bits = bytearray()
        self._len = 0
        for seq in seqs:
            self.add(seq)

    @classmethod
    def prefix(cls, n: int) -> "SeqSet":
        """The set ``{0, ..., n-1}`` in O(n/8): what a host holds after
        ``n`` in-order packets (see :meth:`SrmAgent._materialise`)."""
        out = cls()
        out._bits = bytearray(b"\xff" * (n >> 3))
        if n & 7:
            out._bits.append((1 << (n & 7)) - 1)
        out._len = n
        return out

    def add(self, seq: int) -> None:
        if seq < 0:
            raise ValueError(f"SeqSet holds non-negative seqnos, got {seq}")
        byte = seq >> 3
        bits = self._bits
        if byte >= len(bits):
            bits.extend(b"\0" * (byte + 1 - len(bits)))
        mask = 1 << (seq & 7)
        if not bits[byte] & mask:
            bits[byte] |= mask
            self._len += 1

    def __contains__(self, seq: int) -> bool:
        byte = seq >> 3
        bits = self._bits
        return 0 <= byte < len(bits) and bits[byte] >> (seq & 7) & 1 == 1

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        for byte_index, byte in enumerate(self._bits):
            if byte:
                base = byte_index << 3
                for bit in range(8):
                    if byte >> bit & 1:
                        yield base + bit

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeqSet):
            return self._len == other._len and set(self) == set(other)
        if isinstance(other, (set, frozenset)):
            return self._len == len(other) and set(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] — mutable, like set

    def __rsub__(self, other: set) -> set:
        """``set - seqset`` (the invariant monitor's difference check)."""
        return {seq for seq in other if seq not in self}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeqSet({sorted(self)!r})"


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
