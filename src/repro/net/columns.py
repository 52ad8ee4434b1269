"""Receivers as rows: in-order DATA reception as columns over node ids.

CESRM's premise is that losses are rare and local, so almost every
receiver spends almost all of its time taking the next in-order packet.
For such a host the whole per-source reception state is one integer —
how many packets it has received, all in order.  :class:`ReceptionColumns`
keeps that integer in a column per source, and the vector kernel's waves
(:meth:`repro.net.vector.VectorKernel._wave`) advance it for a whole
frontier at once instead of calling ``agent.receive`` per host.

Per source there are two columns (plus a first-touch stamp):

* ``count[node]`` — packets ``0 .. count-1`` have been received, in order,
  and nothing else has happened for this source at this host;
* ``plain[node]`` — the host is *seated* (its attached agent is the one
  that enrolled, it rides the column, it is live) and holds no
  ``SourceState`` for the source.  Only plain hosts take the fast path.

**Materialise once.**  The first time anything but the next in-order
packet concerns a (host, source) — a gap, a duplicate, a request, a
session report, a monitor's read — the agent *materialises*: it takes the
count out of the column (:meth:`hand_over`), builds the equivalent
``SourceState`` and is scalar for that source for good.  There is no
re-qualification and no heuristic.

Hazards this module owns:

* ``SrmAgent._send_session`` iterates the agent's per-source dict, so the
  *first-touch order* of sources is digest material.  A column stamps the
  wave in which a host took its packet 0; every hand-over drains all the
  columns the host has been counted in, in stamp order, before anything
  newer enters the dict — exactly the order scalar delivery would have
  inserted them.
* Membership churn grows the node index mid-run (:meth:`grow`), and a
  rejoin under an old name reuses the node id with a fresh agent
  (:meth:`seat` zeroes the row).
* Anything attached over the enrolled agent (a timing proxy, a test
  sink), a crash, or a leave *unseats* the node (:meth:`unseat`): the
  owner is handed everything it was counted for and the row goes dark.
"""

from __future__ import annotations

from array import array
from typing import Any

import numpy as np

#: ``(source, packets received in order)`` pairs, oldest touch first.
HandOver = tuple[tuple[str, int], ...]


class _Column:
    """One source's rows.  ``array``/``bytearray`` buffers for the loop
    executor's scalar access, viewed through ``np.frombuffer`` for the
    numpy executor: one memory, one authority (as the link columns)."""

    __slots__ = ("count", "plain", "first", "count_np", "plain_np", "first_np")

    def __init__(self, plain: bytearray) -> None:
        zeros = bytes(8 * len(plain))
        self._bind(array("q", zeros), plain, array("q", zeros))

    def _bind(self, count: array, plain: bytearray, first: array) -> None:
        self.count, self.plain, self.first = count, plain, first
        self.count_np = np.frombuffer(count, dtype=np.int64)
        self.plain_np = np.frombuffer(plain, dtype=np.bool_)
        self.first_np = np.frombuffer(first, dtype=np.int64)

    def grow(self, cap: int) -> None:
        # Fresh buffers: the old ones are pinned at their size by the
        # ndarray views exported from them.
        extra = cap - len(self.plain)
        zeros = bytes(8 * extra)
        self._bind(
            array("q", self.count.tobytes() + zeros),
            bytearray(self.plain) + bytes(extra),
            array("q", self.first.tobytes() + zeros),
        )


class ReceptionColumns:
    """In-order reception state of every seated host, one row per node."""

    def __init__(self, n: int) -> None:
        self._cap = n
        #: Node-level: the enrolled agent is attached as itself and live.
        #: A new source's ``plain`` column starts as a copy.
        self._seated = bytearray(n)
        #: The agent counted in each row (None at routers / dark rows).
        self._owner: list[Any] = [None] * n
        self._columns: dict[str, _Column] = {}
        #: First-touch clock: one tick per wave that delivers a packet 0.
        self._touches = 0
        #: Deliveries taken on the columns (``Network.kernel_stats``).
        self.deliveries = 0

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def grow(self, n: int) -> None:
        """Make room for node ids below ``n`` (churn joins)."""
        self._owner.extend([None] * (n - len(self._owner)))
        if n > self._cap:
            cap = max(64, 2 * self._cap)
            while cap < n:
                cap *= 2
            self._seated.extend(bytes(cap - self._cap))
            for column in self._columns.values():
                column.grow(cap)
            self._cap = cap

    def seat(self, node: int, agent: Any) -> None:
        """``agent`` — fresh, no per-source state — enrolls at ``node``."""
        self._owner[node] = agent
        self._seated[node] = 1
        for column in self._columns.values():
            column.count[node] = 0
            column.plain[node] = 1

    def unseat(self, node: int) -> tuple[Any, HandOver]:
        """The row goes dark for good: returns its owner (None when there
        was none) and everything the owner was counted for."""
        owner = self._owner[node]
        if owner is None:
            return None, ()
        handed = self._drain(node)
        self._owner[node] = None
        self._seated[node] = 0
        for column in self._columns.values():
            column.plain[node] = 0
        return owner, handed

    def owner(self, node: int) -> Any:
        return self._owner[node]

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def hand_over(self, node: int, src: str | None) -> HandOver:
        """The seated host at ``node`` is about to create per-source state
        for ``src`` (None: for everything it has): every source it has
        been counted for, in first-touch order, then ``src``.  The rows
        handed over stop being plain."""
        handed = self._drain(node)
        if src is None or any(name == src for name, _ in handed):
            return handed
        self._column(src).plain[node] = 0
        return (*handed, (src, 0))

    def _drain(self, node: int) -> HandOver:
        touched = [
            (column.first[node], src, column.count[node])
            for src, column in self._columns.items()
            if column.plain[node] and column.count[node]
        ]
        if not touched:
            return ()
        touched.sort()
        for _, src, _ in touched:
            self._columns[src].plain[node] = 0
        return tuple((src, count) for _, src, count in touched)

    def _touch(self) -> int:
        self._touches += 1
        return self._touches

    def _column(self, src: str) -> _Column:
        column = self._columns.get(src)
        if column is None:
            # First reference to ``src`` anywhere in the run, so no agent
            # holds state for it yet: every seated host is plain.
            column = self._columns[src] = _Column(bytearray(self._seated))
        return column

    # ------------------------------------------------------------------
    # The fast path (one call per delivering DATA wave)
    # ------------------------------------------------------------------
    def deliver(self, src: str, seq: int, nodes: Any) -> list[int]:
        """Deliver DATA packet ``seq`` of ``src`` to the frontier
        ``nodes`` (a list on the loop executor, an int array on numpy):
        a plain host whose count is ``seq`` takes it by counting one
        more.  Returns the rest — routers, scalar hosts, gaps, duplicates
        — in wave order, for ``agent.receive``."""
        column = self._column(src)
        if type(nodes) is list:
            plain = column.plain
            count = column.count
            first = column.first
            stamp = self._touch() if not seq else 0
            rest = []
            for node in nodes:
                if plain[node] and count[node] == seq:
                    count[node] = seq + 1
                    if not seq:
                        first[node] = stamp
                else:
                    rest.append(node)
            self.deliveries += len(nodes) - len(rest)
            return rest
        fast = column.plain_np[nodes]
        fast &= column.count_np[nodes] == seq
        hits = int(np.count_nonzero(fast))
        if not hits:
            return nodes.tolist()
        rest = []
        if hits < len(nodes):
            rest = nodes[~fast].tolist()
            nodes = nodes[fast]
        column.count_np[nodes] = seq + 1
        if not seq:
            column.first_np[nodes] = self._touch()
        self.deliveries += hits
        return rest


__all__ = ["HandOver", "ReceptionColumns"]
