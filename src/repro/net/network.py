"""Packet delivery over the multicast tree.

The network forwards packets hop-by-hop through the tree with per-direction
FIFO queueing (:class:`~repro.net.link.LinkState`), consults the run's
fault injector (:class:`~repro.faults.inject.FaultInjector`, whose hop
rules carry every loss; a trace replay's are one compiled drop table) on
every directed hop, delivers packets to the
agents attached at host nodes, and accounts one cost unit per link
crossing — the transmission-overhead metric of §4.4.

Three propagation modes exist, mirroring the paper:

* ``multicast`` — flood of the shared tree from the sending host: every
  node forwards to all neighbours except the one the packet arrived on.
  This models SRM/CESRM's use of IP multicast where every request/reply
  reaches the entire group.
* ``unicast`` — along the unique tree path (CESRM's expedited requests).
* ``subcast`` — downstream flood from a router (router-assisted CESRM,
  §3.3), reaching only the subtree below the turning point.

Under ``kernel="vector"`` the network also holds the *reception columns*
(:mod:`repro.net.columns`): an agent attached with ``plain=True`` is a
row whose in-order DATA packets the delivery waves count instead of
delivering, until the agent asks for its counts back (:meth:`Network
.hand_over`) or the host is unseated (a proxy attached over it,
:meth:`Network.withdraw` on a crash, :meth:`Network.detach_subtree`).
The python kernel below never consults a column — it is the all-scalar
oracle the columnar path is differential-tested against.

Internally every mode runs on the integer-indexed forwarding kernel: node
ids are interned once through the tree's :class:`~repro.net.index
.TopologyIndex`, each directed hop is a prebuilt record carrying its
endpoint names and :class:`LinkState` (python kernel; the vector kernel's
link columns replace both), unicast walks a precomputed integer
path, and arrivals go through the engine's raw no-``Event`` scheduling
path.  The observable contract is unchanged: fault-injector hop rules and
trace events still see string node ids.

An engine entry may stand for several same-instant arrivals on either
kernel.  Here a flood schedules one entry per *sibling run* — consecutive
hops out of one node that land on the same instant (:meth:`Network
._flood_arrival`) — and reports the rest through :meth:`Simulator
.coalesced <repro.sim.engine.Simulator.coalesced>`, the accounting the
vector kernel's waves use, so ``events_processed`` still counts arrivals
while a profiler's per-handler counts (the layered benchmark's
``net.events``) count entries.  Unicast and subcast hops stay one entry
each, through :meth:`Network._transmit`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.net.link import LinkState
from repro.net.packet import Cast, Packet, PacketKind
from repro.net.topology import MulticastTree, NodeKind
from repro.obs.events import EventKind
from repro.sim.engine import Simulator

#: Dense ``(kind, cast)`` slot numbering for the crossing counter: the hot
#: path resolves a packet's slot once per send primitive and every hop then
#: counts with plain list-index arithmetic — no enum hashing per crossing.
_DATA_KIND = PacketKind.DATA
_KINDS = tuple(PacketKind)
_CASTS = tuple(Cast)
_N_CAST = len(_CASTS)
_N_SLOTS = len(_KINDS) * _N_CAST
_KIND_INDEX = {kind: i for i, kind in enumerate(_KINDS)}
_CAST_INDEX = {cast: i for i, cast in enumerate(_CASTS)}
_MULTICAST_COL = _CAST_INDEX[Cast.MULTICAST]
_UNICAST_COL = _CAST_INDEX[Cast.UNICAST]
_SUBCAST_COL = _CAST_INDEX[Cast.SUBCAST]
#: slot -> snapshot key, precomputed.
_SLOT_KEYS = tuple(
    (kind.value, cast.value) for kind in _KINDS for cast in _CASTS
)
#: Kind rows whose crossings feed the Figure 5b overhead categories.
_RETRANSMISSION_KINDS = tuple(k for k in _KINDS if k.is_retransmission)
_RECOVERY_CONTROL_KINDS = tuple(k for k in _KINDS if k.is_recovery_control)
_UNICAST_CONTROL_SLOTS = tuple(
    _KIND_INDEX[k] * _N_CAST + _UNICAST_COL for k in _RECOVERY_CONTROL_KINDS
)

#: Directed hops are keyed ``u << _HOP_SHIFT | v`` — a fixed-stride int
#: key that stays valid as membership churn appends node ids (the old
#: ``u * n + v`` keying broke the moment ``n`` grew).  2^21 node ids is
#: comfortably above the topology registry's receiver cap.
_HOP_SHIFT = 21

#: Earlier than any arrival: "no sibling run is open".
_NEVER = float("-inf")

#: :meth:`Network._cross_hooks` verdict of a hop no hook changed: one
#: copy, no extra delay.
_UNTOUCHED = (1, 0.0)


class Agent(Protocol):
    """What the network requires of an attached host agent."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class CrossingCounter:
    """Counts link crossings per ``(kind, cast)`` — 1 unit per link (§4.4).

    Counts live in one flat list indexed by a dense ``(kind, cast)`` slot:
    a crossing is one list write.  The network resolves a packet's slot
    once per send primitive and counts per hop with :meth:`record_slot`
    (or its inline); :meth:`record` is the enum-keyed convenience path for
    external callers.  The per-kind / per-cast / grand totals are read a
    handful of times per run and summed over the slots then.
    """

    __slots__ = ("_slots",)

    def __init__(self) -> None:
        self._slots = [0] * _N_SLOTS

    @staticmethod
    def slot_of(kind: PacketKind, cast: Cast) -> int:
        """The dense slot for ``(kind, cast)`` — resolve once, count often."""
        return _KIND_INDEX[kind] * _N_CAST + _CAST_INDEX[cast]

    def record(self, packet: Packet) -> None:
        self.record_slot(
            _KIND_INDEX[packet.kind] * _N_CAST + _CAST_INDEX[packet.cast]
        )

    def record_slot(self, slot: int) -> None:
        self._slots[slot] += 1

    def total(self) -> int:
        return sum(self._slots)

    def by_kind(self, kind: PacketKind) -> int:
        row = _KIND_INDEX[kind] * _N_CAST
        return sum(self._slots[row : row + _N_CAST])

    def by_cast(self, cast: Cast) -> int:
        return sum(self._slots[_CAST_INDEX[cast] :: _N_CAST])

    def get(self, kind: PacketKind, cast: Cast) -> int:
        return self._slots[_KIND_INDEX[kind] * _N_CAST + _CAST_INDEX[cast]]

    @property
    def retransmission_crossings(self) -> int:
        """Link crossings by repair replies (payload-carrying)."""
        return sum(self.by_kind(kind) for kind in _RETRANSMISSION_KINDS)

    @property
    def multicast_control_crossings(self) -> int:
        """Link crossings by multicast repair requests."""
        return (
            sum(self.by_kind(kind) for kind in _RECOVERY_CONTROL_KINDS)
            - self.unicast_control_crossings
        )

    @property
    def unicast_control_crossings(self) -> int:
        """Link crossings by unicast (expedited) repair requests."""
        slots = self._slots
        return sum(slots[slot] for slot in _UNICAST_CONTROL_SLOTS)

    def snapshot(self) -> dict[tuple[str, str], int]:
        """Nonzero counts keyed ``(kind.value, cast.value)``, in dense slot
        (kind-major) order.  Consumers sort or aggregate; iteration order is
        not part of the contract."""
        return {
            _SLOT_KEYS[slot]: count
            for slot, count in enumerate(self._slots)
            if count
        }


class Network:
    """Hop-by-hop packet delivery over a static multicast tree.

    Parameters
    ----------
    sim:
        The simulation engine supplying the clock and event queue.
    tree:
        The multicast tree topology.
    propagation_delay:
        One-way per-link propagation delay in seconds (paper default 20 ms).
    bandwidth_bps:
        Per-link bandwidth (paper default 1.5 Mbps).
    """

    def __init__(
        self,
        sim: Simulator,
        tree: MulticastTree,
        propagation_delay: float = 0.020,
        bandwidth_bps: float = 1.5e6,
        kernel: str = "python",
    ) -> None:
        self.sim = sim
        self.tree = tree
        self.propagation_delay = propagation_delay
        self.bandwidth_bps = bandwidth_bps
        #: Optional :class:`~repro.faults.inject.FaultInjector`: consulted on
        #: every directed hop for blocked links and drop/duplicate/delay
        #: rules — the one place a hop decides a packet's fate.  None (or
        #: an injector with no rules) costs one branch.
        self.faults = None
        self.crossings = CrossingCounter()
        self.packets_dropped = 0
        self.packets_delivered = 0
        self._agents: dict[str, Agent] = {}
        #: Node ids removed by :meth:`detach_subtree` (membership churn).
        #: Unicasts addressed to them — or crossing their removed links
        #: mid-flight — die like any other loss instead of erroring.
        self._detached_ids: set[int] = set()
        #: Fired flood entries and the arrivals they stood for (see
        #: :meth:`kernel_stats`; python kernel only).
        self._flood_entries = 0
        self._flood_arrivals = 0

        index = tree.index
        self._index = index
        n = index.n
        self._n = n
        self._ids = index.ids
        self._names = index.names
        #: Agent slot per interned node id (None at routers / unattached).
        self._agents_by_id: list[Agent | None] = [None] * n
        #: Kernel v2 (``kernel="vector"``): delegate the send primitives to
        #: the numpy delivery-wave engine.  None — the default — keeps the
        #: pure-python per-hop path, the oracle the vector kernel is
        #: byte-equivalence-tested against.
        self._vk = None
        #: Receivers as rows (:mod:`repro.net.columns`): in-order DATA
        #: reception state of every seated host, advanced by the vector
        #: kernel's waves.  None under the python kernel, which stays the
        #: all-scalar oracle — every agent then holds its own state.
        self._columns = None
        if kernel == "vector":
            from repro.net.columns import ReceptionColumns
            from repro.net.vector import VectorKernel

            # The kernel's link columns are the only link state, and it
            # fans out over the index itself: none of the per-hop records
            # below is built.
            self._links = self._hop_record = self._adj = self._child_adj = None
            self._columns = ReceptionColumns(n)
            self._vk = VectorKernel(self)
            return
        if kernel != "python":
            raise ValueError(
                f"unknown kernel {kernel!r} (expected 'python' or 'vector')"
            )
        self._links: dict[tuple[str, str], LinkState] = {}
        #: Directed-hop records ``(to_id, from_name, to_name, link)`` —
        #: everything one transmission touches, resolved once at build time.
        #: ``_adj`` fans out children-first-then-parent (the flood order);
        #: ``_child_adj`` is the downstream-only fan-out for subcast.
        hop_record: dict[int, tuple[int, str, str, LinkState]] = {}
        names = index.names
        for parent_id, kids in enumerate(index.children):
            for child_id in kids:
                for u, v in ((parent_id, child_id), (child_id, parent_id)):
                    link = LinkState(
                        bandwidth_bps=bandwidth_bps,
                        propagation_delay=propagation_delay,
                    )
                    self._links[(names[u], names[v])] = link
                    hop_record[u << _HOP_SHIFT | v] = (v, names[u], names[v], link)
        self._hop_record = hop_record
        self._child_adj: list[tuple[tuple[int, str, str, LinkState], ...]] = [
            tuple(
                hop_record[node << _HOP_SHIFT | child]
                for child in index.children[node]
            )
            for node in range(n)
        ]
        self._adj: list[tuple[tuple[int, str, str, LinkState], ...]] = [
            tuple(hop_record[node << _HOP_SHIFT | nb] for nb in index.neighbors[node])
            for node in range(n)
        ]

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, host_id: str, agent: Agent, plain: bool = False) -> None:
        """Attach a protocol agent at a host node (source or receiver).

        ``plain`` enrolls a fresh agent on the reception columns: until
        something other than the next in-order DATA packet concerns it,
        the vector kernel counts its packets in a column row instead of
        calling ``receive`` (see :mod:`repro.net.columns`; the agent must
        offer ``adopt``).  Attaching anything else — a timing proxy around
        the agent, a test sink — unseats the host: whoever was enrolled
        there is handed its counts, and every later packet is delivered
        through ``receive``.
        """
        if self.tree.kind(host_id) is NodeKind.ROUTER:
            raise ValueError(f"cannot attach an agent at router {host_id!r}")
        node = self._ids[host_id]
        self._agents[host_id] = agent
        self._agents_by_id[node] = agent
        if self._columns is not None:
            self._unseat(node)
            if plain:
                self._columns.seat(node, agent)

    def agent(self, host_id: str) -> Agent:
        return self._agents[host_id]

    # ------------------------------------------------------------------
    # Reception columns (no-ops under the python kernel)
    # ------------------------------------------------------------------
    def hand_over(
        self, agent: Agent, src: str | None
    ) -> tuple[tuple[str, int], ...]:
        """``agent`` is about to create its state for ``src`` (None: for
        every source it has received from): the ``(source, in-order
        packets received)`` pairs to create, in the order scalar delivery
        would have first touched them.  Off the columns that is ``src``
        with nothing received."""
        node = self._seat_of(agent)
        if node is not None:
            return self._columns.hand_over(node, src)
        return () if src is None else ((src, 0),)

    def withdraw(self, agent: Agent) -> None:
        """``agent`` crashed: no packet reaches it through the columns
        from here on (it adopts what it was counted for)."""
        node = self._seat_of(agent)
        if node is not None:
            self._unseat(node)

    def _seat_of(self, agent: Agent) -> int | None:
        """The row ``agent`` is counted in, if it is counted at all."""
        if self._columns is not None:
            node = self._ids[agent.host_id]
            if self._columns.owner(node) is agent:
                return node
        return None

    def _unseat(self, node: int) -> None:
        owner, handed = self._columns.unseat(node)
        if owner is not None:
            owner.adopt(handed)

    # ------------------------------------------------------------------
    # Membership churn
    # ------------------------------------------------------------------
    def _rebuild_adjacency(self, node: int) -> None:
        index = self._index
        hop_record = self._hop_record
        self._child_adj[node] = tuple(
            hop_record[node << _HOP_SHIFT | child] for child in index.children[node]
        )
        self._adj[node] = tuple(
            hop_record[node << _HOP_SHIFT | nb] for nb in index.neighbors[node]
        )

    def attach_receiver(self, name: str, parent: str) -> int:
        """Grow the network for a joining receiver: patch the tree and
        index, create the two directed links, and extend the adjacency
        records (under the vector kernel: have it intern fresh edges).
        The caller attaches the agent afterwards (normally via the
        agent's constructor).  Returns the receiver's node id."""
        self.tree.attach_receiver(name, parent)
        index = self._index
        nid = self._ids[name]
        pid = self._ids[parent]
        self._detached_ids.discard(nid)
        if self._vk is not None:
            self._agents_by_id.extend([None] * (index.n - len(self._agents_by_id)))
            self._columns.grow(index.n)
            # Fresh links get fresh columnar state: dropping the hop keys
            # forces the rejoined edges to intern new zeroed ids.
            self._vk.invalidate(pid << _HOP_SHIFT | nid, nid << _HOP_SHIFT | pid)
            return nid
        while len(self._agents_by_id) < index.n:
            self._agents_by_id.append(None)
            self._adj.append(())
            self._child_adj.append(())
        names = self._names
        hop_record = self._hop_record
        for u, v in ((pid, nid), (nid, pid)):
            # A rejoining receiver gets fresh links: the old attachment
            # point (and its carried-bytes accounting) may differ.
            link = LinkState(
                bandwidth_bps=self.bandwidth_bps,
                propagation_delay=self.propagation_delay,
            )
            self._links[(names[u], names[v])] = link
            hop_record[u << _HOP_SHIFT | v] = (v, names[u], names[v], link)
        self._rebuild_adjacency(nid)
        self._rebuild_adjacency(pid)
        return nid

    def detach_subtree(self, name: str) -> tuple[str, ...]:
        """Shrink the network for a leaving receiver (or router subtree):
        patch the tree and index, drop agents, links and adjacency of
        everything below.  Returns the detached node ids."""
        index = self._index
        pid = index.parent[self._ids[name]]
        removed = self.tree.detach_subtree(name)
        names = self._names
        ids = self._ids
        hop_record = self._hop_record
        for rname in removed:
            rid = ids[rname]
            self._detached_ids.add(rid)
            self._agents.pop(rname, None)
            self._agents_by_id[rid] = None
            prid = index.parent[rid]  # tombstones keep their parent pointer
            if self._vk is not None:
                self._unseat(rid)
                self._vk.invalidate(prid << _HOP_SHIFT | rid, rid << _HOP_SHIFT | prid)
                continue
            self._adj[rid] = ()
            self._child_adj[rid] = ()
            for u, v in ((prid, rid), (rid, prid)):
                self._links.pop((names[u], names[v]), None)
                hop_record.pop(u << _HOP_SHIFT | v, None)
        if self._vk is None:
            self._rebuild_adjacency(pid)
        return removed

    def link_state(self, u: str, v: str) -> LinkState:
        """The directed link state for the hop ``u -> v`` (KeyError when
        there is no such live hop).  Under the vector kernel the columns
        are the only link state, and the object is built from them on
        every read: a snapshot, not a live view."""
        if self._vk is not None:
            return self._vk.link_state(self._ids[u], self._ids[v])
        return self._links[(u, v)]

    def kernel_stats(self) -> dict[str, int]:
        """Always-on forwarding-kernel counters; not part of any run
        summary.  Either kernel may deliver several same-instant arrivals
        of a flood from one engine entry, and these say how often.

        Under ``kernel="python"``: ``entries`` — flood entries fired, each
        a sibling run — and ``arrivals``, the hop arrivals they stood for
        (what the per-hop kernel fired one entry each for, and what
        ``Simulator.events_processed`` still counts); ``arrivals /
        entries`` is the mean run length.  Unicast and subcast hops are
        one entry each and not counted here.

        Under ``kernel="vector"``: the fired wave entries by executor
        (``loop_waves``, ``numpy_waves``, ``hooked_waves``) and the
        deliveries by path — ``column_deliveries`` counted in a
        reception-column row, ``scalar_deliveries`` handed to
        ``agent.receive``; the two sum to ``packets_delivered``."""
        if self._vk is None:
            return {
                "entries": self._flood_entries,
                "arrivals": self._flood_arrivals,
            }
        on_column = self._columns.deliveries
        return {
            **self._vk.stats(),
            "column_deliveries": on_column,
            "scalar_deliveries": self.packets_delivered - on_column,
        }

    # ------------------------------------------------------------------
    # Latency helpers
    # ------------------------------------------------------------------
    def control_delay(self, a: str, b: str) -> float:
        """One-way latency of a 0-byte control packet from ``a`` to ``b``
        over an idle network: pure propagation."""
        return self.tree.hop_distance(a, b) * self.propagation_delay

    def rtt(self, a: str, b: str) -> float:
        """Round-trip control latency between two nodes."""
        return 2.0 * self.control_delay(a, b)

    # ------------------------------------------------------------------
    # Send primitives
    # ------------------------------------------------------------------
    def multicast(self, packet: Packet) -> Packet:
        """Flood ``packet`` over the tree from ``packet.origin``."""
        packet.cast = Cast.MULTICAST
        packet.sent_at = self.sim._now
        if self.sim.tracer is not None:
            self._trace_send(packet)
        slot = _KIND_INDEX[packet.kind] * _N_CAST + _MULTICAST_COL
        if self._vk is not None:
            self._vk.flood_from(self._ids[packet.origin], packet, slot)
        else:
            self._flood_arrival((self._ids[packet.origin],), -1, packet, slot, False)
        return packet

    def unicast(self, dest: str, packet: Packet) -> Packet:
        """Send ``packet`` from ``packet.origin`` to ``dest`` along the
        unique tree path."""
        if dest == packet.origin:
            raise ValueError("unicast to self")
        packet.cast = Cast.UNICAST
        packet.sent_at = self.sim._now
        if self.sim.tracer is not None:
            self._trace_send(packet, dest=dest)
        dest_id = self._ids[dest]
        if dest_id in self._detached_ids:
            # The destination left the group after the sender learned its
            # name (stale cache entry / request under churn); the packet
            # dies in the network like any other loss.
            self.packets_dropped += 1
            return packet
        slot = _KIND_INDEX[packet.kind] * _N_CAST + _UNICAST_COL
        path = self._index.path_ints(self._ids[packet.origin], dest_id)
        if self._vk is not None:
            self._vk.unicast_transmit(path, 0, packet, False, slot)
        else:
            self._unicast_transmit(path, 0, packet, False, slot)
        return packet

    def unicast_then_subcast(self, turning_point: str, packet: Packet) -> Packet:
        """Router-assisted reply (§3.3): unicast from ``packet.origin`` up to
        the ``turning_point`` router, which then subcasts downstream."""
        packet.cast = Cast.SUBCAST
        packet.sent_at = self.sim._now
        packet.turning_point = turning_point
        if self.sim.tracer is not None:
            self._trace_send(packet, turning_point=turning_point)
        slot = _KIND_INDEX[packet.kind] * _N_CAST + _SUBCAST_COL
        origin_id = self._ids[packet.origin]
        if self._vk is not None:
            if turning_point == packet.origin:
                self._vk.subcast_from(origin_id, packet, origin_id, slot)
                return packet
            path = self._index.path_ints(origin_id, self._ids[turning_point])
            self._vk.unicast_transmit(path, 0, packet, True, slot)
            return packet
        if turning_point == packet.origin:
            self._subcast_from(origin_id, packet, origin_id, slot)
            return packet
        path = self._index.path_ints(origin_id, self._ids[turning_point])
        self._unicast_transmit(path, 0, packet, True, slot)
        return packet

    # ------------------------------------------------------------------
    # Internals (integer kernel)
    # ------------------------------------------------------------------
    def _flood_arrival(
        self,
        nodes: list[int] | tuple[int, ...],
        from_node: int,
        packet: Packet,
        slot: int,
        arrived: bool = True,
    ) -> None:
        """One engine entry of a flood: ``packet`` reaches every node of
        ``nodes`` — a *sibling run*, consecutive hops out of ``from_node``
        that land on this same instant — is delivered to each in hop order
        and forwarded on from it.  ``multicast`` calls it directly for the
        sending host (``arrived=False``: nothing is delivered or counted).

        Each outgoing hop is crossed exactly as :meth:`_transmit` would
        (same hop, hook and float-op order; the per-edge step, hooks
        included, is inlined — this is the per-hop loop of the paper's
        trace replay and of the session exchange),
        but a hop landing on the instant of the hop before it joins that
        hop's entry instead of scheduling its own.  The entries it joins
        would have sat next to it in the instant's bucket anyway — no
        agent code runs inside a forwarding loop, so nothing can be
        scheduled between them — which makes the grouping exact; see
        docs/performance.md ("Sibling runs and session rows").
        """
        sim = self.sim
        if arrived:
            extra = len(nodes) - 1
            self._flood_entries += 1
            self._flood_arrivals += extra + 1
            if extra:
                if sim.profiler is None:
                    sim._events_processed += extra  # inline of coalesced
                else:
                    sim.coalesced(extra)
        now = sim._now
        agents = self._agents_by_id
        adj = self._adj
        buckets = sim._buckets
        push_new = sim._push_new
        slots = self.crossings._slots
        size = packet.size_bytes
        is_data = packet.kind is _DATA_KIND
        arrival_entry = self._flood_arrival
        for node in nodes:
            if arrived:
                # Looked up now, not when the hop was crossed: the host may
                # have left or been re-attached while the packet was in flight.
                agent = agents[node]
                if agent is not None:
                    # A flood never revisits its origin (acyclic tree + the
                    # arrival-link exclusion), so no origin check is needed.
                    self.packets_delivered += 1
                    if sim.tracer is not None:
                        self._trace_deliver(node, packet)
                    agent.receive(packet)
            # Re-read after the delivery: between here and the end of this
            # node's hops only the hooks themselves run.
            tracer = sim.tracer
            faults = self.faults
            hooked = tracer is not None
            # The hops this packet dies on, from the injector's compiled
            # drop table: with no outage, no tracer and every rule a drop
            # table, that membership test is all on_hop would decide.
            dead = None
            if faults is not None and not hooked:
                table = (
                    None
                    if faults._down or not faults._rules_data_only
                    else faults._drop_table
                )
                if table is None:
                    hooked = True
                elif is_data:
                    dead = table.get(packet.seqno)
            run: list[int] = []
            run_at = _NEVER
            for to, u, v, link in adj[node]:
                if to == from_node:
                    continue
                slots[slot] += 1  # crossings count before loss
                copies = 1
                extra_delay = 0.0
                if dead is not None and (u, v) in dead:
                    self.packets_dropped += 1  # _record_drop, untraced
                    continue
                if hooked:
                    # Inline of _cross_hooks, hook for hook.
                    if faults is not None and (
                        faults._down or not faults._rules_data_only or is_data
                    ):
                        effect = faults.on_hop(u, v, packet)
                        if effect is not None:
                            if effect.drop:
                                self._record_drop(u, v, packet, tracer)
                                continue
                            if effect.duplicate:
                                copies = 2
                            extra_delay = effect.extra_delay
                    if tracer is not None:
                        self._trace_hop(u, v, link.busy_until, packet, tracer)
                while True:
                    # Inline of LinkState.enqueue, float-op order kept.
                    # Skipped where it is a no-op: an idle link adds +0.0
                    # to its queueing total, a 0-byte packet no time.
                    start = link.busy_until
                    if start > now:
                        link.queueing_delay_total += start - now
                    else:
                        start = now
                    if size > 0:
                        start += size * 8.0 / link.bandwidth_bps
                        link.bytes_carried += size
                    link.busy_until = start
                    link.packets_carried += 1
                    arrival = start + link.propagation_delay + extra_delay
                    if arrival == run_at:
                        run.append(to)
                    else:
                        # The first hop, or one a busy link or a fault's
                        # delay put on another instant: a new run.
                        run = [to]
                        run_at = arrival
                        entry = (arrival_entry, (run, node, packet, slot))
                        bucket = buckets.get(arrival)
                        if bucket is not None:
                            bucket.append(entry)
                        else:
                            push_new(arrival, entry)
                    if copies == 1:
                        break
                    # The duplicate serialises behind the original on the
                    # same link and floods on like it.
                    copies = 1
                    slots[slot] += 1

    def _subcast_from(
        self, router: int, packet: Packet, origin: int, slot: int
    ) -> None:
        for record in self._child_adj[router]:
            self._transmit(
                record,
                packet,
                slot,
                self._subcast_arrival,
                (record[0], packet, origin, slot),
            )

    def _subcast_arrival(
        self, node: int, packet: Packet, origin: int, slot: int
    ) -> None:
        agent = self._agents_by_id[node]
        if agent is not None and node != origin:
            # Subcast can sweep back over the replier itself; skip it.
            self._deliver(node, agent, packet)
        for record in self._child_adj[node]:
            self._transmit(
                record,
                packet,
                slot,
                self._subcast_arrival,
                (record[0], packet, origin, slot),
            )

    def _unicast_transmit(
        self,
        path: tuple[int, ...],
        index: int,
        packet: Packet,
        then_subcast: bool,
        slot: int,
    ) -> None:
        record = self._hop_record.get(path[index] << _HOP_SHIFT | path[index + 1])
        if record is None:
            # The next hop detached mid-flight (membership churn tore the
            # link down under this packet); it dies here.
            self.packets_dropped += 1
            return
        self._transmit(
            record,
            packet,
            slot,
            self._unicast_arrival,
            (path, index, packet, then_subcast, slot),
        )

    def _unicast_arrival(
        self,
        path: tuple[int, ...],
        index: int,
        packet: Packet,
        then_subcast: bool,
        slot: int,
    ) -> None:
        if index + 2 < len(path):
            self._unicast_transmit(path, index + 1, packet, then_subcast, slot)
            return
        node = path[index + 1]
        if then_subcast:
            self._subcast_from(node, packet, self._ids[packet.origin], slot)
            return
        agent = self._agents_by_id[node]
        if agent is None:
            if node in self._detached_ids:
                self.packets_dropped += 1
                return
            raise RuntimeError(
                f"unicast destination {self._names[node]!r} has no agent"
            )
        self._deliver(node, agent, packet)

    def _transmit(
        self,
        record: tuple[int, str, str, LinkState],
        packet: Packet,
        slot: int,
        on_arrival: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        """Cross one directed hop of a unicast or subcast and schedule
        ``on_arrival(*args)`` at its far end: the per-edge step — count,
        hooks (:meth:`_cross_hooks`), link — written plainly.
        :meth:`_flood_arrival` carries the same step inline."""
        _, u, v, link = record
        self.crossings._slots[slot] += 1  # crossings count before loss
        sim = self.sim
        tracer = sim.tracer
        copies = 1
        extra_delay = 0.0
        if self.faults is not None or tracer is not None:
            verdict = self._cross_hooks(u, v, link.busy_until, packet, tracer)
            if verdict is None:
                return
            copies, extra_delay = verdict
        now = sim._now
        arrival = link.enqueue(now, packet.size_bytes) + extra_delay
        sim.schedule_raw(arrival, on_arrival, args)
        if copies == 2:
            # The copy serializes behind the original on the same link and
            # continues with the same forwarding behaviour downstream.
            self.crossings._slots[slot] += 1
            arrival = link.enqueue(now, packet.size_bytes) + extra_delay
            sim.schedule_raw(arrival, on_arrival, args)

    def _cross_hooks(
        self, u: str, v: str, busy_until: float, packet: Packet, tracer
    ) -> tuple[int, float] | None:
        """The hooks of one crossing ``u -> v``, before the link admits
        it: the fault injector, the drop record, the hop's trace events.
        None when the packet dies here, else ``(copies, extra_delay)``.
        Both kernels' hop-by-hop paths call this; only the python flood
        loop (:meth:`_flood_arrival`) carries it inline."""
        verdict = _UNTOUCHED
        faults = self.faults
        if faults is not None and (
            faults._down
            or not faults._rules_data_only
            or packet.kind is _DATA_KIND
        ):
            # Skipped when every rule is tagged data-only, no link is down,
            # and this is not a DATA packet: on_hop would provably return
            # None without side effects.
            effect = faults.on_hop(u, v, packet)
            if effect is not None:
                if effect.drop:
                    self._record_drop(u, v, packet, tracer)
                    return None
                verdict = (2 if effect.duplicate else 1, effect.extra_delay)
        if tracer is not None:
            self._trace_hop(u, v, busy_until, packet, tracer)
        return verdict

    def _trace_hop(
        self, u: str, v: str, busy_until: float, packet: Packet, tracer
    ) -> None:
        """The trace events of one crossing, before the link admits it."""
        now = self.sim._now
        wait = busy_until - now
        tracer.emit(
            now,
            EventKind.NET_HOP,
            node=v,
            source=packet.source,
            seqno=packet.seqno,
            pkt=packet.kind.value,
            cast=packet.cast.value,
            link=f"{u}->{v}",
        )
        if wait > 0:
            tracer.emit(
                now,
                EventKind.NET_QUEUE,
                node=v,
                source=packet.source,
                seqno=packet.seqno,
                link=f"{u}->{v}",
                wait=wait,
            )
            tracer.observe("net.queueing_delay", wait)

    def _record_drop(self, u: str, v: str, packet: Packet, tracer) -> None:
        self.packets_dropped += 1
        if tracer is not None:
            tracer.emit(
                self.sim._now,
                EventKind.NET_DROP,
                node=v,
                source=packet.source,
                seqno=packet.seqno,
                pkt=packet.kind.value,
                link=f"{u}->{v}",
            )

    def _deliver(self, node: int, agent: Agent, packet: Packet) -> None:
        self.packets_delivered += 1
        if self.sim.tracer is not None:
            self._trace_deliver(node, packet)
        agent.receive(packet)

    def _trace_deliver(self, node: int, packet: Packet) -> None:
        now = self.sim._now
        self.sim.tracer.emit(
            now,
            EventKind.NET_DELIVER,
            node=self._names[node],
            source=packet.source,
            seqno=packet.seqno,
            pkt=packet.kind.value,
            cast=packet.cast.value,
            origin=packet.origin,
            latency=now - packet.sent_at,
        )

    def _trace_send(self, packet: Packet, **detail: Any) -> None:
        self.sim.tracer.emit(
            self.sim.now,
            EventKind.NET_SEND,
            node=packet.origin,
            source=packet.source,
            seqno=packet.seqno,
            pkt=packet.kind.value,
            cast=packet.cast.value,
            **detail,
        )
