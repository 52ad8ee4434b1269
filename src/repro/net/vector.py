"""Kernel v2: delivery waves with two executors on columnar link state.

The pure-python kernel (:mod:`repro.net.network`) processes one hop
arrival per engine event: pop an entry, deliver to the node's agent,
enqueue each outgoing hop on its :class:`~repro.net.link.LinkState`, and
schedule one new entry per hop.  At 10^5 receivers a single data packet
is ~2·10^5 events, each paying python-level attribute and dict traffic.

This module processes *delivery waves* instead.  A wave is every hop
arrival of one packet that one firing lands at one instant — on a
depth-synchronised tree flood that is an entire frontier.  One bucket
entry carries the frontier (the nodes reached and, for a flood, the node
each was reached from); firing it crosses every outgoing hop of the
frontier, groups the arrival instants into the next waves, and delivers
to the frontier's agents.

Two executors, one wave structure
---------------------------------

How a wave is *executed* depends only on its size; what it *is* — one
engine entry per arrival instant, hops in the python kernel's order,
link math in the python kernel's float-op order — never does.

* **loop** (frontier below :data:`CROSSOVER`, and every hooked wave): a
  plain python loop over per-node ``(to, eid)`` adjacency rows (built
  lazily for the nodes small waves actually visit), scalar reads and
  writes on the link columns, a dict keyed by arrival instant collecting
  the next waves as python lists.  Recovery traffic lives here: a
  request or reply flood from a leaf is thousands of waves of a handful
  of nodes, where one numpy call costs more than the whole wave.
* **numpy** (frontier at or above the crossover): CSR gathers expand the
  whole hop generation (rows in the python kernel's ``_adj`` order),
  deterministic trace losses are one ``np.isin`` over per-seqno edge-id
  arrays, link state advances elementwise, ``np.unique`` groups the
  arrivals.

A wave's lists become ``int32`` arrays (or back) only when it crosses
the crossover, so a low-fan-out flood still coalesces 1 → 2 → 4 → … on
the loop and hands over to numpy once the frontier is wide enough.  The
four link columns are ``array.array`` buffers (fast scalar access for
the loop) viewed through ``np.frombuffer`` (the numpy executor's
columns): one memory, one authority.

Equivalence discipline
----------------------

The vector kernel is an *optimisation of event mechanics only*: every
observable — metrics, crossings, RNG draw order, trace events, fault
counters, summary bytes — must match the python kernel exactly
(``tests/test_kernel_equivalence.py`` gates this, under both executors).
Two rules keep that true:

* **Single authority.**  In vector mode the columns are the only link
  state — the network builds no ``LinkState`` objects or per-hop records
  at all — and every send primitive (multicast, unicast, subcast) runs
  on them.  ``Network.link_state`` builds a ``LinkState`` from the
  columns on read.
* **Hooks only on the loop.**  A wave is *hooked* when something can
  observe or decide individual hops: a tracer, an active outage, or a
  fault rule the injector could not compile into its drop table (that
  takes every rule being a deterministic trace-drop table,
  ``rule.link_combos``; the python kernel's flood loop reads the same
  compiled table).  Hooked waves — and unicast hops, a frontier
  of one with one edge — run the same loop with the hooks live in
  python-kernel order: deliver to a node, then run the network's
  per-hop hooks (``Network._cross_hooks``: ``faults.on_hop``, the drop
  record, the hop's trace events) for each of its hops in turn; a
  duplicated hop crosses its link twice and a delayed one simply lands
  in a later wave.  Unhooked waves cross all hops first and deliver
  afterwards, identically under both executors.

An unhooked DATA flood delivers through the network's *reception
columns* first (:mod:`repro.net.columns`): every plain host of the
frontier that is due exactly this packet takes it as ``count += 1`` on
the source's column, and only the rest get ``agent.receive`` — in wave
order.  In-order DATA at a plain host touches nothing but that count, so
the order among the counted hosts is immaterial.

Why that reordering inside an unhooked wave is safe: flood deliveries
never send synchronously (receive paths only arm jittered timers), a
tree flood crosses each directed edge at most once per packet, and
zero-delay timers append to the *current* bucket — after the wave entry
— in both kernels.  See docs/performance.md ("Kernel v2") for the full
argument.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any

import numpy as np

from repro.net.link import LinkState
from repro.net.network import _DATA_KIND, _HOP_SHIFT

#: Frontier size at which a wave moves from the python loop to numpy.
#: Measured, not configured: in a sweep over 0…100 000 on the bench's two
#: vector workloads and the ``bench_kernel`` v2 tree, ``lossy_scale``
#: falls until ~48 and is flat beyond, ``scale_lossfree`` is flat from 8
#: to 128 and the depth-12 tree from 24 to 96 (docs/performance.md has
#: the table).  Every value yields byte-identical runs; tests pin that by
#: patching it to 0 (always numpy) and to a huge value (always loop).
CROSSOVER = 48

#: :meth:`VectorKernel._drops` verdict: this packet's hops are observed.
_HOOKED = object()

#: The link columns: (backing attribute, array typecode, ndarray view).
_COLUMNS = (
    ("_busy", "d", "_busy_np"),
    ("_qd", "d", "_qd_np"),
    ("_pkts", "q", "_pkts_np"),
    ("_bytes", "q", "_bytes_np"),
)


class _Rows(dict):
    """The loop executor's adjacency: node -> ``((to, eid), ...)`` in
    fan-out order, built the first time a small wave visits the node —
    large frontiers never pay for rows they cross on numpy."""

    __slots__ = ("_fan_out", "_alive", "_edge_of")

    def __init__(self, fan_out: list, alive: bytearray, edge_of: dict[int, int]) -> None:
        self._fan_out = fan_out
        self._alive = alive
        self._edge_of = edge_of

    def __missing__(self, node: int) -> tuple:
        edge_of = self._edge_of
        base = node << _HOP_SHIFT
        row = self[node] = (
            tuple((to, edge_of[base | to]) for to in self._fan_out[node])
            if self._alive[node]
            else ()
        )
        return row


class VectorKernel:
    """Delivery-wave forwarding engine for one :class:`Network`.

    Constructed by ``Network(..., kernel="vector")``; the network keeps
    owning topology, agents, counters, and tracing, and delegates the
    three send primitives here.
    """

    def __init__(self, net: Any) -> None:
        self.net = net
        self.sim = net.sim
        # -- columnar link state (edge-id indexed) ---------------------
        #: hop key (``u << _HOP_SHIFT | v``) -> edge id.  Ids are
        #: append-only: a detached hop's key is deleted and a rejoining
        #: receiver interns *fresh* ids, matching the python kernel's
        #: fresh ``LinkState`` on re-attach.
        self._edge_of: dict[int, int] = {}
        self._n_edges = 0
        self._cap = 0
        for backing, code, view in _COLUMNS:
            column = array(code)
            setattr(self, backing, column)
            setattr(self, view, np.frombuffer(column, dtype=code))
        # -- adjacency (rebuilt lazily after churn) --------------------
        self._dirty = True
        #: Flood (``index.neighbors``) and subcast (``index.children``)
        #: fan-out, twice over: CSR tables ``(ptr, to, edge)`` for the
        #: numpy executor, lazily filled :class:`_Rows` for the loop.  Set
        #: by _rebuild.
        self._csr: Any = None
        self._child_csr: Any = None
        self._rows: Any = None
        self._child_rows: Any = None
        # -- per-seqno trace-drop edge sets (see _drops) ---------------
        #: seqno -> the edge ids it dies on, read from the injector's
        #: compiled drop table ``_drop_cache_of``; cleared on rebuild and
        #: whenever the injector recompiles.
        self._drop_cache: dict[int, tuple[frozenset, np.ndarray] | None] = {}
        self._drop_cache_of: Any = None
        # -- fired wave entries by executor (Network.kernel_stats) -----
        self.loop_waves = 0
        self.numpy_waves = 0
        self.hooked_waves = 0

    # ------------------------------------------------------------------
    # Columnar link state
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = max(64, self._cap * 2)
        while cap < need:
            cap *= 2
        live = self._n_edges
        for backing, code, view in _COLUMNS:
            # A fresh buffer each time: the old one is pinned at its size
            # by the ndarray view exported from it.
            column = getattr(self, backing)[:live]
            column.frombytes(bytes(column.itemsize * (cap - live)))
            setattr(self, backing, column)
            setattr(self, view, np.frombuffer(column, dtype=code))
        self._cap = cap

    def _intern(self, key: int) -> int:
        eid = self._edge_of.get(key)
        if eid is None:
            eid = self._n_edges
            if eid >= self._cap:
                self._grow(eid + 1)
            self._edge_of[key] = eid
            self._n_edges = eid + 1
        return eid

    def invalidate(self, *stale_keys: int) -> None:
        """Topology changed (churn): forget ``stale_keys``' edge ids so a
        re-attached hop interns fresh zeroed state, and mark the
        adjacency for lazy rebuild."""
        for key in stale_keys:
            self._edge_of.pop(key, None)
        self._dirty = True

    def link_state(self, u_id: int, v_id: int) -> LinkState:
        """A ``LinkState`` built from a live hop's columns (the
        ``Network.link_state`` read path); KeyError for any other pair."""
        if self._dirty:
            self._rebuild()
        net = self.net
        eid = self._edge_of.get(u_id << _HOP_SHIFT | v_id)
        if eid is None:
            raise KeyError((net._names[u_id], net._names[v_id]))
        return LinkState(
            bandwidth_bps=net.bandwidth_bps,
            propagation_delay=net.propagation_delay,
            busy_until=self._busy[eid],
            packets_carried=self._pkts[eid],
            bytes_carried=self._bytes[eid],
            queueing_delay_total=self._qd[eid],
        )

    def stats(self) -> dict[str, int]:
        """Fired wave entries by executor (initial sends and unicast hops
        are not waves)."""
        return {
            "loop_waves": self.loop_waves,
            "numpy_waves": self.numpy_waves,
            "hooked_waves": self.hooked_waves,
        }

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Rebuild both CSR tables from the live topology index (the
        single source of truth under membership churn) and forget the
        loop executor's rows.  A live node fans out over
        ``index.neighbors`` (flood: children, then the parent) or
        ``index.children`` (subcast) — the order the python kernel's
        ``_adj`` / ``_child_adj`` records are built in, so hop order is
        exactly its loop order; a detached node fans out to nothing."""
        index = self.net._index
        alive = index.alive
        tables = []
        for fan_out in (index.neighbors, index.children):
            n = len(fan_out)
            total = sum(len(fan_out[node]) for node in range(n) if alive[node])
            ptr = np.zeros(n + 1, dtype=np.int64)
            adj_to = np.empty(total, dtype=np.int32)
            adj_edge = np.empty(total, dtype=np.int32)
            i = 0
            for node, nodes in enumerate(fan_out):
                ptr[node] = i
                if not alive[node]:
                    continue
                for to in nodes:
                    adj_to[i] = to
                    adj_edge[i] = self._intern(node << _HOP_SHIFT | to)
                    i += 1
            ptr[n] = i
            tables.append((ptr, adj_to, adj_edge))
        self._csr, self._child_csr = tables
        self._rows = _Rows(index.neighbors, alive, self._edge_of)
        self._child_rows = _Rows(index.children, alive, self._edge_of)
        self._drop_cache.clear()
        self._dirty = False

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _drops(self, packet: Any) -> Any:
        """What stands between ``packet`` and an unobserved crossing *now*:
        ``_HOOKED`` when something can observe or decide its individual
        hops (see module docstring); otherwise the edge ids on which it
        deterministically dies — its entry in the injector's compiled
        drop table (:class:`~repro.faults.inject.FaultInjector`), as
        ``(set for the loop, array for np.isin)`` — or None when it
        crosses everything."""
        if self.sim.tracer is not None:
            return _HOOKED
        net = self.net
        faults = net.faults
        if faults is None:
            return None
        if faults._down or not faults._rules_data_only:
            return _HOOKED
        if packet.kind is not _DATA_KIND:
            # The network's own gate skips on_hop entirely here.
            return None
        table = faults._drop_table
        if table is None:
            return _HOOKED
        cache = self._drop_cache
        if table is not self._drop_cache_of:
            # The injector recompiled (a rule was added): forget the ids
            # read from the table it replaced.
            cache.clear()
            self._drop_cache_of = table
        seqno = packet.seqno
        if seqno in cache:
            return cache[seqno]
        ids = net._ids
        edge_of = self._edge_of
        eids: set[int] = set()
        for u, v in table.get(seqno, ()):
            eid = edge_of.get(ids[u] << _HOP_SHIFT | ids[v])
            if eid is not None:  # detached hops are never crossed
                eids.add(eid)
        drops = cache[seqno] = (
            (frozenset(eids), np.fromiter(eids, dtype=np.int32, count=len(eids)))
            if eids
            else None
        )
        return drops

    # ------------------------------------------------------------------
    # Entry points (called by Network's send primitives)
    # ------------------------------------------------------------------
    def flood_from(self, origin: int, packet: Any, slot: int) -> None:
        """The synchronous half of ``Network.multicast``: a frontier of
        one that crosses its hops without being delivered to."""
        self._wave(packet, slot, [origin], [-1], -1, False)

    def subcast_from(self, router: int, packet: Any, origin: int, slot: int) -> None:
        self._wave(packet, slot, [router], None, origin, False)

    def unicast_transmit(
        self,
        path: tuple[int, ...],
        index: int,
        packet: Any,
        then_subcast: bool,
        slot: int,
    ) -> None:
        """``Network._unicast_transmit`` on the columns: the loop executor
        over a frontier of one whose row is the path's single next hop."""
        if self._dirty:
            self._rebuild()
        u = path[index]
        v = path[index + 1]
        eid = self._edge_of.get(u << _HOP_SHIFT | v)
        if eid is None:
            # The next hop detached mid-flight (membership churn).
            self.net.packets_dropped += 1
            return
        groups = self._cross_loop(
            packet, slot, (u,), None, {u: ((v, eid),)}, -1, False,
            self._drops(packet),
        )
        sim = self.sim
        args = (path, index, packet, then_subcast, slot)
        for t, (arrivals, _) in groups.items():
            for _ in arrivals:  # twice when the hop was duplicated
                sim.schedule_raw(t, self._unicast_arrival, args)

    def _unicast_arrival(
        self,
        path: tuple[int, ...],
        index: int,
        packet: Any,
        then_subcast: bool,
        slot: int,
    ) -> None:
        net = self.net
        if index + 2 < len(path):
            self.unicast_transmit(path, index + 1, packet, then_subcast, slot)
            return
        node = path[index + 1]
        if then_subcast:
            self.subcast_from(node, packet, net._ids[packet.origin], slot)
            return
        agent = net._agents_by_id[node]
        if agent is None:
            if node in net._detached_ids:
                net.packets_dropped += 1
                return
            raise RuntimeError(
                f"unicast destination {net._names[node]!r} has no agent"
            )
        net._deliver(node, agent, packet)

    # ------------------------------------------------------------------
    # Waves (fired as raw engine entries)
    # ------------------------------------------------------------------
    def _wave(
        self,
        packet: Any,
        slot: int,
        to_ids: Any,
        from_ids: Any,
        origin: int,
        deliver: bool,
    ) -> None:
        """Cross every outgoing hop of the frontier ``to_ids`` — a flood
        when ``from_ids`` names each node's arrival link, else a subcast
        away from ``origin`` — and schedule the next waves.  Fired as an
        engine entry (``deliver``) the frontier is an arrival: it counts
        as one event per node and the packet goes to the nodes' agents."""
        if self._dirty:
            self._rebuild()
        flood = from_ids is not None
        drops = self._drops(packet)
        hooked = drops is _HOOKED
        on_loop = hooked or len(to_ids) < CROSSOVER
        if deliver:
            # One engine event stands in for len(wave) python-kernel
            # arrivals.
            self.sim.coalesced(len(to_ids) - 1)
            if hooked:
                self.hooked_waves += 1
            elif on_loop:
                self.loop_waves += 1
            else:
                self.numpy_waves += 1
        if on_loop:
            if type(to_ids) is not list:
                to_ids = to_ids.tolist()
                if flood:
                    from_ids = from_ids.tolist()
            groups = self._cross_loop(
                packet, slot, to_ids, from_ids,
                self._rows if flood else self._child_rows,
                origin, deliver, drops,
            )
        else:
            if type(to_ids) is list:
                to_ids = np.array(to_ids, dtype=np.int32)
                if flood:
                    from_ids = np.array(from_ids, dtype=np.int32)
            groups = self._cross_numpy(packet, slot, to_ids, from_ids, drops)
        if groups:
            sim = self.sim
            buckets = sim._buckets
            wave = self._wave
            for t, (hop_to, hop_from) in groups.items():
                # The loop collects arrival links for a subcast too; drop them.
                args = (packet, slot, hop_to, hop_from if flood else None, origin, True)
                bucket = buckets.get(t)
                if bucket is not None:
                    bucket.append((wave, args))
                else:
                    sim._push_new(t, (wave, args))
        if deliver and not hooked:
            net = self.net
            agents = net._agents_by_id
            delivered = 0
            if flood and packet.kind is _DATA_KIND:
                # Receivers as rows: plain hosts due exactly this packet
                # take it as ``count += 1`` on the source's column; only
                # the rest of the frontier is delivered to, in wave order.
                rest = net._columns.deliver(packet.source, packet.seqno, to_ids)
                delivered = len(to_ids) - len(rest)
                to_ids = rest
            elif type(to_ids) is not list:
                to_ids = to_ids.tolist()
            for node in to_ids:
                agent = agents[node]
                # Subcast can sweep back over the replier itself; a flood
                # never revisits its origin (``origin`` is -1 there).
                if agent is not None and node != origin:
                    delivered += 1
                    agent.receive(packet)
            net.packets_delivered += delivered

    # ------------------------------------------------------------------
    # The per-edge step, rendered twice: python loop, numpy columns
    # ------------------------------------------------------------------
    def _cross_loop(
        self,
        packet: Any,
        slot: int,
        to_ids: Any,
        from_ids: Any,
        rows: Any,
        origin: int,
        deliver: bool,
        drops: Any,
    ) -> dict:
        """Loop executor: node-major, adjacency order — exactly the order
        the python kernel's nested loops enqueue hops — with the link
        math of ``Network._transmit`` on scalar column reads and writes.
        Returns ``{arrival instant: (to list, from list)}``, hops sharing
        an instant in hop order.  Hooked (``drops is _HOOKED``), it delivers
        to each node before its hops and runs ``Network._cross_hooks`` per
        hop."""
        net = self.net
        sim = self.sim
        now = sim._now
        busy = self._busy
        qd = self._qd
        pkts = self._pkts
        nbytes = self._bytes
        size = packet.size_bytes
        tx = size * 8.0 / net.bandwidth_bps
        propagation = net.propagation_delay
        hooked = drops is _HOOKED
        dead = () if hooked or drops is None else drops[0]
        deliver_first = deliver and hooked
        agents = net._agents_by_id
        names = net._names
        groups: dict = {}
        crossed = 0
        dropped = 0
        copies = 1
        extra_delay = 0.0
        for node, from_node in zip(
            to_ids, from_ids if from_ids is not None else repeat(-1)
        ):
            if deliver_first:
                agent = agents[node]
                if agent is not None and node != origin:
                    net._deliver(node, agent, packet)
            for to, eid in rows[node]:
                if to == from_node:
                    continue
                crossed += 1  # crossings count before loss
                if hooked:
                    verdict = net._cross_hooks(
                        names[node], names[to], busy[eid], packet, sim.tracer
                    )
                    if verdict is None:
                        continue
                    copies, extra_delay = verdict
                elif eid in dead:
                    dropped += 1
                    continue
                while True:
                    # Float-op order identical to LinkState.enqueue (all
                    # links share one bandwidth).
                    start = busy[eid]
                    if start > now:
                        qd[eid] += start - now
                    else:
                        start = now  # idle link: the delay added is +0.0
                    if size > 0:
                        end = start + tx
                        nbytes[eid] += size
                    else:
                        end = start
                    busy[eid] = end
                    pkts[eid] += 1
                    arrival = end + propagation + extra_delay
                    group = groups.get(arrival)
                    if group is None:
                        groups[arrival] = ([to], [node])
                    else:
                        group[0].append(to)
                        group[1].append(node)
                    if copies == 1:
                        break
                    # The duplicate serialises behind the original on the
                    # same link, exactly like LinkState.enqueue would.
                    copies = 1
                    crossed += 1
        net.crossings._slots[slot] += crossed
        net.packets_dropped += dropped
        return groups

    def _cross_numpy(
        self,
        packet: Any,
        slot: int,
        to_ids: np.ndarray,
        from_ids: np.ndarray | None,
        drops: tuple | None,
    ) -> dict:
        """Numpy executor: the same hops in the same order as
        :meth:`_cross_loop`, gathered from the CSR tables and crossed at
        once.  Within one wave every directed edge appears at most once
        (tree flood), so the elementwise column updates are exact replays
        of per-hop sequential updates.  Returns ``{arrival instant: (to
        array, from array or None for a subcast)}``."""
        # Expansion: child counts -> cumsum -> repeat/arange offsets.
        ptr, adj_to, adj_edge = self._csr if from_ids is not None else self._child_csr
        base = ptr[to_ids]
        counts = ptr[to_ids + 1] - base
        total = int(counts.sum())
        if total == 0:
            return {}
        cum = np.cumsum(counts)
        pos = np.repeat(base - (cum - counts), counts) + np.arange(
            total, dtype=np.int64
        )
        hop_to = adj_to[pos]
        hop_edge = adj_edge[pos]
        hop_from = None  # only a flood's next wave needs arrival links
        if from_ids is not None:
            hop_from = np.repeat(to_ids, counts)
            keep = hop_to != np.repeat(from_ids, counts)
            if not keep.all():
                hop_to = hop_to[keep]
                hop_edge = hop_edge[keep]
                hop_from = hop_from[keep]
        n_hops = len(hop_edge)
        if n_hops == 0:
            return {}
        # Crossings count before loss, exactly like Network._transmit.
        net = self.net
        net.crossings._slots[slot] += n_hops
        # Deterministic trace losses (§4.3), batched.
        if drops is not None:
            dropped = np.isin(hop_edge, drops[1])
            n_dropped = int(dropped.sum())
            if n_dropped:
                net.packets_dropped += n_dropped
                keep = ~dropped
                if hop_from is not None:
                    hop_from = hop_from[keep]
                hop_to = hop_to[keep]
                hop_edge = hop_edge[keep]
                if not len(hop_edge):
                    return {}
        # Link math — float-op order identical to LinkState.enqueue (all
        # links share bandwidth, so tx is scalar).
        now = self.sim._now
        start = np.maximum(self._busy_np[hop_edge], now)
        self._qd_np[hop_edge] += start - now
        size = packet.size_bytes
        if size > 0:
            end = start + size * 8.0 / net.bandwidth_bps
            self._bytes_np[hop_edge] += size
        else:
            end = start
        self._busy_np[hop_edge] = end
        self._pkts_np[hop_edge] += 1
        arrival = end + net.propagation_delay
        # Group by arrival instant.  Hops sharing an instant stay in hop
        # order (stable grouping), so the wave entry is byte-equivalent
        # to the python kernel's contiguous per-hop appends into that
        # bucket.  Creation order *across* distinct instants is
        # immaterial — a bucket's heap position depends only on its
        # timestamp.
        if arrival[0] == arrival[-1] and (arrival == arrival[0]).all():
            return {float(arrival[0]): (hop_to, hop_from)}
        uniq, inverse = np.unique(arrival, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse)).tolist()
        groups = {}
        lo = 0
        for t, hi in zip(uniq.tolist(), bounds):
            idx = order[lo:hi]
            groups[t] = (hop_to[idx], None if hop_from is None else hop_from[idx])
            lo = hi
        return groups


__all__ = ["CROSSOVER", "VectorKernel"]
