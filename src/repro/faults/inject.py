"""Compile a :class:`~repro.faults.plan.FaultPlan` onto a wired run.

The :class:`FaultInjector` is the single authority for everything that can
go wrong on the wire.  It owns two mechanisms:

* **Scheduled events** — link outages, partitions, crashes/restarts, and
  session muting compile onto the run's timer wheel at
  :meth:`FaultInjector.install` time; each fires as an ordinary simulator
  event (and emits a ``fault.*`` trace event when the run is traced).
* **Hop rules** — per-hop packet interference.  The network consults
  :meth:`FaultInjector.on_hop` on every directed link crossing; rules are
  applied in installation order, the first *drop* wins, and duplicate /
  extra-delay effects accumulate.  Trace-driven data drops and the lossy
  recovery ablation are expressed as hop rules too (see
  :func:`trace_drop_rule` / :func:`recovery_loss_rule`), so plan-driven and
  trace-driven interference share one primitive instead of parallel code
  paths.

Trace drops are compiled once and shared by both kernels.  Each
:meth:`FaultInjector.add_hop_rule` recompiles the rules: while every rule
is a per-seqno drop table (``rule.link_combos``, as the trace replay's
is), the injector holds one table of the hops each DATA packet dies on,
and a hop no outage or tracer watches is decided by a membership test in
it — the python kernel's flood loop reads a seqno's hops once per node,
the vector kernel turns them into edge ids once per seqno — instead of a
call into :meth:`FaultInjector.on_hop` and the rule per crossing.  Any
other rule leaves nothing compiled, and every hop goes through
:meth:`FaultInjector.on_hop` as before.

Determinism: every stochastic rule owns a named
:class:`~repro.sim.rng.RngRegistry` stream (``fault:...``), and the hop
sequence is itself deterministic, so a plan's effects are a pure function
of (plan, seed).  An empty plan installs nothing and adds no draws.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Collection, Mapping

from repro.faults.plan import (
    FaultPlan,
    LinkDown,
    LinkFlap,
    NodeCrash,
    Partition,
    PacketDuplicate,
    PacketReorder,
    SessionSuppress,
)
from repro.net.packet import Packet, PacketKind
from repro.net.topology import LinkId
from repro.obs.events import EventKind
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class HopEffect:
    """The merged outcome of every hop rule for one link crossing."""

    __slots__ = ("drop", "duplicate", "extra_delay")

    def __init__(
        self, drop: bool = False, duplicate: bool = False, extra_delay: float = 0.0
    ) -> None:
        self.drop = drop
        self.duplicate = duplicate
        self.extra_delay = extra_delay


#: Shared terminal effect: the packet dies on this hop.
DROP = HopEffect(drop=True)

#: A hop rule: ``(now, u, v, packet) -> HopEffect | None`` (None = no
#: opinion).  A returned effect with ``drop`` set is terminal; other
#: effects merge (duplicate ORs, extra delays add).
HopRule = Callable[[float, str, str, Packet], HopEffect | None]


def trace_drop_rule(link_combos: Mapping[int, frozenset[LinkId]]) -> HopRule:
    """The trace replay as a hop rule: data packet ``i`` dies on exactly
    the links of the trace's link representation (§4.3)."""
    empty: frozenset[LinkId] = frozenset()

    def rule(now: float, u: str, v: str, packet: Packet) -> HopEffect | None:
        if packet.kind is PacketKind.DATA and (u, v) in link_combos.get(
            packet.seqno, empty
        ):
            return DROP
        return None

    # Declares the rule a pure function of DATA packets only: the network's
    # hot path may skip consulting the injector for other kinds entirely.
    rule.data_only = True
    # Exposes the drop table itself: the injector compiles it into the
    # table both kernels test hops against (FaultInjector._drop_table)
    # instead of calling the rule per crossing.
    rule.link_combos = link_combos
    return rule


def recovery_loss_rule(
    link_rates: Mapping[LinkId, float], rng: random.Random
) -> HopRule:
    """The lossy-recovery ablation as a hop rule: recovery traffic (never
    data, never session messages) Bernoulli-drops at the per-link rates."""

    def rule(now: float, u: str, v: str, packet: Packet) -> HopEffect | None:
        kind = packet.kind
        if kind is PacketKind.DATA or kind is PacketKind.SESSION:
            return None
        rate = link_rates.get((u, v)) or link_rates.get((v, u)) or 0.0
        if rate > 0.0 and rng.random() < rate:
            return DROP
        return None

    return rule


class _WindowedRule:
    """Shared machinery for plan-driven stochastic hop rules: active only
    inside ``[start, end)`` and (optionally) for one packet kind, drawing
    from a dedicated ``fault:`` stream."""

    def __init__(
        self,
        rate: float,
        kind: str | None,
        start: float,
        end: float | None,
        rng: random.Random,
    ) -> None:
        self.rate = rate
        self.kind = kind
        self.start = start
        self.end = math.inf if end is None else end
        self.rng = rng

    def _hit(self, now: float, packet: Packet) -> bool:
        if now < self.start or now >= self.end:
            return False
        if self.kind is not None and packet.kind.value != self.kind:
            return False
        return self.rng.random() < self.rate


class _DuplicateRule(_WindowedRule):
    def __call__(self, now: float, u: str, v: str, packet: Packet) -> HopEffect | None:
        if self._hit(now, packet):
            return HopEffect(duplicate=True)
        return None


class _ReorderRule(_WindowedRule):
    def __init__(self, max_delay: float, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_delay = max_delay

    def __call__(self, now: float, u: str, v: str, packet: Packet) -> HopEffect | None:
        if self._hit(now, packet):
            return HopEffect(extra_delay=self.rng.uniform(0.0, self.max_delay))
        return None


class _DropUnion:
    """Several per-seqno drop tables read as one: ``get(seqno)`` is the
    union of the hops every table drops that packet on.  Read through on
    each call, so a table mutated after it was added is seen as it is."""

    __slots__ = ("_tables",)

    def __init__(self, tables: tuple[Mapping[int, Collection[LinkId]], ...]) -> None:
        self._tables = tables

    def get(self, seqno: int, default=None):
        found = [hops for table in self._tables if (hops := table.get(seqno))]
        if not found:
            return default
        return frozenset().union(*found)


class FaultInjector:
    """Executes a :class:`FaultPlan` against one wired simulation.

    Construction wires the injector to the engine and network (the network
    calls :meth:`on_hop` for every link crossing once assigned to
    ``network.faults``); :meth:`install` validates the plan against the
    topology and compiles its scheduled events onto the timer wheel.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        network,
        registry: RngRegistry,
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.network = network
        self.registry = registry
        self._hop_rules: list[HopRule] = []
        #: True while every installed hop rule is tagged ``data_only`` (a
        #: pure function of DATA packets): together with an empty ``_down``
        #: this lets the network skip :meth:`on_hop` for control traffic.
        self._rules_data_only = True
        #: The compiled hop rules (see :meth:`_compile`): DATA seqno ->
        #: the directed hops it dies on, or None when some rule is not a
        #: drop table.  Both kernels decide an unobserved DATA hop by it.
        self._drop_table = self._compile()
        #: directed link -> number of active outages covering it.
        self._down: dict[tuple[str, str], int] = {}
        self._agents: dict = {}
        self._crash_hook: Callable[[str], None] | None = None
        self._installed = False
        # -- counters (surfaced via stats() on fault runs) -------------
        self.link_outages = 0
        self.packets_blocked = 0
        self.crashes = 0
        self.restarts = 0
        self.packets_duplicated = 0
        self.packets_delayed = 0

    # ------------------------------------------------------------------
    # Hop rules
    # ------------------------------------------------------------------
    def add_hop_rule(self, rule: HopRule) -> None:
        """Append a hop rule (applied in installation order)."""
        self._hop_rules.append(rule)
        if not getattr(rule, "data_only", False):
            self._rules_data_only = False
        self._drop_table = self._compile()

    def _compile(self) -> Mapping[int, Collection[LinkId]] | None:
        """One drop table for every installed rule, when each is a
        data-only per-seqno drop table (``rule.link_combos``): on_hop is
        then exactly a membership test of the crossing in the packet's
        entry, first drop or not.  None otherwise.  A single table is used
        as it is, so in-place edits to it stay visible."""
        tables = []
        for rule in self._hop_rules:
            table = getattr(rule, "link_combos", None)
            if table is None or not getattr(rule, "data_only", False):
                return None
            tables.append(table)
        if len(tables) == 1:
            return tables[0]
        return _DropUnion(tuple(tables))

    def on_hop(self, u: str, v: str, packet: Packet) -> HopEffect | None:
        """The network's per-crossing consultation point."""
        if self._down and self._down.get((u, v), 0) > 0:
            self.packets_blocked += 1
            return DROP
        merged: HopEffect | None = None
        now = self.sim._now
        for rule in self._hop_rules:
            effect = rule(now, u, v, packet)
            if effect is None:
                continue
            if effect.drop:
                return DROP
            if merged is None:
                merged = HopEffect()
            if effect.duplicate:
                merged.duplicate = True
                self.packets_duplicated += 1
                self._emit(EventKind.FAULT_DUPLICATE, packet=packet, link=f"{u}->{v}")
            if effect.extra_delay:
                merged.extra_delay += effect.extra_delay
                self.packets_delayed += 1
                self._emit(
                    EventKind.FAULT_REORDER,
                    packet=packet,
                    link=f"{u}->{v}",
                    delay=effect.extra_delay,
                )
        return merged

    # ------------------------------------------------------------------
    # Plan compilation
    # ------------------------------------------------------------------
    def install(
        self,
        agents: Mapping[str, object],
        end_time: float,
        on_host_crash: Callable[[str], None] | None = None,
    ) -> None:
        """Validate the plan against the wired world and schedule it.

        ``on_host_crash`` is the protocol's crash hook from its
        :class:`~repro.harness.registry.ProtocolSpec` (e.g. LMS records the
        crash against its router fabric for redesignation).
        """
        if self._installed:
            raise RuntimeError("fault plan already installed")
        self._installed = True
        self._agents = dict(agents)
        self._crash_hook = on_host_crash
        if self.plan.empty:
            return
        if self.plan.crashes_hosts:
            # Replier crashes make cached pairs go stale: arm the CESRM
            # eviction path so a failed expedited recovery forgets the pair.
            for agent in self._agents.values():
                if hasattr(agent, "evict_on_failure"):
                    agent.evict_on_failure = True
        for index, event in enumerate(self.plan):
            if isinstance(event, LinkDown):
                self._check_link(event.u, event.v)
                self._schedule_outage(
                    event.u, event.v, event.at, event.duration,
                    EventKind.FAULT_LINK_DOWN, EventKind.FAULT_LINK_UP,
                )
            elif isinstance(event, LinkFlap):
                self._check_link(event.u, event.v)
                self._schedule_flap(event, end_time)
            elif isinstance(event, Partition):
                parent = self.network.tree.parent(event.node)
                if parent is None:
                    raise ValueError(
                        f"partition: {event.node!r} is the root; it has no uplink"
                    )
                self._schedule_outage(
                    parent, event.node, event.at, event.duration,
                    EventKind.FAULT_PARTITION, EventKind.FAULT_HEAL,
                )
            elif isinstance(event, NodeCrash):
                self._check_host(event.host, "node-crash")
                self.sim.schedule_at(event.at, self._crash, event.host)
                if event.restart_after is not None:
                    self.sim.schedule_at(
                        event.at + event.restart_after, self._restart, event.host
                    )
            elif isinstance(event, SessionSuppress):
                self._check_host(event.host, "session-suppress")
                self.sim.schedule_at(event.at, self._mute, event.host)
                self.sim.schedule_at(
                    event.at + event.duration, self._unmute, event.host
                )
            elif isinstance(event, PacketDuplicate):
                self.add_hop_rule(
                    _DuplicateRule(
                        event.rate, event.kind, event.start, event.end,
                        self.registry.stream(f"fault:duplicate:{index}"),
                    )
                )
            elif isinstance(event, PacketReorder):
                self.add_hop_rule(
                    _ReorderRule(
                        event.max_delay,
                        event.rate, event.kind, event.start, event.end,
                        self.registry.stream(f"fault:reorder:{index}"),
                    )
                )
            else:  # pragma: no cover - exhaustive over plan event types
                raise TypeError(f"unhandled fault event {event!r}")

    def _check_link(self, u: str, v: str) -> None:
        tree = self.network.tree
        if tree.parent(v) != u and tree.parent(u) != v:
            raise ValueError(f"no tree link between {u!r} and {v!r}")

    def _check_host(self, host: str, what: str) -> None:
        if host not in self._agents:
            raise ValueError(f"{what}: no agent at host {host!r}")

    # ------------------------------------------------------------------
    # Scheduled-event handlers
    # ------------------------------------------------------------------
    def _schedule_outage(
        self,
        u: str,
        v: str,
        at: float,
        duration: float | None,
        down_kind: str,
        up_kind: str,
    ) -> None:
        self.sim.schedule_at(at, self._link_down, u, v, down_kind)
        if duration is not None:
            self.sim.schedule_at(at + duration, self._link_up, u, v, up_kind)

    def _schedule_flap(self, event: LinkFlap, end_time: float) -> None:
        rng = self.registry.stream(f"fault:flap:{event.u}-{event.v}")
        horizon = end_time if event.end is None else min(event.end, end_time)
        t = event.start
        while True:
            down_at = t + rng.expovariate(1.0 / event.mean_up)
            if down_at >= horizon:
                break
            up_at = down_at + rng.expovariate(1.0 / event.mean_down)
            self._schedule_outage(
                event.u, event.v, down_at, up_at - down_at,
                EventKind.FAULT_LINK_DOWN, EventKind.FAULT_LINK_UP,
            )
            t = up_at
            if t >= horizon:
                break

    def _link_down(self, u: str, v: str, kind: str) -> None:
        for pair in ((u, v), (v, u)):
            self._down[pair] = self._down.get(pair, 0) + 1
        self.link_outages += 1
        self._emit(kind, link=f"{u}-{v}")

    def _link_up(self, u: str, v: str, kind: str) -> None:
        for pair in ((u, v), (v, u)):
            count = self._down.get(pair, 0) - 1
            if count > 0:
                self._down[pair] = count
            else:
                self._down.pop(pair, None)
        self._emit(kind, link=f"{u}-{v}")

    def _crash(self, host: str) -> None:
        self._agents[host].fail()
        self.crashes += 1
        if self._crash_hook is not None:
            self._crash_hook(host)
        self._emit(EventKind.FAULT_CRASH, node=host)

    def _restart(self, host: str) -> None:
        self._agents[host].restart()
        self.restarts += 1
        self._emit(EventKind.FAULT_RESTART, node=host)

    def _mute(self, host: str) -> None:
        self._agents[host].session_muted = True
        self._emit(EventKind.FAULT_SESSION_MUTE, node=host)

    def _unmute(self, host: str) -> None:
        self._agents[host].session_muted = False
        self._emit(EventKind.FAULT_SESSION_UNMUTE, node=host)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_link_down(self, u: str, v: str) -> bool:
        return self._down.get((u, v), 0) > 0

    def is_host_down(self, host: str) -> bool:
        agent = self._agents.get(host)
        return bool(agent is not None and getattr(agent, "failed", False))

    def stats(self) -> dict:
        """Injection counters for :class:`~repro.exec.summary.RunSummary`
        (attached only on fault runs, keeping fault-free bytes unchanged)."""
        suppressed = sum(
            getattr(agent, "sessions_suppressed", 0)
            for agent in self._agents.values()
        )
        cache_evictions = sum(
            cache.evictions
            for agent in self._agents.values()
            for cache in getattr(agent, "caches", {}).values()
        )
        return {
            "plan_events": len(self.plan),
            "link_outages": self.link_outages,
            "packets_blocked": self.packets_blocked,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "packets_duplicated": self.packets_duplicated,
            "packets_delayed": self.packets_delayed,
            "sessions_suppressed": suppressed,
            "cache_evictions": cache_evictions,
        }

    def _emit(self, kind: str, packet: Packet | None = None, **detail) -> None:
        tracer = self.sim.tracer
        if tracer is None:
            return
        if packet is not None:
            tracer.emit(
                self.sim.now,
                kind,
                source=packet.source,
                seqno=packet.seqno,
                pkt=packet.kind.value,
                **detail,
            )
        else:
            tracer.emit(self.sim.now, kind, **detail)


__all__ = [
    "DROP",
    "FaultInjector",
    "HopEffect",
    "HopRule",
    "recovery_loss_rule",
    "trace_drop_rule",
]
