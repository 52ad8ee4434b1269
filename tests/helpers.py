"""Shared test fixtures: small controlled worlds for protocol tests.

Protocol unit tests need precise control over topology, losses, and time.
``make_world`` wires a :class:`Simulator`, a :class:`Network`, and one agent
per host on a small explicit tree, with a recording metrics collector that
timestamps every event — so tests can assert *when* requests and replies
fire, not just that they fired.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.agent import CesrmAgent
from repro.core.policies import make_policy
from repro.core.router_assist import RouterAssistedCesrmAgent
from repro.faults import DROP, FaultInjector, FaultPlan, trace_drop_rule
from repro.metrics.collector import MetricsCollector
from repro.net.network import Network
from repro.net.packet import Packet, PacketKind
from repro.net.topology import MulticastTree
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.srm.agent import SrmAgent
from repro.srm.constants import SrmParams
from repro.traces.model import LossTrace, SyntheticTrace


def line_tree() -> MulticastTree:
    """s -> x1 -> {r1, r2}: the smallest interesting tree."""
    return MulticastTree("s", {"x1": "s", "r1": "x1", "r2": "x1"}, ["r1", "r2"])


def two_subtrees() -> MulticastTree:
    """s -> x0 -> {x1 -> {r1, r2}, x2 -> {r3, r4}}: two loss domains."""
    parents = {
        "x0": "s",
        "x1": "x0",
        "x2": "x0",
        "r1": "x1",
        "r2": "x1",
        "r3": "x2",
        "r4": "x2",
    }
    return MulticastTree("s", parents, ["r1", "r2", "r3", "r4"])


def deep_tree() -> MulticastTree:
    """A 4-deep tree with receivers at different depths."""
    parents = {
        "x1": "s",
        "x2": "x1",
        "x3": "x2",
        "r1": "x3",
        "r2": "x3",
        "r3": "x2",
        "r4": "x1",
    }
    return MulticastTree("s", parents, ["r1", "r2", "r3", "r4"])


class RecordingMetrics(MetricsCollector):
    """A metrics collector that also timestamps events (for timing tests)."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__()
        self.sim = sim
        self.send_log: list[tuple[float, str, PacketKind, int]] = []
        self.detection_log: list[tuple[float, str, int]] = []
        self.recovery_log: list[tuple[float, str, int, bool]] = []

    def on_send(self, host: str, packet: Packet) -> None:
        super().on_send(host, packet)
        self.send_log.append((self.sim.now, host, packet.kind, packet.seqno))

    def on_loss_detected(self, host: str, seq: int, time: float) -> None:
        super().on_loss_detected(host, seq, time)
        self.detection_log.append((time, host, seq))

    def on_recovery(self, host, seq, latency, expedited, requests_sent) -> None:
        super().on_recovery(host, seq, latency, expedited, requests_sent)
        self.recovery_log.append((self.sim.now, host, seq, expedited))

    def sends_of(self, kind: PacketKind, host: str | None = None):
        return [
            entry
            for entry in self.send_log
            if entry[2] is kind and (host is None or entry[1] == host)
        ]


class ReceiveSpy:
    """Attached over a host's agent through :meth:`Network.attach`: keeps
    every delivered packet of ``kinds`` in ``captured``, then hands each
    packet to the agent.  (Agents are slotted, so a spy cannot be set on
    the instance; and a proxy is what the network delivers to anyway.)"""

    def __init__(self, network: Network, agent: SrmAgent, *kinds: PacketKind) -> None:
        self.agent = agent
        self.host_id = agent.host_id
        self.kinds = kinds
        self.captured: list[Packet] = []
        network.attach(agent.host_id, self)

    def receive(self, packet: Packet) -> None:
        if packet.kind in self.kinds:
            self.captured.append(packet)
        self.agent.receive(packet)


class Sink:
    """A stand-in agent for network tests: logs ``(time, host, kind,
    seqno)`` of every packet delivered to ``host``."""

    def __init__(self, sim: Simulator, host: str, log: list) -> None:
        self.sim, self.host, self.log = sim, host, log

    def receive(self, packet: Packet) -> None:
        self.log.append((self.sim.now, self.host, packet.kind.value, packet.seqno))


def fault_injector(network: Network) -> FaultInjector:
    """The network's fault injector — every hop's one decider — built
    empty (no plan, no rules) and assigned on first use."""
    if network.faults is None:
        network.faults = FaultInjector(
            FaultPlan(), network.sim, network, RngRegistry(0)
        )
    return network.faults


def drop_hops(network: Network, lost) -> None:
    """Drop every crossing ``u -> v`` of a packet for which ``lost(u, v,
    packet)`` holds: a plain hop rule (any packet kind, so it runs every
    kernel's hop-by-hop path), consulted after the rules already on the
    network's injector."""

    def rule(now: float, u: str, v: str, packet: Packet):
        return DROP if lost(u, v, packet) else None

    fault_injector(network).add_hop_rule(rule)


def payload(origin: str, seqno: int = 0, kind=PacketKind.REPL) -> Packet:
    """A 1 KB packet of ``kind`` (a reply by default) about source ``s``."""
    return Packet(kind=kind, origin=origin, source="s", seqno=seqno, size_bytes=1024)


def control(origin: str, seqno: int = 0) -> Packet:
    """A zero-byte request about source ``s``."""
    return Packet(
        kind=PacketKind.RQST, origin=origin, source="s", seqno=seqno, size_bytes=0
    )


@dataclass
class World:
    """One wired-up test simulation."""

    sim: Simulator
    network: Network
    tree: MulticastTree
    agents: dict[str, SrmAgent]
    metrics: RecordingMetrics
    params: SrmParams
    #: DATA seqno -> links it dies on: the table of the world's
    #: :func:`trace_drop_rule`, the first rule on its injector.  Mutated
    #: in place, which only the python kernel (read per hop) allows; the
    #: vector kernel caches a table's drops per seqno.
    drops: dict[int, set[tuple[str, str]]]
    data_start: float = 0.0

    @property
    def source(self) -> SrmAgent:
        return self.agents[self.tree.source]

    def run_warmup(self, periods: float = 3.0, session_period: float = 1.0) -> None:
        """Start sessions and run until distance estimates converge."""
        hosts = self.tree.hosts
        for index, host in enumerate(hosts):
            self.agents[host].start(
                session_offset=(index + 0.5) * session_period / (len(hosts) + 1)
            )
        self.data_start = periods * session_period
        self.sim.run(until=self.data_start)

    def send_packets(
        self,
        n: int,
        period: float = 0.08,
        drop: dict[int, set[tuple[str, str]]] | None = None,
        start: float | None = None,
    ) -> None:
        """Schedule ``n`` data packets, dropping packet i on ``drop[i]``
        (through the world's trace-drop rule; this replaces the table a
        previous call set)."""
        self.drops.clear()
        self.drops.update(drop or {})
        t0 = self.data_start if start is None else start
        for seq in range(n):
            self.sim.schedule_at(t0 + seq * period, self.source.send_data, seq)

    def run(self, extra: float = 30.0) -> None:
        """Run the simulation ``extra`` seconds past the current queue."""
        self.sim.run(until=self.sim.now + extra)

    def agent(self, host: str) -> SrmAgent:
        return self.agents[host]


def make_world(
    tree: MulticastTree | None = None,
    protocol: str = "srm",
    params: SrmParams | None = None,
    propagation_delay: float = 0.020,
    policy: str = "most-recent",
    cache_capacity: int = 16,
    reorder_delay: float = 0.0,
    detect_on_request: bool = True,
    seed: int = 0,
) -> World:
    """Build a small, fully controlled protocol world.  Its losses are
    hop rules, as in every harness run: a trace-drop rule over
    :attr:`World.drops` first, then whatever :func:`drop_hops` adds."""
    tree = tree or line_tree()
    params = params or SrmParams()
    sim = Simulator()
    network = Network(sim, tree, propagation_delay=propagation_delay)
    drops: dict[int, set[tuple[str, str]]] = {}
    fault_injector(network).add_hop_rule(trace_drop_rule(drops))
    metrics = RecordingMetrics(sim)
    agent_cls: type[SrmAgent] = {
        "srm": SrmAgent,
        "cesrm": CesrmAgent,
        "cesrm-router": RouterAssistedCesrmAgent,
    }[protocol]
    agents: dict[str, SrmAgent] = {}
    for index, host in enumerate(tree.hosts):
        kwargs: dict = dict(
            sim=sim,
            network=network,
            host_id=host,
            source=tree.source,
            params=params,
            rng=random.Random(seed * 1000 + index),
            metrics=metrics,
            detect_on_request=detect_on_request,
        )
        if protocol != "srm":
            kwargs.update(
                policy=make_policy(policy),
                cache_capacity=cache_capacity,
                reorder_delay=reorder_delay,
            )
        agents[host] = agent_cls(**kwargs)
    return World(
        sim=sim,
        network=network,
        tree=tree,
        agents=agents,
        metrics=metrics,
        params=params,
        drops=drops,
    )


def make_synthetic(
    tree: MulticastTree,
    n_packets: int,
    period: float,
    combos: dict[int, frozenset[tuple[str, str]]],
    name: str = "test",
    link_rates: dict | None = None,
) -> SyntheticTrace:
    """A hand-authored synthetic trace: packet i is lost below combos[i]."""
    loss_seqs = {}
    for receiver in tree.receivers:
        path = tree.path(tree.source, receiver)
        path_links = set(zip(path, path[1:]))
        seq = bytearray(n_packets)
        for packet, combo in combos.items():
            if combo & path_links:
                seq[packet] = 1
        loss_seqs[receiver] = bytes(seq)
    trace = LossTrace(name, tree, period, loss_seqs)
    return SyntheticTrace(
        trace=trace,
        link_rates=link_rates or {link: 0.01 for link in tree.links},
        link_combos=dict(combos),
    )
