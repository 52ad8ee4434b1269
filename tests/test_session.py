"""Tests for session messages and distance estimation."""

import hashlib
import random

import pytest

from repro.exec.summary import RunSummary
from repro.harness.config import SimulationConfig
from repro.harness.runner import build_simulation, run_trace
from repro.net.families import synthesize_topology_trace
from repro.net.packet import PacketKind
from repro.srm.session import DistanceEstimator, SessionReport

from tests.helpers import deep_tree, line_tree, make_world, two_subtrees


def report(sender, row, sent_at, echoes=None):
    """A hand-built report from the peer in ``row``.  ``echoes`` is the old
    dict echo block, ``listener row -> (t1, delta)``, laid out as the
    columnar one: ``delta`` is carried as the arrival time it was measured
    from (``sent_at - delta``), which is what a sender's rows hold."""
    echoes = echoes or {}
    width = max(echoes, default=-1) + 1
    echo_sent_at = [-1.0] * width
    echo_received_at = [-1.0] * width
    for listener, (t1, delta) in echoes.items():
        echo_sent_at[listener] = t1
        echo_received_at[listener] = sent_at - delta
    return SessionReport(sender, row, sent_at, {}, echo_sent_at, echo_received_at)


class TestDistanceEstimatorUnit:
    """The six seed cases with their numbers, moved from the dict echo
    block (gone: the wire has one representation) to the columnar one.
    ``a`` is row 0, ``b`` row 1."""

    def test_no_estimate_before_echo(self):
        est = DistanceEstimator("a", row=0)
        est.on_session(report("b", 1, sent_at=1.0), now=1.5)
        assert est.get("b") is None
        assert est.get_or("b", 0.123) == 0.123

    def test_echo_produces_estimate(self):
        # a sent a session at t1=1.0; b received it at 1.2, echoed at 2.0
        # with delta=0.8; a receives the echo at t4=2.2.
        est = DistanceEstimator("a", row=0)
        est.on_session(report("b", 1, sent_at=2.0, echoes={0: (1.0, 0.8)}), now=2.2)
        # rtt = (2.2 - 1.0) - 0.8 = 0.4 -> one-way 0.2
        assert est.get("b") == pytest.approx(0.2)
        assert est.rtt_to("b") == pytest.approx(0.4)

    def test_negative_rtt_discarded(self):
        est = DistanceEstimator("a", row=0)
        est.on_session(report("b", 1, sent_at=2.0, echoes={0: (1.0, 5.0)}), now=2.2)
        assert est.get("b") is None
        assert est.updates == 0

    def test_build_echoes_reflects_heard_sessions(self):
        est = DistanceEstimator("a", row=0)
        est.on_session(report("b", 1, sent_at=3.0), now=3.4)
        mine = est.report(5.0, {})
        assert (mine.sender, mine.row, mine.sent_at) == ("a", 0, 5.0)
        # never heard from row 0 (itself); b's t1 and a hold time of 1.6
        assert mine.echo_sent_at == [-1.0, 3.0]
        assert mine.sent_at - mine.echo_received_at[1] == pytest.approx(1.6)

    def test_estimate_updates_on_new_echo(self):
        est = DistanceEstimator("a", row=0)
        est.on_session(
            report("b", 1, sent_at=2.0, echoes={0: (1.0, 0.8)}), now=2.2
        )  # 0.2
        est.on_session(
            report("b", 1, sent_at=5.0, echoes={0: (4.0, 0.4)}), now=5.2
        )  # rtt = 0.8 -> 0.4
        assert est.get("b") == pytest.approx(0.4)
        assert est.updates == 2

    def test_known_peers(self):
        est = DistanceEstimator("a", row=0)
        est.on_session(report("b", 1, sent_at=2.0, echoes={0: (1.0, 0.8)}), now=2.2)
        assert est.known_peers() == {"b"}

    def test_two_estimators_echo_each_other(self):
        """The same numbers as ``test_echo_produces_estimate`` with both
        ends real: nothing hand-built on the wire."""
        a = DistanceEstimator("a", row=0)
        b = DistanceEstimator("b", row=1)
        b.on_session(a.report(1.0, {}), now=1.2)
        a.on_session(b.report(2.0, {}), now=2.2)
        assert a.get("b") == pytest.approx(0.2)
        assert b.get("a") is None  # a had heard nothing when it reported

    def test_report_is_a_snapshot(self):
        """A listener that reads a report after its sender heard three
        more sees the values at send time (the echo block is a copy)."""
        a = DistanceEstimator("a", row=0)
        b = DistanceEstimator("b", row=1)
        b.on_session(a.report(1.0, {}), now=1.2)
        in_flight = b.report(2.0, {})
        for k in range(3):
            b.on_session(a.report(3.0 + k, {}), now=3.2 + k)
        assert in_flight.echo_sent_at == [1.0]
        assert in_flight.echo_received_at == [1.2]
        a.on_session(in_flight, now=2.2)
        assert a.get("b") == pytest.approx(0.2)

    def test_never_heard_leaves_no_estimate(self):
        """A block that covers the listener's row but holds no timestamp
        for it (the sender heard others, not us) is not an echo."""
        a = DistanceEstimator("a", row=0)
        b = DistanceEstimator("b", row=1)
        c = DistanceEstimator("c", row=2)
        b.on_session(c.report(0.5, {}), now=0.7)  # rows now cover 0..2
        assert b.report(1.0, {}).echo_sent_at == [-1.0, -1.0, 0.5]
        a.on_session(b.report(1.0, {}), now=1.2)
        assert a.get("b") is None
        assert a.updates == 0

    def test_rows_and_blocks_of_different_lengths_interoperate(self):
        """Churn: a joiner's row lies past the end of every block taken
        before it joined, and its first report past the end of every
        listener's rows."""
        a = DistanceEstimator("a", row=0)
        b = DistanceEstimator("b", row=1)
        b.on_session(a.report(1.0, {}), now=1.2)
        short = b.report(2.0, {})  # covers row 0 only
        late = DistanceEstimator("late", row=7)
        late.on_session(short, now=2.3)  # its own row is not in the block
        assert late.get("b") is None and late.updates == 0
        b.on_session(late.report(3.0, {}), now=3.2)  # b's rows grow to 8
        grown = b.report(4.0, {})
        assert len(grown.echo_sent_at) == 8
        assert grown.echo_sent_at[2:7] == [-1.0] * 5
        late.on_session(grown, now=4.2)
        # rtt = (4.2 - 3.0) - (4.0 - 3.2) = 0.4
        assert late.get("b") == pytest.approx(0.2)
        a.on_session(grown, now=4.2)  # the older, shorter listener still reads it
        assert a.get("b") == pytest.approx(((4.2 - 1.0) - (4.0 - 1.2)) / 2.0)

    def test_no_rows_before_the_first_report(self):
        est = DistanceEstimator("a", row=0)
        assert est._heard is None
        silent = est.report(1.0, {"s": 4})
        assert silent.max_seqs == {"s": 4}
        assert len(silent.echo_sent_at) == len(silent.echo_received_at) == 0
        assert est._heard is None  # reporting allocates nothing either


class TestSessionExchangeIntegration:
    def test_distances_converge_to_true_propagation(self):
        """After warmup every host's estimate equals hop-count × delay
        exactly (control packets have no serialization delay)."""
        world = make_world(tree=two_subtrees(), propagation_delay=0.020)
        world.run_warmup(periods=3.0)
        tree = world.tree
        for host in tree.hosts:
            agent = world.agents[host]
            for peer in tree.hosts:
                if peer == host:
                    continue
                expected = tree.hop_distance(host, peer) * 0.020
                assert agent.distances.get(peer) == pytest.approx(expected), (
                    host,
                    peer,
                )

    def test_deep_tree_distances(self):
        world = make_world(tree=deep_tree(), propagation_delay=0.010)
        world.run_warmup(periods=3.0)
        agent = world.agents["r1"]
        assert agent.distances.get("s") == pytest.approx(4 * 0.010)
        assert agent.distances.get("r4") == pytest.approx(4 * 0.010)
        assert agent.rtt_to_source() == pytest.approx(0.080)

    def test_session_messages_are_multicast_control(self):
        world = make_world(tree=line_tree())
        world.run_warmup(periods=2.0)
        sessions = world.metrics.sends_of(PacketKind.SESSION)
        # 3 hosts × 2 periods = 6 session messages
        assert len(sessions) == 6

    def test_session_carries_max_seq_for_loss_detection(self):
        world = make_world(tree=line_tree())
        world.run_warmup()
        # drop the only packet on the link into r1: r1 can't gap-detect,
        # only the session channel reveals the loss
        world.send_packets(1, drop={0: {("x1", "r1")}})
        world.run(extra=10.0)
        assert world.metrics.losses_detected["r1"] == 1
        assert world.agents["r1"].stream.has(0)  # recovered via SRM


# ----------------------------------------------------------------------
# Session rows through whole runs
# ----------------------------------------------------------------------
ROWS_SPEC = "transit_stub:transits=2,stubs=3,hosts=6,packets=12,loss=5e-3"


def _rows_trace():
    return synthesize_topology_trace(ROWS_SPEC, seed=4, max_packets=12)


def _heard_by(simulation) -> dict:
    """Per host: its estimates and what its two rows say of each peer
    (by name, so sparse and dense row numberings compare equal)."""
    ids = simulation.network.tree.index.ids
    out = {}
    for host, agent in simulation.agents.items():
        distances = agent.distances
        sent, received = distances._heard or ((), ())
        out[host] = (
            dict(distances._estimates),
            distances.updates,
            {
                peer: (sent[ids[peer]], received[ids[peer]])
                for peer in simulation.agents
                if ids[peer] < len(sent) and sent[ids[peer]] >= 0
            },
        )
    return out


class _ReceiveProxy:
    """What the benchmark's traced pass re-attaches over every host."""

    def __init__(self, agent):
        self._receive = agent.receive

    def receive(self, packet):
        self._receive(packet)


class TestSessionRowsInRuns:
    def test_warm_up_converges_identically_for_every_receive_override(self):
        """``AdaptiveSrmAgent`` and ``RmtpAgent`` wrap ``receive``,
        ``LmsAgent`` inherits it, the benchmark proxies it: the exchange
        before the first data packet is the same reports either way."""

        def warmed_up(protocol, proxied=False):
            simulation = build_simulation(
                _rows_trace(), protocol, SimulationConfig(seed=5)
            )
            if proxied:
                for host, agent in simulation.agents.items():
                    simulation.network.attach(host, _ReceiveProxy(agent))
            simulation.sim.run(until=simulation.config.transmission_start - 1e-3)
            return simulation

        reference = warmed_up("srm")
        expected = _heard_by(reference)
        tree = reference.network.tree
        for host, (estimates, updates, heard) in expected.items():
            assert set(heard) == set(expected) - {host}
            assert updates > 0
            for peer, estimate in estimates.items():
                assert estimate == pytest.approx(tree.hop_distance(host, peer) * 0.020)
        for protocol in ("srm-adaptive", "lms", "rmtp", "cesrm"):
            assert _heard_by(warmed_up(protocol)) == expected, protocol
        assert _heard_by(warmed_up("cesrm", proxied=True)) == expected

    def test_receive_is_the_inline_of_on_session(self):
        """Replay every report one host was delivered through a bare
        estimator's ``on_session``: same rows, estimates and update count
        as the agent's fused ``receive`` left."""
        simulation = build_simulation(_rows_trace(), "srm", SimulationConfig(seed=5))
        host = simulation.network.tree.receivers[3]
        agent = simulation.agents[host]
        heard = []

        class Tap:
            def receive(self, packet):
                if packet.kind is PacketKind.SESSION:
                    heard.append((simulation.sim.now, packet.payload))
                agent.receive(packet)

        simulation.network.attach(host, Tap())
        simulation.sim.run(until=simulation.end_time)
        assert len(heard) > 100
        replayed = DistanceEstimator(host, agent.distances._row)
        for now, report_ in heard:
            replayed.on_session(report_, now)
        assert replayed._heard == agent.distances._heard
        assert replayed._estimates == agent.distances._estimates
        assert replayed.updates == agent.distances.updates

    def test_primed_run_allocates_no_rows(self):
        config = SimulationConfig(seed=5, prime_distances=True, drain_time=2.0)
        simulation = build_simulation(_rows_trace(), "cesrm", config)
        simulation.sim.run(until=simulation.end_time)
        assert simulation.metrics.total_sends(PacketKind.RQST) > 0  # it did recover
        for agent in simulation.agents.values():
            assert agent.distances._heard is None

    def test_lossfree_primed_run_allocates_nothing_per_host(self):
        trace = synthesize_topology_trace(ROWS_SPEC, seed=0, max_packets=12)
        config = SimulationConfig(seed=5, prime_distances=True, drain_time=2.0)
        simulation = build_simulation(trace, "cesrm", config)
        simulation.sim.run(until=simulation.end_time)
        assert all(a.distances._heard is None for a in simulation.agents.values())
        assert simulation.faults.registry._streams == {}

    def test_rejoining_name_keeps_its_row(self):
        world = make_world(tree=two_subtrees())
        world.run_warmup(periods=2.0)
        old = world.agents["r4"]
        row = old.distances._row
        old.stop()
        world.network.detach_subtree("r4")
        world.sim.run(until=world.sim.now + 1.0)
        world.network.attach_receiver("r4", "x2")
        again = type(old)(
            sim=world.sim, network=world.network, host_id="r4", source="s",
            params=world.params, rng=old.rng, metrics=world.metrics,
        )
        assert again.distances._row == row
        again.start(session_offset=0.1)
        world.sim.run(until=world.sim.now + 2.5)
        # The others kept r4's row through its absence; r4 re-learned theirs.
        for host in ("s", "r1", "r3"):
            assert again.distances.get(host) == pytest.approx(
                world.tree.hop_distance("r4", host) * 0.020
            )
            assert world.agents[host].distances._heard[0][row] > 2.0  # heard since

    def test_joiner_past_the_end_of_every_row_and_block(self):
        """A host that joins mid-run gets a row no estimator has yet and
        no in-flight block covers; both sides grow on first contact."""
        world = make_world(tree=two_subtrees())
        world.run_warmup(periods=2.0)
        width = len(world.agents["r1"].distances._heard[0])
        world.network.attach_receiver("late", "x1")
        late = type(world.agents["r1"])(
            sim=world.sim, network=world.network, host_id="late", source="s",
            params=world.params, rng=random.Random(9), metrics=world.metrics,
        )
        assert late.distances._row >= width
        late.start(session_offset=0.05)
        world.sim.run(until=world.sim.now + 2.5)
        for host in world.tree.hosts:
            if host == "late":
                continue
            expected = world.tree.hop_distance("late", host) * 0.020
            assert late.distances.get(host) == pytest.approx(expected)
            assert world.agents[host].distances.get("late") == pytest.approx(expected)

    #: sha256 of the summary JSON, recorded at the parent commit (dict
    #: echo blocks, per-hop floods): four senders' first-touch order at
    #: every host feeds ``max_seqs`` order and through it the rng draws.
    MULTI_SOURCE_GOLDEN = {
        "srm": "4e5b429a06f7cca54c7fe2db1e062c00e8a4f01482785201aa0bece988522f10",
        "cesrm": "007f5cbc47e67068ea0ce98080dc1a3ca158bb86d14a30f4cc0fdf1e7a563e96",
    }

    @pytest.mark.parametrize("protocol", ["srm", "cesrm"])
    def test_multi_source_digest_unchanged(self, protocol):
        result = run_trace(
            _rows_trace(), protocol, SimulationConfig(seed=5, drain_time=2.0),
            workload="multi_source:senders=4",
        )
        summary = RunSummary.from_result(result)
        summary.wall_time = 0.0
        digest = hashlib.sha256(summary.to_json().encode()).hexdigest()
        assert digest == self.MULTI_SOURCE_GOLDEN[protocol]
