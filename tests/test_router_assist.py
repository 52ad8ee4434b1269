"""Behavioural tests for router-assisted CESRM (§3.3)."""

from repro.core.cachelab import RecoveryTuple
from repro.net.packet import PAYLOAD_BYTES, Cast, Packet, PacketKind

from tests.helpers import ReceiveSpy, make_world, two_subtrees

D = 0.020


def seed_cache(agent, seq, requestor, replier, turning_point):
    agent.cache.observe(
        RecoveryTuple(
            seqno=seq,
            requestor=requestor,
            requestor_to_source=0.06,
            replier=replier,
            replier_to_requestor=0.08,
            turning_point=turning_point,
        )
    )


class TestSubcastDelivery:
    def test_erepl_subcast_stays_in_loss_subtree(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm-router")
        world.run_warmup()
        seed_cache(world.agent("r1"), 0, "r1", "r2", turning_point="x1")
        # only r1 loses; the expedited repair (r2, subcast from x1) beats
        # r1's own SRM request, so no multicast recovery traffic leaves x1
        world.send_packets(3, period=0.3, drop={1: {("x1", "r1")}})
        world.run()
        assert world.agent("r1").stream.has(1)
        # hosts outside the subtree saw neither request nor reply for it
        assert 1 not in world.agent("r4").reply_states
        assert 1 not in world.agent("r3").reply_states
        assert 1 not in world.agent("s").reply_states

    def test_plain_cesrm_exposes_whole_group(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm")
        world.run_warmup()
        seed_cache(world.agent("r1"), 0, "r1", "r3", turning_point=None)
        world.send_packets(3, period=0.3, drop={1: {("x0", "x1")}})
        world.run()
        # multicast expedited reply reaches the unaffected r4 too
        assert 1 in world.agent("r4").reply_states

    def test_subcast_costs_less_than_multicast(self):
        def erepl_crossings(protocol, turning_point):
            world = make_world(tree=two_subtrees(), protocol=protocol)
            world.run_warmup()
            seed_cache(world.agent("r1"), 0, "r1", "r3", turning_point)
            world.send_packets(3, period=0.3, drop={1: {("x0", "x1")}})
            world.run()
            return sum(
                n
                for (kind, _), n in world.network.crossings.snapshot().items()
                if kind == "erepl"
            )

        subcast_cost = erepl_crossings("cesrm-router", "x1")
        multicast_cost = erepl_crossings("cesrm", None)
        assert subcast_cost < multicast_cost

    def test_missing_turning_point_falls_back_to_multicast(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm-router")
        world.run_warmup()
        seed_cache(world.agent("r1"), 0, "r1", "r3", turning_point=None)
        world.send_packets(3, period=0.3, drop={1: {("x0", "x1")}})
        world.run()
        assert world.agent("r1").stream.has(1)
        snapshot = world.network.crossings.snapshot()
        assert snapshot.get(("erepl", "multicast"), 0) > 0
        assert snapshot.get(("erepl", "subcast"), 0) == 0

    def test_stale_turning_point_recomputed(self):
        """An annotation pointing at a subtree that does not contain the
        requestor is recomputed, so the requestor still gets the repair."""
        world = make_world(tree=two_subtrees(), protocol="cesrm-router")
        world.run_warmup()
        # claim the turning point is x2 although r1 lives under x1
        seed_cache(world.agent("r1"), 0, "r1", "r3", turning_point="x2")
        world.send_packets(3, period=0.3, drop={1: {("x1", "r1")}})
        world.run()
        assert world.agent("r1").stream.has(1)
        records = world.metrics.recoveries["r1"]
        assert records and records[0].expedited


class TestTurningPointCaching:
    def test_cache_derives_turning_point_from_multicast_reply(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm-router")
        world.run_warmup()
        agent = world.agent("r1")
        agent._detect_loss(4)
        reply = Packet(
            kind=PacketKind.REPL,
            origin="r3",
            source="s",
            seqno=4,
            size_bytes=PAYLOAD_BYTES,
            requestor="r2",
            requestor_dist=0.06,
            replier="r3",
            replier_dist=0.08,
        )
        agent.receive(reply)
        cached = agent.cache.get(4)
        assert cached is not None
        # lca(r3, r2) in two_subtrees is x0
        assert cached.turning_point == "x0"

    def test_cache_keeps_annotated_turning_point_from_subcast(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm-router")
        world.run_warmup()
        agent = world.agent("r1")
        agent._detect_loss(4)
        reply = Packet(
            kind=PacketKind.EREPL,
            origin="r3",
            source="s",
            seqno=4,
            size_bytes=PAYLOAD_BYTES,
            cast=Cast.SUBCAST,
            requestor="r2",
            requestor_dist=0.06,
            replier="r3",
            replier_dist=0.08,
            turning_point="x1",
        )
        agent.receive(reply)
        assert agent.cache.get(4).turning_point == "x1"

    def test_erqst_carries_turning_point(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm-router")
        world.run_warmup()
        agent = world.agent("r3")

        captured = ReceiveSpy(world.network, agent, PacketKind.ERQST).captured
        seed_cache(world.agent("r1"), 0, "r1", "r3", turning_point="x1")
        world.send_packets(3, period=0.3, drop={1: {("x1", "r1")}})
        world.run()
        assert captured
        assert captured[0].turning_point == "x1"


class TestReliabilityParity:
    def test_router_assist_recovers_everything_plain_cesrm_does(self):
        drop = {
            1: {("x0", "x1")},
            2: {("x1", "r1")},
            4: {("x2", "r3"), ("x1", "r2")},
            5: {("s", "x0")},
        }

        def run(protocol):
            world = make_world(tree=two_subtrees(), protocol=protocol)
            world.run_warmup()
            world.send_packets(8, drop=drop)
            world.run(extra=30.0)
            return {
                r: world.agents[r].unrecovered_losses()
                for r in world.tree.receivers
            }

        assert run("cesrm-router") == run("cesrm") == {
            "r1": [],
            "r2": [],
            "r3": [],
            "r4": [],
        }
