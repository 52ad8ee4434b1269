"""Multi-source behaviour: per-source streams, recovery, and caches.

SRM is an any-source protocol; CESRM keeps "a collection of per-source
requestor/replier caches, one for each source" (§3.1).  These tests run
two concurrent senders — the root plus a receiver (the whiteboard scenario
that motivated SRM) — and verify the state separation.
"""

from repro.net.packet import Packet, PacketKind, PAYLOAD_BYTES

from tests.helpers import drop_hops, make_world, two_subtrees


def send_stream(world, sender: str, n: int, period: float, start: float, drop=None):
    """Schedule ``sender``'s own stream; drop[(seq)] = set of links."""
    drop = drop or {}
    agent = world.agents[sender]
    for seq in range(n):
        world.sim.schedule_at(start + seq * period, agent.send_data, seq)
    return drop


class TestMultiSourceStreams:
    def test_two_streams_tracked_independently(self):
        world = make_world(tree=two_subtrees())
        world.run_warmup()
        t0 = world.data_start
        for seq in range(3):
            world.sim.schedule_at(t0 + seq * 0.08, world.agents["s"].send_data, seq)
            world.sim.schedule_at(
                t0 + 0.02 + seq * 0.08, world.agents["r4"].send_data, seq
            )
        world.run()
        observer = world.agents["r1"]
        assert observer.source_state("s").stream.max_seq == 2
        assert observer.source_state("r4").stream.max_seq == 2
        assert set(observer.known_sources()) >= {"s", "r4"}

    def test_same_seqno_in_two_streams_not_confused(self):
        world = make_world(tree=two_subtrees())
        world.run_warmup()
        t0 = world.data_start

        # drop packet 1 of r4's stream (only) on the link into r1's subtree
        def lost(u, v, packet):
            return (
                packet.kind is PacketKind.DATA
                and packet.source == "r4"
                and packet.seqno == 1
                and (u, v) == ("x0", "x1")
            )

        drop_hops(world.network, lost)
        for seq in range(3):
            world.sim.schedule_at(t0 + seq * 0.08, world.agents["s"].send_data, seq)
            world.sim.schedule_at(
                t0 + 0.02 + seq * 0.08, world.agents["r4"].send_data, seq
            )
        world.run()
        observer = world.agents["r1"]
        # packet 1 of s's stream was never lost; r4's packet 1 was detected
        # and recovered under r4's source id
        assert 1 not in observer.source_state("s").stream.ever_lost
        assert 1 in observer.source_state("r4").stream.ever_lost
        assert observer.source_state("r4").stream.has(1)
        assert observer.unrecovered_losses("r4") == []

    def test_recovery_of_receiver_sourced_stream(self):
        world = make_world(tree=two_subtrees())
        world.run_warmup()
        t0 = world.data_start

        def lost(u, v, packet):
            return (
                packet.kind is PacketKind.DATA
                and packet.source == "r4"
                and packet.seqno == 1
                and (u, v) == ("x2", "r3")
            )

        drop_hops(world.network, lost)
        for seq in range(3):
            world.sim.schedule_at(t0 + seq * 0.2, world.agents["r4"].send_data, seq)
        world.run()
        # r3 lost r4's packet 1 and recovered it via SRM
        records = world.metrics.recoveries["r3"]
        assert [r.seq for r in records] == [1]
        assert world.agents["r3"].source_state("r4").stream.has(1)

    def test_session_reports_cover_all_sources(self):
        world = make_world(tree=two_subtrees())
        world.run_warmup()
        t0 = world.data_start
        world.sim.schedule_at(t0, world.agents["s"].send_data, 0)
        world.sim.schedule_at(t0, world.agents["r4"].send_data, 0)
        world.run(extra=2.5)  # at least two session rounds
        # r1's own session messages now advertise both streams
        agent = world.agents["r1"]
        state_s = agent.source_state("s").stream.max_seq
        state_r4 = agent.source_state("r4").stream.max_seq
        assert state_s == 0 and state_r4 == 0

    def test_tail_loss_of_second_stream_detected_via_session(self):
        world = make_world(tree=two_subtrees())
        world.run_warmup()
        t0 = world.data_start

        def lost(u, v, packet):
            # r1 misses the LAST packet of r4's stream: only the session
            # channel can reveal it
            return (
                packet.kind is PacketKind.DATA
                and packet.source == "r4"
                and packet.seqno == 2
                and (u, v) == ("x1", "r1")
            )

        drop_hops(world.network, lost)
        for seq in range(3):
            world.sim.schedule_at(t0 + seq * 0.08, world.agents["r4"].send_data, seq)
        world.run(extra=10.0)
        assert world.agents["r1"].source_state("r4").stream.has(2)
        assert world.agents["r1"].unrecovered_losses("r4") == []


class TestMultiSourceCesrm:
    def test_per_source_caches_are_separate(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm")
        world.run_warmup()
        agent = world.agents["r1"]
        agent._detect_loss(4, src="s")
        agent._detect_loss(4, src="r4")
        reply_s = Packet(
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
        reply_r4 = Packet(
            kind=PacketKind.REPL,
            origin="r2",
            source="r4",
            seqno=4,
            size_bytes=PAYLOAD_BYTES,
            requestor="r1",
            requestor_dist=0.04,
            replier="r2",
            replier_dist=0.04,
        )
        agent.receive(reply_s)
        agent.receive(reply_r4)
        assert agent.cache_for("s").get(4).pair == ("r2", "r3")
        assert agent.cache_for("r4").get(4).pair == ("r1", "r2")

    def test_expedited_recovery_uses_right_sources_cache(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm")
        world.run_warmup()
        agent = world.agents["r1"]
        # warm ONLY r4's cache with (r1, r2)
        from repro.core.cachelab import RecoveryTuple

        agent.cache_for("r4").observe(
            RecoveryTuple(0, "r1", 0.04, "r2", 0.04)
        )
        t0 = world.data_start

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            return packet.seqno == 1 and (u, v) == ("x1", "r1")

        drop_hops(world.network, lost)
        # both streams lose packet 1 at r1; only the r4-stream loss has a
        # cached pair, so exactly one expedited request goes out
        for seq in range(3):
            world.sim.schedule_at(t0 + seq * 0.3, world.agents["s"].send_data, seq)
            world.sim.schedule_at(
                t0 + 0.05 + seq * 0.3, world.agents["r4"].send_data, seq
            )
        world.run()
        erqsts = world.metrics.sends_of(PacketKind.ERQST, host="r1")
        assert len(erqsts) == 1
        records = {
            (rec.seq, rec.expedited) for rec in world.metrics.recoveries["r1"]
        }
        assert (1, True) in records  # the r4-stream loss went expedited
        assert (1, False) in records  # the s-stream loss used SRM

    def test_multi_source_full_reliability(self):
        world = make_world(tree=two_subtrees(), protocol="cesrm")
        world.run_warmup()
        t0 = world.data_start

        def lost(u, v, packet):
            if packet.kind is not PacketKind.DATA:
                return False
            if packet.source == "s":
                return packet.seqno in (1, 3) and (u, v) == ("x0", "x1")
            return packet.seqno == 2 and (u, v) == ("x0", "x2")

        drop_hops(world.network, lost)
        for seq in range(5):
            world.sim.schedule_at(t0 + seq * 0.1, world.agents["s"].send_data, seq)
            world.sim.schedule_at(
                t0 + 0.03 + seq * 0.1, world.agents["r1"].send_data, seq
            )
        world.run(extra=30.0)
        for host, agent in world.agents.items():
            for src in ("s", "r1"):
                if host == src:
                    continue
                assert agent.unrecovered_losses(src) == [], (host, src)
                for seq in range(5):
                    assert agent.source_state(src).stream.has(seq), (host, src, seq)
