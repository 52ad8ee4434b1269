"""Unit tests for the vector kernel's machinery (repro.net.vector).

Byte-identity with the python kernel across the protocol corpus lives in
``test_kernel_equivalence.py``; this module pins the pieces underneath:
the array-backed link columns and their ndarray views, the
``Network.link_state`` sync, fresh edge ids under churn, hop hooks
(duplicates, extra delay) running through the loop executor, the wave
counters, and — as a count, not a timing — that small frontiers still
coalesce into waves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.inject import HopEffect
from repro.harness.config import SimulationConfig
from repro.harness.runner import build_simulation
from repro.net import vector
from repro.net.families import synthesize_topology_trace
from repro.net.network import _HOP_SHIFT, Network
from repro.net.packet import Packet, PacketKind
from repro.net.topology import MulticastTree
from repro.sim.engine import Simulator

from tests.helpers import Sink, control, drop_hops, payload, two_subtrees

COLUMNS = ("_busy", "_qd", "_pkts", "_bytes")

#: Pins one executor for every unhooked wave.
ALWAYS_NUMPY = 0
ALWAYS_LOOP = 1 << 30


def build(tree: MulticastTree, kernel: str):
    sim = Simulator()
    network = Network(sim, tree, kernel=kernel)
    log: list = []
    for host in tree.hosts:
        network.attach(host, Sink(sim, host, log))
    return sim, network, log


def star(n_receivers: int) -> MulticastTree:
    """s -> x -> n receivers: a frontier wide enough for any crossover."""
    receivers = [f"r{i}" for i in range(n_receivers)]
    return MulticastTree("s", {"x": "s", **{r: "x" for r in receivers}}, receivers)


def links(tree: MulticastTree):
    for child, parent in tree.to_parent_map().items():
        yield parent, child
        yield child, parent


def link_snapshot(network: Network, tree: MulticastTree) -> dict:
    out = {}
    for u, v in links(tree):
        link = network.link_state(u, v)
        out[u, v] = (
            link.busy_until,
            link.queueing_delay_total,
            link.packets_carried,
            link.bytes_carried,
        )
    return out


def traffic(sim: Simulator, network: Network, tree: MulticastTree) -> None:
    """Overlapping payload floods (they queue behind one another), a
    control flood and a unicast chain."""
    receivers = tree.receivers
    network.multicast(payload("s", 1, PacketKind.DATA))
    network.multicast(payload(receivers[0], 1))
    network.multicast(payload(receivers[-1], 2))
    network.multicast(control(receivers[1]))
    network.unicast("s", control(receivers[-1], 3))
    sim.run()


class TestColumns:
    def test_views_alias_the_backing_arrays(self):
        _sim, network, _log = build(two_subtrees(), "vector")
        vk = network._vk
        vk._rebuild()
        for name in COLUMNS:
            backing, view = getattr(vk, name), getattr(vk, name + "_np")
            assert len(backing) == len(view) == vk._cap
            backing[0] = 7
            assert view[0] == 7
            view[1] = 9
            assert backing[1] == 9

    def test_grow_keeps_values_and_rebinds_views(self):
        _sim, network, _log = build(two_subtrees(), "vector")
        vk = network._vk
        vk._rebuild()
        live = vk._n_edges
        for name in COLUMNS:
            for eid in range(live):
                getattr(vk, name)[eid] = eid + 1
        old_cap = vk._cap
        old_views = {name: getattr(vk, name + "_np") for name in COLUMNS}
        vk._grow(old_cap + 1)
        assert vk._cap == 2 * old_cap
        for name in COLUMNS:
            backing, view = getattr(vk, name), getattr(vk, name + "_np")
            assert view is not old_views[name]
            assert list(backing[:live]) == [eid + 1 for eid in range(live)]
            assert not any(backing[live:])
            assert len(backing) == len(view) == vk._cap
            assert np.shares_memory(view, np.frombuffer(backing, dtype=view.dtype))
        assert vk._busy_np.dtype == vk._qd_np.dtype == np.float64
        assert vk._pkts_np.dtype == vk._bytes_np.dtype == np.int64

    def test_interning_past_capacity_grows(self):
        _sim, network, _log = build(two_subtrees(), "vector")
        vk = network._vk
        vk._rebuild()
        vk._busy[0] = 1.5
        first_cap = vk._cap
        for key in range(1 << 30, (1 << 30) + first_cap):
            vk._intern(key)
        assert vk._cap > first_cap
        assert vk._busy[0] == 1.5 and vk._busy_np[0] == 1.5


class TestLinkStateSync:
    @pytest.mark.parametrize("crossover", [ALWAYS_NUMPY, ALWAYS_LOOP, 4])
    @pytest.mark.parametrize("tree", [two_subtrees(), star(12)], ids=["deep", "star"])
    def test_matches_python_kernel_after_crossings(self, tree, crossover, monkeypatch):
        """Loop crossings, numpy crossings and a mix of both leave the
        columns — read back through ``Network.link_state`` — exactly where
        the python kernel leaves its ``LinkState`` objects."""
        monkeypatch.setattr(vector, "CROSSOVER", crossover)
        runs = {}
        for kernel in ("python", "vector"):
            sim, network, log = build(tree, kernel)
            traffic(sim, network, tree)
            runs[kernel] = (
                log,
                link_snapshot(network, tree),
                network.crossings.snapshot(),
                network.packets_delivered,
                sim.events_processed,
            )
            if kernel == "vector":
                stats = network.kernel_stats()
                if crossover == ALWAYS_NUMPY:
                    assert stats["loop_waves"] == 0 < stats["numpy_waves"]
                elif crossover == ALWAYS_LOOP:
                    assert stats["numpy_waves"] == 0 < stats["loop_waves"]
        assert runs["vector"] == runs["python"]
        assert any(state[1] > 0 for state in runs["vector"][1].values()), (
            "the traffic was meant to queue somewhere"
        )

    def test_link_state_reads_are_live(self):
        tree = two_subtrees()
        sim, network, _log = build(tree, "vector")
        assert network.link_state("s", "x0").packets_carried == 0
        network.multicast(payload("s"))
        assert network.link_state("s", "x0").packets_carried == 1
        assert network.link_state("s", "x0").bytes_carried == 1024
        sim.run()
        assert network.link_state("x1", "r1").packets_carried == 1


class TestChurn:
    def test_rejoined_hop_gets_fresh_zeroed_ids(self):
        tree = two_subtrees()
        sim, network, _log = build(tree, "vector")
        vk = network._vk
        network.multicast(payload("s"))
        sim.run()
        ids = network._ids
        key = ids["x2"] << _HOP_SHIFT | ids["r4"]
        old_eid = vk._edge_of[key]
        assert vk._pkts[old_eid] == 1

        network.detach_subtree("r4")
        assert key not in vk._edge_of and vk._dirty
        network.attach_receiver("r4", "x2")
        link = network.link_state("x2", "r4")  # syncs, hence rebuilds
        new_eid = vk._edge_of[key]
        assert new_eid > old_eid, "edge ids are append-only"
        assert (link.busy_until, link.packets_carried, link.bytes_carried) == (0.0, 0, 0)
        assert vk._pkts[old_eid] == 1, "the stale id keeps its history, unreferenced"

    @pytest.mark.parametrize("crossover", [ALWAYS_NUMPY, ALWAYS_LOOP])
    def test_rows_follow_the_topology(self, crossover, monkeypatch):
        """The loop's lazily built rows and the CSR are both dropped on a
        membership change: a flood after a leave skips the leaver, a flood
        after a join reaches the joiner."""
        monkeypatch.setattr(vector, "CROSSOVER", crossover)
        runs = {}
        for kernel in ("python", "vector"):
            tree = two_subtrees()
            sim, network, log = build(tree, kernel)
            network.multicast(control("r1", 0))
            sim.run()
            network.detach_subtree("r4")
            network.multicast(control("r1", 1))
            sim.run()
            network.attach_receiver("r5", "x1")
            network.attach("r5", Sink(sim, "r5", log))
            network.multicast(control("r1", 2))
            sim.run()
            runs[kernel] = (log, network.crossings.total(), sim.events_processed)
        assert runs["vector"] == runs["python"]
        reached = {(host, seqno) for _t, host, _k, seqno in runs["vector"][0]}
        assert ("r4", 0) in reached and ("r4", 1) not in reached
        assert ("r5", 2) in reached


class ScriptedFaults:
    """The slice of ``FaultInjector`` the network consults per hop:
    duplicates every crossing of one link, delays every crossing of
    another, drops on a third."""

    _down: dict = {}
    _rules_data_only = False
    _hop_rules: list = []

    def __init__(self) -> None:
        self.calls: list[tuple[str, str, int]] = []

    def on_hop(self, u: str, v: str, packet: Packet):
        self.calls.append((u, v, packet.seqno))
        if (u, v) == ("x0", "x1"):
            return HopEffect(duplicate=True)
        if (u, v) == ("x0", "x2"):
            return HopEffect(extra_delay=0.003)
        if (u, v) == ("x2", "r4"):
            return HopEffect(drop=True)
        if (u, v) == ("x1", "r2"):
            return HopEffect(duplicate=True, extra_delay=0.001)
        return None


class TestHooksRunOnTheLoop:
    @pytest.mark.parametrize("crossover", [ALWAYS_NUMPY, vector.CROSSOVER])
    def test_duplicate_and_extra_delay_match_python_kernel(self, crossover, monkeypatch):
        """A hooked wave never reaches numpy, whatever the crossover: the
        duplicate crosses its link twice (serialising behind the original
        when it carries payload, sharing its instant when it does not) and
        the delayed hop lands in a later wave."""
        monkeypatch.setattr(vector, "CROSSOVER", crossover)
        runs = {}
        for kernel in ("python", "vector"):
            tree = two_subtrees()
            sim, network, log = build(tree, kernel)
            network.faults = faults = ScriptedFaults()
            network.multicast(payload("s", 1, PacketKind.DATA))
            network.multicast(control("r3", 2))
            network.unicast("r2", payload("s", 3))
            sim.run()
            runs[kernel] = (
                log,
                faults.calls,
                link_snapshot(network, tree),
                network.crossings.snapshot(),
                network.packets_dropped,
                network.packets_delivered,
                sim.events_processed,
            )
            if kernel == "vector":
                stats = network.kernel_stats()
                assert stats["hooked_waves"] > 0
                assert stats["loop_waves"] == stats["numpy_waves"] == 0
        assert runs["vector"] == runs["python"]
        log = runs["vector"][0]
        data_at_r1 = [t for t, host, kind, seqno in log if (host, seqno) == ("r1", 1)]
        assert len(data_at_r1) == 2 and data_at_r1[0] < data_at_r1[1]
        control_at_r1 = [t for t, host, _k, seqno in log if (host, seqno) == ("r1", 2)]
        assert len(control_at_r1) == 2 and control_at_r1[0] == control_at_r1[1]
        assert not [1 for _t, host, _k, seqno in log if (host, seqno) == ("r4", 1)]
        assert len([1 for _t, host, _k, seqno in log if (host, seqno) == ("r2", 3)]) == 4

    def test_hop_rule_sees_every_hop_in_python_order(self):
        """A plain hop rule (no ``link_combos`` table) keeps the wave on
        the hooked loop, which consults it hop for hop in python order."""
        runs = {}
        for kernel in ("python", "vector"):
            tree = two_subtrees()
            sim, network, log = build(tree, kernel)
            seen = []

            def lost(u, v, packet, seen=seen):
                seen.append((u, v))
                return (u, v) == ("x0", "x2")

            drop_hops(network, lost)
            network.multicast(payload("r1"))
            sim.run()
            runs[kernel] = (log, seen, network.packets_dropped, sim.events_processed)
        assert runs["vector"] == runs["python"]
        assert runs["vector"][2] == 1


class TestWaveCounters:
    def test_python_kernel_has_no_waves(self):
        _sim, network, _log = build(two_subtrees(), "python")
        assert network.kernel_stats() == {"entries": 0, "arrivals": 0}

    def test_counts_fired_wave_entries_not_sends(self):
        tree = two_subtrees()
        sim, network, _log = build(tree, "vector")
        assert network.kernel_stats() == {
            "loop_waves": 0, "numpy_waves": 0, "hooked_waves": 0,
            "column_deliveries": 0, "scalar_deliveries": 0,
        }
        network.multicast(control("s"))
        assert sum(network.kernel_stats().values()) == 0, "nothing has fired yet"
        sim.run()
        # s -> x0 -> {x1, x2} -> {r1..r4}: one wave per depth; the four
        # sinks are not enrolled agents (and the packet is not DATA), so
        # every delivery went through ``receive``.
        assert network.kernel_stats() == {
            "loop_waves": 3, "numpy_waves": 0, "hooked_waves": 0,
            "column_deliveries": 0, "scalar_deliveries": 4,
        }
        stats = network.kernel_stats()
        stats["loop_waves"] = 99
        assert network.kernel_stats()["loop_waves"] == 3, "a copy, not the counters"


#: ``_wave_flood`` entries fired on ``tree:depth=8,fanout=2`` (20 packets,
#: cesrm, primed, trace seed 0) at the commit *before* the loop executor
#: landed, when every wave ran on numpy.  Loss-free it is one wave per
#: packet per depth; the lossy run adds the recovery floods.  A kernel
#: that replays small frontiers node by node instead of re-forming waves
#: is byte-identical and fails this.
WAVES_BEFORE = {"loss=1e-9": 160, "loss=2e-3": 628}


@pytest.mark.parametrize("loss", list(WAVES_BEFORE))
def test_small_frontiers_still_coalesce_into_waves(loss):
    spec = f"tree:depth=8,fanout=2,{loss},packets=20"
    trace = synthesize_topology_trace(spec, seed=0, max_packets=20)
    events = {}
    for kernel in ("python", "vector"):
        config = SimulationConfig(
            max_packets=20, prime_distances=True, drain_time=2.0, kernel=kernel
        )
        simulation = build_simulation(trace, "cesrm", config)
        simulation.sim.run(until=simulation.end_time)
        events[kernel] = simulation.sim.events_processed
        stats = simulation.network.kernel_stats()
    assert events["vector"] == events["python"]
    waves = sum(count for name, count in stats.items() if name.endswith("_waves"))
    assert waves == WAVES_BEFORE[loss]
    assert stats["hooked_waves"] == 0
    # 1 -> 2 -> 4 -> ... reaches the crossover within the tree's depth.
    assert stats["loop_waves"] > 0 and stats["numpy_waves"] > 0
