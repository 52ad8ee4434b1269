"""The fault injector's compiled drop table, differential on both kernels.

A Table 1 replay's losses are one hop rule, :func:`trace_drop_rule`.  The
injector compiles it into the table both kernels test unobserved DATA
hops against (``FaultInjector._drop_table``); a tracer, an active outage
or a rule with no ``link_combos`` table sends every hop through
``FaultInjector.on_hop`` instead.  Both routes must give the same run:
the same summary (host time and the tracer's own report aside) and the
same ``packets_dropped``.
"""

from __future__ import annotations

import pytest

from repro.exec.summary import RunSummary
from repro.faults import FaultPlan, LinkDown, trace_drop_rule
from repro.harness import runner
from repro.harness.config import SimulationConfig
from repro.net.packet import PacketKind
from repro.obs import RingBufferSink, Tracer
from repro.traces.synthesize import synthesize_trace
from repro.traces.yajnik import trace_meta

PACKETS = 400
KERNELS = ("python", "vector")

#: Mid-replay outage of an interior link (data runs from t≈3 s to ≈35 s).
OUTAGE = FaultPlan([LinkDown("x2", "x3", at=12.0, duration=1.5)])


@pytest.fixture(scope="module")
def synthetic():
    return synthesize_trace(trace_meta("WRN951113"), seed=0, max_packets=PACKETS)


def never(now, u, v, packet):
    """A hop rule that never fires and is no drop table: the injector
    cannot compile it, so every hop goes through on_hop."""
    return None


def replay(synthetic, kernel, monkeypatch, *, tracer=None, plan=None, rule=False):
    """``(summary dict, packets_dropped, injector)`` of one CESRM replay;
    ``rule`` adds :func:`never` to the injector before the run starts."""
    built = []
    build = runner.build_simulation

    def build_and_capture(*args, **kwargs):
        simulation = build(*args, **kwargs)
        if rule:
            simulation.faults.add_hop_rule(never)
        built.append(simulation)
        return simulation

    monkeypatch.setattr(runner, "build_simulation", build_and_capture)
    config = SimulationConfig(seed=3, max_packets=PACKETS, kernel=kernel)
    summary = RunSummary.from_result(
        runner.run_trace(synthetic, "cesrm", config, tracer=tracer, faults=plan)
    ).to_dict()
    summary.pop("wall_time")
    summary.pop("obs", None)
    (simulation,) = built
    return summary, simulation.network.packets_dropped, simulation.faults


@pytest.mark.parametrize("kernel", KERNELS)
def test_compiled_drops_equal_on_hop(synthetic, kernel, monkeypatch):
    compiled, dropped, injector = replay(synthetic, kernel, monkeypatch)
    assert injector._drop_table == synthetic.link_combos, "one rule: its own table"
    assert dropped > 0
    traced = replay(
        synthetic, kernel, monkeypatch, tracer=Tracer(RingBufferSink(capacity=16))
    )
    ruled = replay(synthetic, kernel, monkeypatch, rule=True)
    assert ruled[2]._drop_table is None, "a plain rule leaves nothing compiled"
    assert traced[:2] == (compiled, dropped)
    assert ruled[:2] == (compiled, dropped)


@pytest.mark.parametrize("kernel", KERNELS)
def test_outage_mid_replay_equal_on_hop(synthetic, kernel, monkeypatch):
    """An outage switches the hops to on_hop while it lasts and back to the
    table after: the same run as one that consults on_hop throughout."""
    switched, dropped, injector = replay(synthetic, kernel, monkeypatch, plan=OUTAGE)
    assert injector.packets_blocked > 0, "the outage cut live traffic"
    throughout = replay(synthetic, kernel, monkeypatch, plan=OUTAGE, rule=True)
    assert throughout[:2] == (switched, dropped)
    assert dropped > replay(synthetic, kernel, monkeypatch)[1]


def test_kernels_agree(synthetic, monkeypatch):
    runs = []
    for kernel in KERNELS:
        summary, dropped, _ = replay(synthetic, kernel, monkeypatch)
        summary.pop("config")  # names the kernel
        runs.append((summary, dropped))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kernel", KERNELS)
def test_rule_added_mid_replay_recompiles(synthetic, kernel):
    """A drop table added after the replay's first step — the first DATA
    send, whose drops the vector kernel has already read — replaces the
    compiled table (a union of both), and its drops take effect exactly
    as if it had been installed before the run: on the packet already in
    flight as on one not yet sent."""
    assert 0 not in synthetic.link_combos
    extra = {0: frozenset({("x1", "r5")}), PACKETS - 10: frozenset({("s", "x1")})}
    config = SimulationConfig(seed=3, max_packets=PACKETS, kernel=kernel)

    def run(add_late: bool):
        simulation = runner.build_simulation(synthetic, "cesrm", config)
        faults = simulation.faults
        if not add_late:
            faults.add_hop_rule(trace_drop_rule(extra))
        sim = simulation.sim
        network = simulation.network
        while not network.crossings.by_kind(PacketKind.DATA):
            sim.run(max_events=1)  # up to packet 0's send
        if add_late:
            if kernel == "vector":
                assert 0 in network._vk._drop_cache, "packet 0's drops were read"
            before = faults._drop_table
            faults.add_hop_rule(trace_drop_rule(extra))
            assert faults._drop_table is not before
            assert faults._drop_table.get(0) == extra[0]
        sim.run(until=simulation.end_time)
        return (
            network.packets_dropped,
            network.packets_delivered,
            network.crossings.snapshot(),
            sim.events_processed,
            dict(simulation.metrics.sends),
        )

    late = run(add_late=True)
    assert late == run(add_late=False)
    baseline = runner.build_simulation(synthetic, "cesrm", config)
    baseline.sim.run(until=baseline.end_time)
    assert late[0] == baseline.network.packets_dropped + 2
