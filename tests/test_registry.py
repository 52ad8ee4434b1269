"""Tests for the pluggable protocol registry (repro.harness.registry)
and the contract every registry-backed surface shares."""

import json

import pytest

from repro.core.cachelab import CACHE_POLICIES, CachePolicySpec
from repro.core.policies import SELECTION_POLICIES, SelectionPolicy, register_policy
from repro.harness import specstr
from repro.harness.cli import main
from repro.harness.config import SimulationConfig
from repro.harness.registry import PROTOCOLS, ProtocolSpec
from repro.harness.runner import build_simulation, run_trace
from repro.harness.specstr import SpecError
from repro.net.families import TOPOLOGIES, TopologySpec, build_topology
from repro.workloads import WORKLOADS, WorkloadSpec
from repro.srm.agent import SrmAgent
from repro.traces.synthesize import SynthesisParams, synthesize_trace


def small_synthetic(n_packets=60, target=25, seed=2):
    params = SynthesisParams(
        name="registry",
        n_receivers=4,
        tree_depth=3,
        period=0.04,
        n_packets=n_packets,
        target_losses=target,
    )
    return synthesize_trace(params, seed=seed)


class TestBuiltinRegistry:
    def test_ships_all_protocols_in_paper_order(self):
        assert PROTOCOLS.names() == (
            "srm",
            "srm-adaptive",
            "cesrm",
            "cesrm-router",
            "lms",
            "rmtp",
        )

    def test_every_builtin_runs_end_to_end(self):
        synthetic = small_synthetic()
        for name in PROTOCOLS.names():
            result = run_trace(synthetic, name, SimulationConfig())
            assert result.protocol == name
            assert result.unrecovered_losses == 0, name

    def test_specs_carry_descriptions(self):
        for spec in PROTOCOLS.specs():
            assert spec.description

    def test_get_spec_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="srm"):
            PROTOCOLS.get("tcp")

    def test_fabric_only_where_expected(self):
        assert PROTOCOLS.get("lms").fabric_factory is not None
        assert PROTOCOLS.get("rmtp").fabric_factory is not None
        assert PROTOCOLS.get("srm").fabric_factory is None
        assert PROTOCOLS.get("cesrm").fabric_factory is None

    def test_cesrm_kwargs_derive_from_config(self):
        config = SimulationConfig(cache_capacity=4, reorder_delay=0.01)
        kwargs = PROTOCOLS.get("cesrm").extra_agent_kwargs(config)
        assert kwargs["cache_capacity"] == 4
        assert kwargs["reorder_delay"] == 0.01
        assert PROTOCOLS.get("srm").extra_agent_kwargs(config) == {}


class TestRunnerIsProtocolAgnostic:
    def test_runner_source_has_no_protocol_name_literals(self):
        """The runner must dispatch through specs, never on protocol names."""
        import inspect

        from repro.harness import runner

        source = inspect.getsource(runner)
        for name in PROTOCOLS.names():
            assert f'"{name}"' not in source
            assert f"'{name}'" not in source


class TestPluggability:
    def test_register_and_run_a_custom_protocol(self):
        class QuietSrm(SrmAgent):
            pass

        PROTOCOLS.register(ProtocolSpec(name="quiet-srm", agent_cls=QuietSrm))
        try:
            assert "quiet-srm" in PROTOCOLS.names()
            simulation = build_simulation(
                small_synthetic(), "quiet-srm", SimulationConfig()
            )
            assert all(isinstance(a, QuietSrm) for a in simulation.agents.values())
        finally:
            PROTOCOLS.unregister("quiet-srm")
        assert "quiet-srm" not in PROTOCOLS.names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            PROTOCOLS.register(ProtocolSpec(name="srm", agent_cls=SrmAgent))

    def test_replace_allows_test_doubles(self):
        original = PROTOCOLS.get("srm")
        PROTOCOLS.register(ProtocolSpec(name="srm", agent_cls=SrmAgent), replace=True)
        try:
            assert PROTOCOLS.get("srm").agent_cls is SrmAgent
        finally:
            PROTOCOLS.register(original, replace=True)


# ----------------------------------------------------------------------
# The surface contract, checked once for every registry
# ----------------------------------------------------------------------
# A pluggable surface is one ``Registry`` instance; every test below is
# parametrised over the table and names no surface in its body, so a
# sixth registry is covered the moment it gets a row.  Each row: the
# registry, the literal noun its messages are pinned to, how to build a
# double, and the ``cesrm <things>`` command that lists it (selection
# policies have none).
DOUBLE = "contract-double"


def _policy_double(name):
    return type("Double", (SelectionPolicy,), {"name": name, "select": lambda s, c: None})


SURFACES = [
    (PROTOCOLS, "protocol", lambda n: ProtocolSpec(name=n, agent_cls=SrmAgent), "protocols"),
    (WORKLOADS, "workload", lambda n: WorkloadSpec(name=n, factory=dict), "workloads"),
    (
        TOPOLOGIES,
        "topology family",
        lambda n: TopologySpec(name=n, build=dict, validate=dict, defaults={}),
        "topologies",
    ),
    (CACHE_POLICIES, "cache policy", lambda n: CachePolicySpec(name=n, factory=dict), "caches"),
    (SELECTION_POLICIES, "policy", _policy_double, None),
]
surfaces = pytest.mark.parametrize(
    "registry, noun, double, command", SURFACES, ids=[row[1] for row in SURFACES]
)


def _listed(command, capsys) -> tuple[str, list[str]]:
    """The text of ``cesrm <command>`` and the names in its ``--json``."""
    assert main([command, "--no-cache"]) == 0
    text = capsys.readouterr().out
    assert main([command, "--no-cache", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)[command]
    return text, [row["name"] for row in rows]


@surfaces
def test_a_registered_double_is_listed_until_unregistered(
    registry, noun, double, command, capsys
):
    before = registry.names()
    spec = registry.register(double(DOUBLE))
    try:
        assert registry.get(DOUBLE) is spec
        assert registry.names() == before + (DOUBLE,)
        assert registry.specs()[-1] is spec
        if command is not None:
            text, names = _listed(command, capsys)
            assert DOUBLE in text
            assert names == list(registry.names())
    finally:
        registry.unregister(DOUBLE)
    assert registry.names() == before
    if command is not None:
        text, names = _listed(command, capsys)
        assert DOUBLE not in text and DOUBLE not in names


@surfaces
def test_duplicate_names_are_refused_unless_replaced(registry, noun, double, command):
    first = registry.register(double(DOUBLE))
    try:
        with pytest.raises(registry.error) as exc:
            registry.register(double(DOUBLE))
        assert str(exc.value) == f"{noun} '{DOUBLE}' is already registered"
        assert registry.get(DOUBLE) is first
        second = registry.register(double(DOUBLE), replace=True)
        assert registry.get(DOUBLE) is second
    finally:
        registry.unregister(DOUBLE)


@surfaces
def test_unknown_name_lists_the_known_ones(registry, noun, double, command):
    with pytest.raises(registry.error) as exc:
        registry.get("no-such-entry")
    assert str(exc.value) == (
        f"unknown {noun} 'no-such-entry'; known: {registry.names()}"
    )


@surfaces
@pytest.mark.parametrize("malformed", ["", "x:", "x:a=1,a=2", "x:=1"])
def test_malformed_spec_raises_the_surface_error(
    registry, noun, double, command, malformed
):
    with pytest.raises(registry.error) as exc:
        registry.resolve(malformed)
    assert not isinstance(exc.value, SpecError)
    assert f"{registry.label} spec" in str(exc.value)


def test_register_policy_refuses_a_taken_name():
    """`@register_policy` used to swap a built-in silently: the paper's
    §3.2 policy replaced for every later run, recorded by no digest."""
    original = SELECTION_POLICIES.get("most-recent")
    usurper = _policy_double("most-recent")
    try:
        with pytest.raises(ValueError, match="policy 'most-recent' is already registered"):
            register_policy(usurper)
        assert SELECTION_POLICIES.get("most-recent") is original
        assert register_policy(usurper, replace=True) is usurper
        assert SELECTION_POLICIES.get("most-recent") is usurper
    finally:
        SELECTION_POLICIES.register(original, replace=True)


def test_build_topology_parses_its_spec_once(monkeypatch):
    calls = []
    real = specstr.parse_spec

    def counting(spec, **kwargs):
        calls.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(specstr, "parse_spec", counting)
    build_topology("tree:depth=2,fanout=2")
    assert calls == ["tree:depth=2,fanout=2"]
