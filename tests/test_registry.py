"""Tests for the pluggable protocol registry (repro.harness.registry)."""

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.registry import (
    ProtocolSpec,
    all_specs,
    available_protocols,
    get_spec,
    register,
    unregister,
)
from repro.harness.runner import build_simulation, run_trace
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
        assert available_protocols() == (
            "srm",
            "srm-adaptive",
            "cesrm",
            "cesrm-router",
            "lms",
            "rmtp",
        )

    def test_every_builtin_runs_end_to_end(self):
        synthetic = small_synthetic()
        for name in available_protocols():
            result = run_trace(synthetic, name, SimulationConfig())
            assert result.protocol == name
            assert result.unrecovered_losses == 0, name

    def test_specs_carry_descriptions(self):
        for spec in all_specs():
            assert spec.description

    def test_get_spec_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="srm"):
            get_spec("tcp")

    def test_fabric_only_where_expected(self):
        assert get_spec("lms").fabric_factory is not None
        assert get_spec("rmtp").fabric_factory is not None
        assert get_spec("srm").fabric_factory is None
        assert get_spec("cesrm").fabric_factory is None

    def test_cesrm_kwargs_derive_from_config(self):
        config = SimulationConfig(cache_capacity=4, reorder_delay=0.01)
        kwargs = get_spec("cesrm").extra_agent_kwargs(config)
        assert kwargs["cache_capacity"] == 4
        assert kwargs["reorder_delay"] == 0.01
        assert get_spec("srm").extra_agent_kwargs(config) == {}


class TestRunnerIsProtocolAgnostic:
    def test_runner_source_has_no_protocol_name_literals(self):
        """The runner must dispatch through specs, never on protocol names."""
        import inspect

        from repro.harness import runner

        source = inspect.getsource(runner)
        for name in available_protocols():
            assert f'"{name}"' not in source
            assert f"'{name}'" not in source


class TestPluggability:
    def test_register_and_run_a_custom_protocol(self):
        class QuietSrm(SrmAgent):
            pass

        register(ProtocolSpec(name="quiet-srm", agent_cls=QuietSrm))
        try:
            assert "quiet-srm" in available_protocols()
            simulation = build_simulation(
                small_synthetic(), "quiet-srm", SimulationConfig()
            )
            assert all(isinstance(a, QuietSrm) for a in simulation.agents.values())
        finally:
            unregister("quiet-srm")
        assert "quiet-srm" not in available_protocols()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(ProtocolSpec(name="srm", agent_cls=SrmAgent))

    def test_replace_allows_test_doubles(self):
        original = get_spec("srm")
        register(ProtocolSpec(name="srm", agent_cls=SrmAgent), replace=True)
        try:
            assert get_spec("srm").agent_cls is SrmAgent
        finally:
            register(original, replace=True)
