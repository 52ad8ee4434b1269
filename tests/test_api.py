"""Tests for the public facade (repro.api) and the examples' use of it."""

import ast
from pathlib import Path

import repro.api as api

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestFacade:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_core_surface_present(self):
        assert api.run_trace is not None
        assert api.build_simulation is not None
        assert api.SimulationConfig is not None
        assert api.FaultPlan is not None
        assert api.ProtocolSpec is not None
        assert "cesrm" in api.PROTOCOLS

    def test_facade_matches_deep_paths(self):
        from repro.faults import FaultPlan
        from repro.harness.registry import PROTOCOLS
        from repro.harness.runner import run_trace

        assert api.run_trace is run_trace
        assert api.FaultPlan is FaultPlan
        assert api.PROTOCOLS is PROTOCOLS

    def test_no_duplicate_exports(self):
        assert len(api.__all__) == len(set(api.__all__))


class TestExamplesUseOnlyTheFacade:
    def test_examples_import_repro_api_only(self):
        assert EXAMPLES.is_dir()
        offenders = []
        for path in sorted(EXAMPLES.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if module.startswith("repro") and module != "repro.api":
                        offenders.append(f"{path.name}: from {module} import ...")
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro"):
                            offenders.append(f"{path.name}: import {alias.name}")
        assert offenders == []

    def test_examples_only_use_exported_names(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "repro.api":
                    for alias in node.names:
                        assert alias.name in api.__all__, (
                            f"{path.name} imports {alias.name}, "
                            "not part of repro.api.__all__"
                        )
