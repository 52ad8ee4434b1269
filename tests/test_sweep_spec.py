"""Sweep spec compilation: grids, cases, defaults, digests, validation."""

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan, LinkDown
from repro.harness.config import DEFAULT_MAX_PACKETS
from repro.sweep.spec import (
    SweepError,
    compile_sweep,
    load_sweep,
)

GRID_TOML = """
name = "t"
description = "d"

[grid]
protocol = ["srm", "cesrm"]
trace = ["WRN950919", "RFV960419"]
seed = [0, 1]
"""

GRID_DATA = {
    "name": "t",
    "description": "d",
    "grid": {
        "protocol": ["srm", "cesrm"],
        "trace": ["WRN950919", "RFV960419"],
        "seed": [0, 1],
    },
}


class TestCompile:
    def test_cartesian_product(self):
        spec = compile_sweep(GRID_DATA)
        assert len(spec) == 8
        assert spec.duplicates == 0
        coords = {(c.protocol, c.trace, c.seed) for c in spec.cases}
        assert ("cesrm", "RFV960419", 1) in coords
        assert len(coords) == 8

    def test_seed_folds_into_config_and_trace(self):
        spec = compile_sweep(GRID_DATA)
        for case in spec.cases:
            assert case.job.config.seed == case.seed
            assert case.job.trace_seed == case.seed

    def test_default_max_packets(self):
        spec = compile_sweep(GRID_DATA)
        for case in spec.cases:
            assert case.max_packets == DEFAULT_MAX_PACKETS
            assert case.job.config.max_packets == DEFAULT_MAX_PACKETS
            assert case.job.trace_max_packets == DEFAULT_MAX_PACKETS

    def test_max_packets_zero_means_full_trace(self):
        spec = compile_sweep(
            {
                "grid": {"protocol": ["srm"], "trace": ["WRN950919"]},
                "defaults": {"max_packets": 0},
            }
        )
        case = spec.cases[0]
        assert case.max_packets is None
        assert case.job.trace_max_packets is None

    def test_grid_params_multiply(self):
        spec = compile_sweep(
            {
                "grid": {
                    "protocol": ["cesrm"],
                    "trace": ["WRN950919"],
                    "params": {"cache_capacity": [1, 4, 16]},
                },
            }
        )
        assert len(spec) == 3
        assert sorted(c.job.config.cache_capacity for c in spec.cases) == [1, 4, 16]
        assert all(json.loads(c.params)["cache_capacity"] in (1, 4, 16) for c in spec.cases)

    def test_fixed_params_apply_everywhere(self):
        spec = compile_sweep(
            {
                "grid": {"protocol": ["srm", "cesrm"], "trace": ["WRN950919"]},
                "params": {"propagation_delay": 0.05},
            }
        )
        assert all(c.job.config.propagation_delay == 0.05 for c in spec.cases)

    def test_cases_append_to_grid(self):
        data = dict(GRID_DATA)
        data["cases"] = [{"protocol": "cesrm-router", "trace": "WRN950919"}]
        spec = compile_sweep(data)
        assert len(spec) == 9
        assert any(c.protocol == "cesrm-router" for c in spec.cases)

    def test_cases_only_spec(self):
        spec = compile_sweep(
            {"cases": [{"protocol": "srm", "trace": "WRN950919", "seed": 7}]}
        )
        assert len(spec) == 1
        assert spec.cases[0].seed == 7

    def test_defaults_fill_missing_axes(self):
        spec = compile_sweep(
            {
                "defaults": {"protocol": "cesrm", "trace": "WRN950919", "seed": 3},
                "cases": [{}, {"seed": 4}],
            }
        )
        assert [c.seed for c in spec.cases] == [3, 4]
        assert all(c.protocol == "cesrm" for c in spec.cases)

    def test_duplicates_pruned_and_counted(self):
        spec = compile_sweep(
            {
                "cases": [
                    {"protocol": "srm", "trace": "WRN950919"},
                    {"protocol": "srm", "trace": "WRN950919"},
                ]
            }
        )
        assert len(spec) == 1
        assert spec.duplicates == 1

    def test_topology_trace_accepted(self):
        spec = compile_sweep(
            {"cases": [{"protocol": "srm", "trace": "tree:depth=2,fanout=2"}]}
        )
        assert spec.cases[0].trace == "tree:depth=2,fanout=2"


class TestDigest:
    def test_toml_json_equivalence(self, tmp_path):
        toml_path = tmp_path / "t.toml"
        toml_path.write_text(GRID_TOML)
        json_path = tmp_path / "t.json"
        json_path.write_text(json.dumps(GRID_DATA))
        assert load_sweep(toml_path).digest() == load_sweep(json_path).digest()

    def test_order_independent(self):
        reordered = dict(GRID_DATA)
        reordered["grid"] = {
            "seed": [1, 0],
            "trace": ["RFV960419", "WRN950919"],
            "protocol": ["cesrm", "srm"],
        }
        assert compile_sweep(GRID_DATA).digest() == compile_sweep(reordered).digest()

    def test_name_does_not_change_digest(self):
        renamed = dict(GRID_DATA, name="other", description="other")
        assert compile_sweep(GRID_DATA).digest() == compile_sweep(renamed).digest()

    def test_axis_value_changes_digest(self):
        changed = dict(GRID_DATA)
        changed["grid"] = dict(GRID_DATA["grid"], seed=[0, 2])
        assert compile_sweep(GRID_DATA).digest() != compile_sweep(changed).digest()


class TestFaults:
    def test_plan_path_resolved_against_spec_dir(self, tmp_path):
        plan = FaultPlan([LinkDown(u="s", v="x1", at=1.0, duration=2.0)])
        plan.save(tmp_path / "plan.json")
        spec_path = tmp_path / "sweep.toml"
        spec_path.write_text(
            'name = "f"\n[[cases]]\nprotocol = "srm"\ntrace = "WRN950919"\n'
            'faults = "plan.json"\n'
        )
        spec = load_sweep(spec_path)
        assert spec.cases[0].axes()["faults"] == "plan.json"
        assert not spec.cases[0].job.faults.empty

    def test_inline_plan(self):
        plan = FaultPlan([LinkDown(u="s", v="x1", at=1.0, duration=2.0)])
        spec = compile_sweep(
            {
                "cases": [
                    {
                        "protocol": "srm",
                        "trace": "WRN950919",
                        "faults": plan.to_dict(),
                    }
                ]
            }
        )
        assert spec.cases[0].axes()["faults"].startswith("inline:")
        assert not spec.cases[0].job.faults.empty

    def test_spec_string_compiles_to_the_cli_job(self):
        """The grid's ``faults`` axis reads a spec string the way the CLI's
        ``--faults`` does: the same plan, so the same job key."""
        from repro.exec.jobs import RunJob
        from repro.faults import compile_fault_plan
        from repro.harness import cli
        from repro.harness.config import SimulationConfig

        fault = "node-crash:host=r2,at=5s"
        spec = compile_sweep(
            {"grid": {"protocol": ["srm"], "trace": ["WRN951113"], "faults": [fault]}}
        )
        (case,) = spec.cases
        assert case.axes()["faults"] == fault
        expected = RunJob(
            trace="WRN951113",
            protocol="srm",
            config=SimulationConfig().with_(seed=0, max_packets=DEFAULT_MAX_PACKETS),
            trace_seed=0,
            trace_max_packets=DEFAULT_MAX_PACKETS,
            faults=compile_fault_plan(fault),
        )
        assert case.job.key() == expected.key()
        args = cli.build_parser().parse_args(["run", "--no-cache", "--faults", fault])
        assert cli._context(args).job("WRN951113", "srm").key() == case.job.key()

    def test_bad_spec_string_rejected(self):
        with pytest.raises(SweepError, match="cannot load fault plan"):
            compile_sweep(
                {
                    "cases": [
                        {
                            "protocol": "srm",
                            "trace": "WRN950919",
                            "faults": "node-crash:at=5s",
                        }
                    ]
                }
            )

    def test_missing_plan_file_rejected(self, tmp_path):
        with pytest.raises(SweepError, match="cannot load fault plan"):
            compile_sweep(
                {
                    "cases": [
                        {"protocol": "srm", "trace": "WRN950919", "faults": "nope.json"}
                    ]
                },
                base_dir=tmp_path,
            )


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(SweepError, match="unknown sweep spec keys"):
            compile_sweep({"grids": {}})

    def test_unknown_axis(self):
        with pytest.raises(SweepError, match="unknown grid axis"):
            compile_sweep({"grid": {"proto": ["srm"]}})

    def test_empty_axis_list(self):
        with pytest.raises(SweepError, match="empty list"):
            compile_sweep({"grid": {"protocol": []}})

    def test_unknown_trace(self):
        with pytest.raises(SweepError, match="unknown trace"):
            compile_sweep({"cases": [{"protocol": "srm", "trace": "NOPE"}]})

    def test_unknown_protocol(self):
        with pytest.raises(SweepError):
            compile_sweep({"cases": [{"protocol": "nope", "trace": "WRN950919"}]})

    def test_unknown_param(self):
        with pytest.raises(SweepError, match="unknown config param"):
            compile_sweep(
                {
                    "grid": {"protocol": ["srm"], "trace": ["WRN950919"]},
                    "params": {"nope": 1},
                }
            )

    def test_reserved_param_redirected(self):
        with pytest.raises(SweepError, match="sweep axis, not a param"):
            compile_sweep(
                {
                    "grid": {"protocol": ["srm"], "trace": ["WRN950919"]},
                    "params": {"seed": 1},
                }
            )

    def test_missing_protocol(self):
        with pytest.raises(SweepError, match="no protocol"):
            compile_sweep({"cases": [{"trace": "WRN950919"}]})

    def test_bad_seed_type(self):
        with pytest.raises(SweepError, match="seed must be an integer"):
            compile_sweep(
                {"cases": [{"protocol": "srm", "trace": "WRN950919", "seed": "x"}]}
            )

    def test_negative_max_packets(self):
        with pytest.raises(SweepError, match="max_packets"):
            compile_sweep(
                {
                    "cases": [
                        {"protocol": "srm", "trace": "WRN950919", "max_packets": -1}
                    ]
                }
            )

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SweepError, match="cannot read"):
            load_sweep(tmp_path / "missing.toml")

    def test_invalid_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(SweepError, match="invalid TOML"):
            load_sweep(path)


def test_shipped_example_grids_compile():
    grids = sorted((Path(__file__).parent.parent / "examples").glob("*.toml"))
    assert grids
    for path in grids:
        assert len(load_sweep(path)) > 0, path.name
