"""Machine-readable CLI surfaces: ``--json`` listings and the sweep
command's argument handling."""

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.registry import PROTOCOLS
from repro.workloads import WORKLOADS


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


class TestProtocolsJson:
    def test_lists_every_registered_protocol(self, capsys):
        assert main(["protocols", "--json"]) == 0
        data = _json_out(capsys)
        assert [p["name"] for p in data["protocols"]] == list(PROTOCOLS.names())

    def test_entry_shape(self, capsys):
        main(["protocols", "--json"])
        entry = _json_out(capsys)["protocols"][0]
        assert set(entry) == {"name", "description", "tags", "fabric"}
        assert isinstance(entry["fabric"], bool)


class TestWorkloadsJson:
    def test_lists_every_workload(self, capsys):
        assert main(["workloads", "--json"]) == 0
        data = _json_out(capsys)
        assert [w["name"] for w in data["workloads"]] == list(WORKLOADS.names())
        assert data["topologies"]  # the tree: generative topology family

    def test_params_documented(self, capsys):
        main(["workloads", "--json"])
        data = _json_out(capsys)
        for workload in data["workloads"]:
            assert isinstance(workload["params"], dict)


class TestFaultsJson:
    def test_lists_event_vocabulary(self, capsys):
        assert main(["faults", "--json"]) == 0
        data = _json_out(capsys)
        types = [e["type"] for e in data["events"]]
        assert "link-down" in types
        assert "partition" in types
        assert types == sorted(types)
        assert "plan" not in data  # no plan loaded

    def test_includes_loaded_plan(self, capsys):
        assert main(["faults", "--json", "--sample"]) == 0
        data = _json_out(capsys)
        assert data["plan"]["events"]


class TestSweepParser:
    def test_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "query",
                "--where",
                "protocol=cesrm",
                "--where",
                "seed=0",
                "--group-by",
                "protocol,trace",
                "--metric",
                "avg_latency_rtt",
                "--agg",
                "max",
                "--format",
                "csv",
                "--store",
                "/tmp/x.sqlite",
            ]
        )
        assert args.command == "sweep"
        assert args.names == ["query"]
        assert args.where == ["protocol=cesrm", "seed=0"]
        assert args.group_by == "protocol,trace"
        assert args.agg == "max"
        assert args.fmt == "csv"
        assert args.store == "/tmp/x.sqlite"

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["sweep", "run", "grid.toml", "--chunk-size", "4", "--retries", "5"]
        )
        assert args.names == ["run", "grid.toml"]
        assert args.chunk_size == 4
        assert args.retries == 5

    def test_bad_agg_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "query", "--agg", "median"])

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "report", "--format", "yaml"])


class TestSweepCommand:
    def test_unknown_subcommand_usage(self, capsys):
        assert main(["sweep", "frobnicate"]) == 2
        assert "usage: cesrm sweep" in capsys.readouterr().err

    def test_run_needs_spec(self, capsys):
        assert main(["sweep", "run"]) == 2
        assert "needs a spec file" in capsys.readouterr().err

    def test_run_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('[grid]\nprotocol = ["nope"]\ntrace = ["WRN950919"]\n')
        assert (
            main(["sweep", "run", str(bad), "--cache-dir", str(tmp_path)]) == 2
        )
        assert "bad sweep spec" in capsys.readouterr().err

    def test_status_empty_store(self, tmp_path, capsys):
        rc = main(["sweep", "status", "--store", str(tmp_path / "empty.sqlite")])
        assert rc == 0
        assert "no sweeps recorded" in capsys.readouterr().out

    def test_query_empty_store_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "query", "--store", str(tmp_path / "empty.sqlite")])
        assert rc == 2
        assert "no sweeps recorded" in capsys.readouterr().err

    def test_bad_where_token(self):
        from argparse import Namespace

        from repro.harness.cli import _sweep_where

        with pytest.raises(SystemExit, match="COL=VALUE"):
            _sweep_where(Namespace(where=["protocol"]))

    def test_where_tokens_parse(self):
        from argparse import Namespace

        from repro.harness.cli import _sweep_where

        parsed = _sweep_where(Namespace(where=["protocol=cesrm", " seed = 3 "]))
        assert parsed == {"protocol": "cesrm", "seed": "3"}
