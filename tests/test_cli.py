"""Tests for the ``cesrm`` command-line interface."""

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_commands_accepted(self):
        parser = build_parser()
        for command in (
            "table1",
            "figure1",
            "figure5",
            "run",
            "timeline",
            "analyze",
            "synth",
            "all",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--trace", "WRN951216", "--protocol", "cesrm-router", "--seed", "3"]
        )
        assert args.trace == "WRN951216"
        assert args.protocol == "cesrm-router"
        assert args.seed == 3

    def test_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace", "NOPE"])

    def test_max_packets_flag(self):
        args = build_parser().parse_args(["table1", "--max-packets", "500"])
        assert args.max_packets == 500

    def test_exec_flags(self):
        args = build_parser().parse_args(
            ["figure1", "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache

    def test_cache_command_accepted(self):
        args = build_parser().parse_args(["cache", "--clear"])
        assert args.command == "cache"
        assert args.clear

    def test_trace_command_options(self):
        args = build_parser().parse_args(
            [
                "trace",
                "--trace",
                "WRN951216",
                "--trace-out",
                "events.jsonl",
                "--profile",
                "--host",
                "r3",
                "--seq",
                "42",
                "--outcome",
                "expedited",
                "--limit",
                "5",
                "--events",
                "erqst.",
            ]
        )
        assert args.command == "trace"
        assert args.trace_out == "events.jsonl"
        assert args.profile
        assert args.host == "r3"
        assert args.seq == 42
        assert args.outcome == "expedited"
        assert args.limit == 5
        assert args.events == "erqst."

    def test_bad_outcome_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--outcome", "nope"])


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1", "--max-packets", "300"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "RFV960419" in out

    def test_run_single(self, capsys):
        code = main(
            ["run", "--trace", "WRN951216", "--protocol", "cesrm", "--max-packets", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cesrm on WRN951216" in out
        assert "expedited" in out

    def test_run_srm_has_no_expedited_line(self, capsys):
        main(["run", "--trace", "WRN951216", "--protocol", "srm", "--max-packets", "300"])
        out = capsys.readouterr().out
        assert "expedited" not in out

    def test_section34(self, capsys):
        assert main(["section34", "--max-packets", "300"]) == 0
        out = capsys.readouterr().out
        assert "Eq.(1)" in out

    def test_timeline(self, capsys):
        assert main(
            ["timeline", "--trace", "WRN951216", "--max-packets", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "recovery timeline" in out
        assert "RTT" in out

    def test_timeline_with_explicit_receiver(self, capsys):
        main(
            [
                "timeline",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--receiver",
                "r1",
            ]
        )
        out = capsys.readouterr().out
        assert "r1" in out

    def test_synth_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        assert main(
            [
                "synth",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--out",
                str(out_path),
            ]
        ) == 0
        assert out_path.exists()
        from repro.traces.io import load_trace

        assert load_trace(out_path).n_packets == 300

    def test_analyze(self, capsys):
        assert main(["analyze", "--max-packets", "300"]) == 0
        out = capsys.readouterr().out
        assert "RecentAcc" in out

    def test_verify_flag(self, capsys):
        assert main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--protocol",
                "cesrm",
                "--max-packets",
                "300",
                "--verify",
            ]
        ) == 0

    def test_all_traces_flag(self, capsys):
        assert main(["figure2", "--all-traces", "--max-packets", "300"]) == 0
        out = capsys.readouterr().out
        assert out.count("Figure 2") == 14

    def test_trace_command_prints_timelines(self, capsys):
        assert main(
            [
                "trace",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--limit",
                "2",
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "losses" in out
        assert "loss.detected" in out
        assert "loss s:" in out

    def test_trace_outcome_filter(self, capsys):
        assert main(
            [
                "trace",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--outcome",
                "expedited",
                "--limit",
                "1",
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        # every printed story carries the requested outcome label
        for line in out.splitlines():
            if line.startswith("loss "):
                assert "— expedited" in line

    def test_trace_out_writes_valid_jsonl(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(
            [
                "trace",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--trace-out",
                str(path),
                "--limit",
                "0",
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert str(path) in out
        from repro.obs import JsonlFileSink, RecoveryTimeline

        events = JsonlFileSink.read(path)
        assert events
        assert len(RecoveryTimeline.from_events(events).stories) > 0

    def test_run_with_profile(self, capsys):
        assert main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--profile",
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cesrm on WRN951216" in out
        assert "profile:" in out

    def test_run_with_trace_out(self, capsys, tmp_path):
        path = tmp_path / "run-events.jsonl"
        assert main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--trace-out",
                str(path),
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "event stream written to" in out
        assert path.exists()


class TestExecIntegration:
    def test_warm_rerun_stdout_identical(self, capsys, tmp_path):
        argv = [
            "figure2",
            "--max-packets",
            "300",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "0 misses" in warm.err  # second pass served from cache

    def test_cache_stats_on_stderr_not_stdout(self, capsys, tmp_path):
        main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        captured = capsys.readouterr()
        assert "[exec] cache:" in captured.err
        assert "[exec]" not in captured.out

    def test_no_cache_skips_cache(self, capsys, tmp_path):
        main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--no-cache",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        captured = capsys.readouterr()
        assert "[exec] cache:" not in captured.err
        assert not (tmp_path / "cache").exists()

    def test_cache_inspect_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--cache-dir",
                cache_dir,
            ]
        )
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1 (1 current, 0 stale)" in out
        assert "WRN951216" in out
        assert main(["cache", "--cache-dir", cache_dir, "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 entries" in out
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestWorkloads:
    def test_parser_accepts_workload(self):
        args = build_parser().parse_args(
            ["run", "--workload", "zipf:alpha=1.1,objects=64"]
        )
        assert args.workload == "zipf:alpha=1.1,objects=64"

    def test_bad_workload_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope:x=1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "zipf:alpa=1"])

    def test_parser_accepts_topology_trace(self):
        args = build_parser().parse_args(
            ["run", "--trace", "tree:depth=3,fanout=2"]
        )
        assert args.trace == "tree:depth=3,fanout=2"

    def test_bad_topology_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace", "tree:depth=0"])

    def test_workloads_command_lists_families(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for family in ("cbr", "poisson", "zipf", "flash_crowd", "diurnal",
                       "multi_source", "trace"):
            assert family in out
        # topology grammar footer: every registered family, by construction
        for family in ("tree", "transit_stub", "random_tree", "fat_tree"):
            assert f"{family}:..." in out

    def test_run_with_workload_prints_stats(self, capsys):
        assert main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--protocol",
                "cesrm",
                "--max-packets",
                "300",
                "--workload",
                "multi_source:senders=3",
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "workload multi_source:senders=3" in out
        assert "senders" in out

    def test_run_on_generative_topology(self, capsys):
        assert main(
            [
                "run",
                "--trace",
                "tree:depth=2,fanout=2",
                "--protocol",
                "srm",
                "--max-packets",
                "200",
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "srm on tree:depth=2,fanout=2" in out

    def test_workload_composes_with_faults(self, capsys, tmp_path):
        """The ISSUE's acceptance command: workload + fault plan + cesrm."""
        from repro.faults import sample_plan

        plan_path = tmp_path / "plan.json"
        sample_plan().save(plan_path)
        assert main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--protocol",
                "cesrm",
                "--max-packets",
                "300",
                "--workload",
                "zipf:alpha=1.1",
                "--faults",
                str(plan_path),
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "workload zipf:alpha=1.1" in out

    def test_cache_listing_shows_workload(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(
            [
                "run",
                "--trace",
                "WRN951216",
                "--max-packets",
                "300",
                "--workload",
                "poisson",
                "--cache-dir",
                cache_dir,
            ]
        )
        capsys.readouterr()
        assert main(["cache", "--cache-dir", cache_dir]) == 0
        assert "workload=poisson" in capsys.readouterr().out
