"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "topology", "failover", "compare", "sweep", "control", "appendix", "drill",
        ):
            args = parser.parse_args(
                [command, "withdrawal"] if command == "appendix" else [command]
            )
            assert callable(args.func)

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "topology"])
        assert args.seed == 7

    def test_failover_defaults(self):
        args = build_parser().parse_args(["failover"])
        assert args.technique == "reactive-anycast"
        assert args.site == "sea1"
        assert not args.silent

    def test_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["failover", "-t", "quantum"])

    def test_parallel_flags(self):
        args = build_parser().parse_args(["compare", "--workers", "4"])
        assert args.workers == 4
        assert args.cell_timeout == 900.0
        assert not args.no_progress
        args = build_parser().parse_args(["compare"])
        assert args.workers == 1  # default stays serial

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workers", "0"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert "combined" in args.techniques
        assert len(args.techniques) == 5
        assert args.output == "sweep.json"

    def test_sweep_unknown_technique_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "-t", "quantum"])


class TestCommands:
    def test_topology_summary(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "ASes:" in out
        assert "sites: ams, ath" in out

    def test_topology_sites_flag(self, capsys):
        assert main(["topology", "--sites"]) == 0
        out = capsys.readouterr().out
        assert "region=us-west" in out

    def test_failover_small_run(self, capsys):
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "5", "--duration", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reconnection:" in out
        assert "failover:" in out

    def test_failover_unknown_site(self, capsys):
        code = main(["failover", "-s", "lhr", "--targets", "3", "--duration", "30"])
        assert code == 2

    def test_drill_passes(self, capsys):
        code = main(["drill", "-t", "reactive-anycast", "--clients", "5"])
        assert code == 0
        assert "all sites pass" in capsys.readouterr().out

    def test_drill_unicast_fails(self, capsys):
        code = main(["drill", "-t", "unicast", "--clients", "5"])
        assert code == 1
        assert "FAILURES" in capsys.readouterr().out

    def test_drill_fault_flags_parse(self):
        args = build_parser().parse_args(
            ["drill", "--faults", "plan.json", "--check-invariants"]
        )
        assert args.faults == "plan.json"
        assert args.check_invariants
        args = build_parser().parse_args(["scenario", "--faults", "plan.json"])
        assert args.faults == "plan.json"

    def test_drill_missing_fault_plan_rejected(self, capsys):
        code = main(["drill", "--faults", "/nonexistent/plan.json", "--clients", "3"])
        assert code == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_drill_invalid_fault_plan_rejected(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": [{"kind": "meteor_strike", "at": 1.0}]}')
        code = main(["drill", "--faults", str(plan), "--clients", "3"])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestExtendedCommands:
    def test_scenario_event_parsing(self):
        from repro.cli.scenario import _parse_event

        assert _parse_event("fail:sea1@60") == ("fail", "sea1", 60.0)
        assert _parse_event("recover:msn@200.5") == ("recover", "msn", 200.5)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_event("fail:sea1")

    def test_scenario_command(self, capsys):
        code = main([
            "scenario", "-t", "anycast", "-s", "msn",
            "-e", "fail:msn@30", "--duration", "90",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "downtime" in out

    def test_scenario_unknown_site(self, capsys):
        assert main(["scenario", "-s", "lhr", "--duration", "30"]) == 2

    def test_playbook_drain(self, capsys):
        code = main(["playbook", "--drain", "ams", "--levels", "0", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best drain play for ams" in out

    def test_playbook_unknown_site(self, capsys):
        assert main(["playbook", "--drain", "lhr", "--levels", "0", "3"]) == 2

    def test_control_command(self, capsys):
        code = main(["control", "--prepends", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "not-by-anycast" in out
        assert "sea1" in out

    def test_appendix_propagation(self, capsys):
        code = main(["appendix", "propagation"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hypergiants" in out
        assert "testbed" in out

    def test_configgen_to_dir(self, capsys, tmp_path):
        code = main([
            "configgen", "-t", "reactive-anycast",
            "--specific-site", "sea1", "-o", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "sea1.conf").exists()
        assert (tmp_path / "ams.emergency.conf").exists()
        text = (tmp_path / "ams.emergency.conf").read_text()
        assert "184.164.244.0/24" in text

    def test_configgen_stdout_single_site(self, capsys):
        code = main(["configgen", "-t", "proactive-prepending", "--site", "ams"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bgp_path.prepend(47065);" in out

    def test_configgen_unknown_site(self, capsys):
        assert main(["configgen", "--site", "lhr"]) == 2

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--sites", "msn", "--targets", "4", "--duration", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "proactive-superprefix" in out
        assert "failover time CDF" in out

    def test_compare_technique_without_targets(self, capsys):
        """A technique that selects no targets gets a row, not a crash."""
        code = main([
            "compare", "--sites", "sea1", "--targets", "2", "--duration", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "anycast                       0  (no targets selected)" in out
        assert "reactive-anycast" in out

    def test_compare_parallel_matches_serial(self, capsys):
        """--workers 2 prints byte-for-byte what the serial path prints."""
        argv = ["compare", "--sites", "msn", "--targets", "4", "--duration", "60"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--no-progress"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sweep_writes_archive(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "-t", "anycast", "--sites", "msn", "sea1",
            "--targets", "4", "--duration", "40", "-o", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 cells" in text
        assert "anycast" in text
        import json

        doc = json.loads(out.read_text())
        assert doc["workers"] == 1
        assert [c["cell"] for c in doc["cells"]] == ["anycast/msn", "anycast/sea1"]
        assert set(doc["pooled"]) == {"anycast"}

    def test_sweep_unknown_site(self, capsys, tmp_path):
        code = main(["sweep", "--sites", "lhr", "-o", str(tmp_path / "s.json")])
        assert code == 2
        assert "unknown site" in capsys.readouterr().out

    def test_failover_silent_flag(self, capsys):
        code = main([
            "failover", "-t", "anycast", "-s", "msn", "--silent",
            "--targets", "4", "--duration", "60", "--detection-delay", "5",
        ])
        assert code == 0
        assert "silent failure" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_failover_trace_and_summarize(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "4", "--duration", "60", "--trace", str(trace),
        ])
        assert code == 0
        assert trace.exists()
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase timings" in out
        assert "fail-probe" in out
        assert "BGP updates" in out
        assert "site failures" in out

    def test_failover_metrics_dump(self, capsys):
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "4", "--duration", "60", "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Results first, then the metrics dump.
        assert "bgp.updates_sent" in out
        assert out.index("failover:") < out.index("bgp.updates_sent")

    def test_trace_limit_bounds_recorder(self, capsys, tmp_path):
        trace = tmp_path / "bounded.jsonl"
        code = main([
            "failover", "-t", "anycast", "-s", "msn",
            "--targets", "4", "--duration", "60",
            "--trace", str(trace), "--trace-limit", "50",
        ])
        assert code == 0
        lines = [l for l in trace.read_text().splitlines() if l.strip()]
        # 50 retained events plus the trace_meta line reporting the drops.
        assert len(lines) == 51
        meta = json.loads(lines[0])
        assert meta["kind"] == "trace_meta"
        assert meta["dropped"] > 0
        assert meta["recorded"] == meta["dropped"] + 50

    def test_summarize_missing_file(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "missing.jsonl")]) == 2

    def test_summarize_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summarize", str(bad)]) == 2

    def test_verbose_flag_parses(self):
        args = build_parser().parse_args(["-vv", "topology"])
        assert args.verbose == 2
        assert build_parser().parse_args(["topology"]).verbose == 0
