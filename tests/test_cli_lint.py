"""CLI tests for ``repro lint`` and the experiment pre-run gate."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.cli.common import run_gate
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment


@pytest.fixture
def hazard_file(tmp_path):
    path = tmp_path / "hazard.py"
    path.write_text(
        "import random, time\n"
        "rng = random.Random()\n"
        "seeded = random.Random(hash('x'))\n"
        "jitter = random.random()\n"
        "start = time.time()\n"
        "for item in set([1, 2]):\n"
        "    pass\n"
        "def f(xs=[]):\n"
        "    return xs\n"
        "same = event.t == other.t\n"
    )
    return path


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrng = random.Random(42)\n")
        assert main(["lint", str(clean)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_every_hazard_class_is_coded(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file)]) == 1
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "DET005",
                     "DET006", "DET007"):
            assert code in out, f"{code} not reported"

    def test_json_format(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 7

    def test_select(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file), "--select", "DET001"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "DET002" not in out

    def test_ignore_by_name(self, hazard_file, capsys):
        code = main(["lint", str(hazard_file), "--ignore",
                     "unseeded-random,module-random,hash-seed,wall-clock,"
                     "set-iteration,float-time-eq,mutable-default"])
        assert code == 0

    def test_unknown_rule_is_usage_error(self, hazard_file):
        assert main(["lint", str(hazard_file), "--select", "DET999"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main(["lint", str(tmp_path / "absent.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "unseeded-random" in out

    def test_lint_src_repro_is_clean(self, capsys):
        """The acceptance gate: the shipped tree lints clean via the CLI."""
        assert main(["lint", "src/repro"]) == 0

    def test_metrics_flag_reports_finding_counters(self, hazard_file, capsys):
        assert main(["lint", str(hazard_file), "--metrics"]) == 1
        out = capsys.readouterr().out
        assert "analysis.lint.findings" in out


#: every experiment command that runs the pre-run gate
GATED_COMMANDS = ("failover", "compare", "sweep", "drill", "scenario")


class TestPreflightGate:
    def test_scenario_refuses_unknown_event_site(self, capsys):
        code = main(["scenario", "-e", "fail:lhr@60"])
        assert code == 2
        err = capsys.readouterr().err
        assert "PRE101" in err
        assert "--no-preflight" in err

    def test_scenario_refuses_backwards_timeline(self, capsys):
        code = main(["scenario", "-e", "recover:sea1@10"])
        assert code == 2
        assert "PRE105" in capsys.readouterr().err

    @pytest.mark.parametrize("command", GATED_COMMANDS)
    def test_commands_expose_one_override_flag(self, command):
        parser = build_parser()
        assert parser.parse_args([command, "--no-preflight"]).no_preflight
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--no-verify"])

    def test_override_lets_errors_through(self, capsys):
        deployment = build_deployment(params=TopologyParams(seed=42))
        args = argparse.Namespace(no_preflight=True)
        ok = run_gate(
            args, deployment, [], events=[("fail", "lhr", 60.0)], duration=300.0
        )
        assert ok
        assert "overridden by --no-preflight" in capsys.readouterr().err

    def test_gate_blocks_without_override(self, capsys):
        deployment = build_deployment(params=TopologyParams(seed=42))
        args = argparse.Namespace(no_preflight=False)
        ok = run_gate(
            args, deployment, [], events=[("fail", "lhr", 60.0)], duration=300.0
        )
        assert not ok
        assert "refusing to run" in capsys.readouterr().err

    def test_warnings_do_not_block(self, capsys):
        deployment = build_deployment(params=TopologyParams(seed=42))
        args = argparse.Namespace(no_preflight=False)
        ok = run_gate(
            args, deployment, [],
            events=[("fail", "sea1", 500.0)],  # after the end: warning only
            duration=300.0,
        )
        assert ok
        assert "PRE104" in capsys.readouterr().err
