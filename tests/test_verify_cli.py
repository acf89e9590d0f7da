"""CLI tests for ``repro verify`` and the verify layer of the pre-run gate."""

import argparse
import json
from pathlib import Path

from repro.cli import main
from repro.cli.common import run_gate
from repro.verify import load_world

FIXTURES = Path(__file__).parent / "fixtures" / "verify"
WORKLOAD_FIXTURES = Path(__file__).parent / "fixtures" / "workload"


def fixture(stem: str) -> str:
    return str(FIXTURES / f"{stem}.json")


class TestVerifyCommand:
    def test_clean_world_exits_zero(self, capsys):
        assert main(["verify", fixture("clean")]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out
        assert "1 world(s) checked" in out

    def test_error_finding_exits_one(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle")]) == 1
        assert "VER201" in capsys.readouterr().out

    def test_warning_finding_exits_zero(self, capsys):
        assert main(["verify", fixture("bad_damping")]) == 0
        assert "VER213" in capsys.readouterr().out

    def test_multiple_worlds_accumulate(self, capsys):
        code = main([
            "verify", fixture("bad_gao_cycle"), fixture("bad_core_partition"),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "2 world(s) checked" in out
        assert "VER201" in out and "VER202" in out

    def test_json_format(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle"), "-f", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "VER201"

    def test_ignore_by_name(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle"),
                     "--ignore", "gao-cycle"]) == 0

    def test_select(self, capsys):
        assert main(["verify", fixture("bad_gao_cycle"),
                     "--select", "VER202"]) == 0

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "--select", "VER999"]) == 2

    def test_missing_world_is_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_malformed_world_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"ases": [], "wat": 1}))
        assert main(["verify", str(path)]) == 2
        assert "unknown world keys" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert main(["verify", "--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "VER201" in out and "dispute-wheel" in out
        assert "(strict)" in out

    def test_default_world_is_clean(self, capsys):
        """Acceptance: the shipped testbed verifies clean via the CLI."""
        assert main(["verify", "-t", "anycast", "reactive-anycast"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_strict_profile_stays_advisory(self, capsys):
        assert main(["verify", "-t", "anycast", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "VER223" in out and "0 error(s)" in out

    def test_unknown_site_is_usage_error(self, capsys):
        assert main(["verify", "-s", "lhr"]) == 2

    def test_metrics_flag_reports_verify_counters(self, capsys):
        assert main(["verify", fixture("clean"), "--metrics"]) == 0
        assert "verify.runs" in capsys.readouterr().out


class TestVerifyGate:
    def test_gate_blocks_on_errors(self, capsys):
        world = load_world(FIXTURES / "bad_gao_cycle.json")
        args = argparse.Namespace(no_preflight=False)
        ok = run_gate(args, world.deployment, [], duration=None)
        assert not ok
        err = capsys.readouterr().err
        # The site-less world fails PRE123, which refuses before verify.
        assert "PRE123" in err and "--no-preflight" in err
        assert "verify:" not in err

    def test_override_lets_errors_through(self, capsys):
        world = load_world(FIXTURES / "bad_gao_cycle.json")
        args = argparse.Namespace(no_preflight=True)
        ok = run_gate(args, world.deployment, [], duration=None)
        assert ok
        err = capsys.readouterr().err
        assert "VER201" in err
        assert "verify: 1 error(s) overridden by --no-preflight" in err

    def test_warnings_do_not_block(self, capsys):
        world = load_world(FIXTURES / "bad_site_dark.json")
        args = argparse.Namespace(no_preflight=False)
        ok = run_gate(args, world.deployment, world.techniques, duration=None)
        assert ok
        assert "VER224" in capsys.readouterr().err

    def test_gate_output_identical_across_worker_counts(self, capsys):
        """The gate runs pre-fanout, so its report never depends on -j."""
        world = load_world(FIXTURES / "bad_site_dark.json")
        outputs = []
        for workers in (1, 2):
            args = argparse.Namespace(no_preflight=False, workers=workers)
            assert run_gate(
                args, world.deployment, world.techniques, duration=None
            )
            outputs.append(capsys.readouterr().err)
        assert outputs[0] == outputs[1]


class TestGateEndToEnd:
    def test_failover_runs_through_both_gates(self, capsys):
        code = main([
            "failover", "-t", "reactive-anycast", "-s", "sea1",
            "--targets", "2", "--duration", "30", "--no-progress",
        ])
        assert code == 0

    def test_unknown_capacity_site_is_one_finding(self, capsys):
        """A defect both layers used to check is reported once, by VER242."""
        code = main([
            "failover", "--workload", "regional-surge",
            "--capacity", str(WORKLOAD_FIXTURES / "bad_capacity_unknown_site.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert sum("VER242" in line for line in err.splitlines()) == 1
        assert "PRE151" not in err
        assert "use --no-preflight to override" in err

    def test_capacity_without_workload_is_one_finding(self, capsys):
        code = main([
            "compare", "--capacity", "100", "--sites", "sea1",
            "--targets", "2", "--duration", "30", "--no-progress",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert sum("VER243" in line for line in err.splitlines()) == 1
        assert "PRE152" not in err
