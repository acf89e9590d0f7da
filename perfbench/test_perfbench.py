"""Toy-scale self-test of the benchmark driver (1 technique x 1 site).

    python3 -m pytest perfbench -q

Checks that every metric the driver prints is declared in
``BENCHMARK.json`` with a unit, that child spans nest inside their
parent with non-negative self time, that traced and untraced runs give
the same result digest, and that the correctness checks catch broken
output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

# perfbench.run puts the checkout's src/ on sys.path, so it comes first.
from perfbench import run, tracing
from perfbench.workloads import WORKLOADS, failed_cells, result_digest, run_iteration
from repro.core.techniques import Anycast

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = dataclasses.replace(
    WORKLOADS["fig2-compare"], name="toy", techniques=lambda: [Anycast()],
    sites=("msn",), probe_duration=30.0, targets_per_site=4,
)
TOY_SURGE = dataclasses.replace(
    WORKLOADS["surge-shed"], name="toy-surge", techniques=lambda: [Anycast()],
    sites=("msn",), probe_duration=30.0, targets_per_site=4,
)


def names(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


class TestSpec:
    def test_workloads_and_metrics_are_declared(self):
        assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
        all_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(all_names) == len(set(all_names))
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert metric["unit"], metric
            assert metric["better"] in ("lower", "higher"), metric
        for metric in SPEC["end_to_end"]:
            assert 0 < metric["bound"] <= 0.25, metric
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"


class TestUntraced:
    @pytest.fixture(scope="class")
    def measured(self):
        return run.measure(TOY, seed=3, seconds=0)

    def test_prints_every_end_to_end_metric(self, measured):
        checker, metrics = measured
        assert set(metrics) == names("end_to_end")
        assert all(value > 0 for value in metrics.values()), metrics
        assert checker.correct and checker.attempted == 1 and checker.failed == 0

    def test_every_metric_has_a_declared_unit(self, measured):
        _, metrics = measured
        units = run.declared_units()
        assert all(units[name] for name in metrics)


class TestTraced:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("spans")
        checker, metrics, tracer = run.measure_traced(TOY_SURGE, seed=3, seconds=0, out_dir=out)
        return checker, metrics, tracer, out

    def test_prints_every_per_layer_metric(self, traced):
        checker, metrics, _, _ = traced
        assert set(metrics) == names("per_layer")
        assert checker.correct, checker.problems
        assert checker.attempted == 2  # one untraced and one traced cell

    def test_spans_nest_with_non_negative_self_time(self, traced):
        _, _, tracer, _ = traced
        assert tracer.span_problems() == []
        by_id = {span.id: span for span in tracer.spans}
        for span in tracer.spans:
            if span.parent >= 0:
                parent = by_id[span.parent]
                assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
                assert span.cell == parent.cell or parent.cell == tracing.SETUP
        assert all(self_s >= 0 for self_s in tracer.self_times().values())
        assert {s.cell for s in tracer.spans if s.name == "sweep.cell"} == {"anycast/msn"}

    def test_spans_are_written(self, traced):
        _, _, tracer, out = traced
        written = [json.loads(line) for line in
                   (out / "spans-toy-surge-seed3-1.jsonl").read_text().splitlines()]
        assert len(written) == len(tracer.spans)
        assert set(written[0]) == {"id", "name", "start_ns", "end_ns", "parent", "cell"}

    def test_counts_reach_every_layer(self, traced):
        _, metrics, tracer, _ = traced
        counts = tracing.cell_counters(tracer)["anycast/msn"]
        assert counts["events"] > 0 and counts["fib_lookups"] > 0
        assert counts["resolves"] > 0 and counts["requests"] > 0
        assert metrics["dataplane.lookups_per_cell"] == counts["fib_lookups"]
        assert 0 < metrics["workload.cache_hit_ratio"] <= 1

    def test_instrumentation_is_removed_afterwards(self, traced):
        from repro.bgp.network import BgpNetwork

        assert BgpNetwork.next_hop.__qualname__ == "BgpNetwork.next_hop"


def test_traced_and_untraced_digests_match():
    plain = run_iteration(TOY_SURGE, seed=5)
    traced, _ = run.traced_iteration(TOY_SURGE, seed=5)
    assert result_digest(plain.report) == result_digest(traced.report)


def test_checks_catch_broken_output():
    iteration = run_iteration(TOY_SURGE, seed=5)
    assert failed_cells(TOY_SURGE, iteration) == {}
    checker = run.Checker(TOY_SURGE)
    checker.check(iteration, "first")
    iteration.report.results[0].value.workload.offered += 1
    assert failed_cells(TOY_SURGE, iteration) == {"anycast/msn": "offered != served + lost"}
    checker.check(iteration, "second")
    assert checker.failed == 1 and not checker.correct


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
