"""Shared state for the per-figure/table benchmark harness.

Each bench module reproduces one table or figure of the paper at
simulation scale, using the calibrated Internet timing profile, and
prints the paper-reported value next to the measured one. Run with::

    pytest benchmarks/ --benchmark-only

Reports are printed to stdout and appended to ``benchmarks/results.md``
so they survive output capturing.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.topology.testbed import build_deployment

RESULTS_PATH = pathlib.Path(__file__).parent / "results.md"


@pytest.fixture(scope="session")
def deployment():
    return build_deployment()


@pytest.fixture(scope="session")
def experiment(deployment):
    """The §5.2 experiment at bench scale: full probing window, all
    eight sites, calibrated timing."""
    config = FailoverConfig(probe_duration=600.0, targets_per_site=25)
    return FailoverExperiment(deployment.topology, deployment, config)


def report(title: str, lines: list[str]) -> None:
    """Print a paper-vs-measured block and persist it to results.md."""
    block = "\n".join([f"## {title}", *lines, ""])
    print("\n" + block)
    with RESULTS_PATH.open("a") as handle:
        handle.write(block + "\n")


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable bench result as BENCH_<name>.json."""
    path = pathlib.Path(__file__).parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


NARRATIVE_TITLE = "Harness performance trajectory (from BENCH_*.json)"


def _side_of(value: float, mark: float) -> str:
    if value > mark:
        return "above"
    return "below" if value < mark else "at"


def performance_narrative(
    telemetry: dict | None, parallel: dict | None, fork: dict | None
) -> list[str]:
    """The harness-performance paragraphs for the given BENCH payloads.

    A pure function of them: every number and every comparison in the
    text is read or derived from the payloads, so the prose cannot
    contradict the measurements it sits next to.
    """
    paragraphs: list[str] = []
    if telemetry:
        ratio = telemetry["enabled_over_disabled"]
        pair_ratios = telemetry["pair_ratios"]
        bound = telemetry["max_ratio"]
        paragraphs.append(
            "**Telemetry overhead.** Full tracing on a Fig. 2-style run "
            f"costs {ratio:.2f}x the CPU time of the no-op backend (median "
            f"of {telemetry['pairs']} interleaved pairs, which ranged "
            f"{min(pair_ratios):.2f}-{max(pair_ratios):.2f}x; "
            f"{telemetry['enabled']['engine_events_per_run']} engine events "
            f"per run), {'inside' if ratio < bound else 'outside'} the "
            f"bench's {bound:.1f}x bound. Reproduce: `pytest "
            "benchmarks/test_bench_telemetry_overhead.py --benchmark-only`."
        )
    if parallel:
        speedup = parallel["speedup"]
        paragraphs.append(
            f"**Parallel sweep.** {parallel['workers']} workers run the "
            f"{parallel['scenario']} in {parallel['parallel_s']:.2f}s "
            f"against {parallel['serial_s']:.2f}s serial on a "
            f"{parallel['cpu_count']}-CPU machine: {speedup:.2f}x, "
            f"{_side_of(speedup, 1.0)} 1x. The same bench asserts "
            "serial/parallel canonical JSON equality (identical: "
            f"{parallel['identical']}). Reproduce: `pytest "
            "benchmarks/test_bench_parallel_sweep.py --benchmark-only`."
        )
    if fork:
        speedup = fork["speedup"]
        paragraphs.append(
            "**Checkpoint fork.** Converging each technique's baseline "
            "once and forking it per cell (the only run path; the cold "
            "side is the tests' cold-start reference) turns the "
            f"{fork['scenario']} from "
            f"{fork['baseline_converges_cold']} baseline convergences "
            f"into {fork['baseline_converges_forked']}: "
            f"{fork['cold_cells_per_s']:.2f} -> "
            f"{fork['forked_cells_per_s']:.2f} cells/s, a "
            f"{speedup:.2f}x speedup ({_side_of(speedup, fork['min_speedup'])} "
            f"the {fork['min_speedup']:.1f}x floor) with forked repeats "
            f"byte-identical: {fork['forked_repeats_identical']}. "
            "Reproduce: `pytest "
            "benchmarks/test_bench_checkpoint_fork.py --benchmark-only`."
        )
    return paragraphs


def load_bench_json(name: str) -> dict | None:
    """A committed ``BENCH_<name>.json`` payload, or None if absent."""
    path = pathlib.Path(__file__).parent / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def append_performance_narrative() -> None:
    """Close results.md with the prose summary of the BENCH_*.json
    trajectories: what instrumenting, parallelizing, and forking the
    simulator costs or saves."""
    paragraphs = performance_narrative(
        load_bench_json("telemetry_overhead"),
        load_bench_json("parallel_sweep"),
        load_bench_json("checkpoint_fork"),
    )
    if paragraphs:
        report(NARRATIVE_TITLE, "\n\n".join(paragraphs).splitlines())


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each bench session with a clean results.md; close it with
    the harness-performance narrative."""
    RESULTS_PATH.write_text("# Benchmark results (paper vs measured)\n\n")
    yield
    append_performance_narrative()
