#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig2-compare --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the driver imports ``src/repro``
directly; nothing is installed). The load is a closed loop in one
process: compare-style iterations -- fresh deployment, gates, shared
state, serial sweep -- run back to back until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics as medians over the
iterations, with tracing off. ``--trace 1`` alternates an untraced and a
traced iteration and reports the per-layer metrics of the traced ones
(see ``perfbench/tracing.py``) plus ``trace.overhead_frac``.

Every iteration is checked: each cell must succeed and conserve
requests, the workload's claims must hold, and the result digest must be
identical across iterations and between traced and untraced runs. The
last line of stdout is one JSON object with ``correct``, ``attempted``
and ``failed`` (sweep cells) and ``metrics``; the lines before it give
provenance, the simulated statistics, the digest and, when traced, the
exact work counters of every cell.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# The program is imported from the checkout's own sources; nothing is
# installed.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
try:
    from repro import telemetry
    from repro.obs.profiler import EventProfiler

    from perfbench import tracing
    from perfbench.workloads import (
        WORKLOADS,
        failed_cells,
        result_digest,
        run_iteration,
        simulated_stats,
    )
except ModuleNotFoundError as error:
    sys.exit(f"perfbench: cannot import {error.name}; run from the root of a source checkout")


def log(line: str = "") -> None:
    print(f"perfbench: {line}" if line else "", flush=True)


def declared_units() -> dict[str, str]:
    """Metric name -> unit, for every metric ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def provenance(workload, seed: int) -> dict:
    """Code revision, machine and configuration the numbers came from."""
    rev = "none"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        rev = done.stdout.strip() or "none"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload.describe(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Accumulates attempted and failed cells over a run's iterations."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.problems: list[str] = []

    def check(self, iteration, label: str) -> str:
        """Check one iteration; returns its result digest."""
        digest = result_digest(iteration.report)
        failed = failed_cells(self.workload, iteration)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failed = {cell: "result digest differs" for cell in iteration.cell_ids}
        for cell, why in sorted(failed.items()):
            self.problems.append(f"{label} {cell}: {why}")
        for finding in iteration.refused:
            self.problems.append(f"{label} gate: {finding}")
        self.attempted += len(iteration.cell_ids)
        self.failed += len(failed)
        return digest

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def offered_requests(iteration) -> int:
    if iteration.report is None:
        return 0
    return sum(r.workload.offered for r in iteration.report.site_results()
               if r.workload is not None)


def report_iteration(index: int, iteration, digest: str, label: str = "") -> None:
    log(f"iteration {index}{label}: setup_s={iteration.setup_s:.3f} "
        f"sweep_s={iteration.sweep_s:.3f} wall_s={iteration.wall_s:.3f} "
        f"cells={len(iteration.cell_ids)} digest={digest[:16]}")


def report_simulated(checker: Checker, iteration) -> None:
    log(f"result_digest {checker.digest}")
    if iteration.report is not None:
        log("simulated statistics (pooled over failed sites):")
        for line in simulated_stats(iteration.report):
            log(f"  {line}")
    log(f"cells_failed_frac {checker.failed}/{checker.attempted} = "
        f"{tracing.ratio(checker.failed, checker.attempted):.4f}")
    for problem in checker.problems[:20]:
        log(f"FAILED {problem}")


def measure(workload, seed: int, seconds: float) -> tuple[Checker, dict[str, float]]:
    """Untraced iterations until ``seconds`` is used; end-to-end metrics."""
    checker = Checker(workload)
    iterations = []
    start = time.perf_counter()
    while True:
        gc.collect()  # start each iteration from a clean heap, as a fresh CLI process does
        iteration = run_iteration(workload, seed)
        iterations.append(iteration)
        report_iteration(len(iterations), iteration,
                         checker.check(iteration, f"iteration {len(iterations)}"))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(i.wall_s for i in iterations) >= seconds:
            break
    swept = [i for i in iterations if i.report is not None] or iterations
    cell_walls = [r.wall_s for i in swept if i.report for r in i.report.results]
    report_simulated(checker, iterations[-1])
    requests = [tracing.ratio(offered_requests(i), i.sweep_s) for i in swept]
    if any(requests):
        log(f"requests_per_s {statistics.median(requests):.1f} req/s "
            f"({offered_requests(swept[0])} simulated requests offered per sweep)")
    if cell_walls:
        log(f"cell_s_p50 {statistics.median(cell_walls):.4f} s over n={len(cell_walls)} cells")
    log(f"cells_per_s over {len(iterations[0].cell_ids)} cells per sweep; "
        f"medians of {len(iterations)} iterations")
    return checker, {
        "setup_s": statistics.median(i.setup_s for i in iterations),
        "wall_s": statistics.median(i.wall_s for i in iterations),
        "cells_per_s": statistics.median(tracing.ratio(len(i.cell_ids), i.sweep_s) for i in swept),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_iteration(workload, seed: int):
    """One iteration with telemetry, the profiler and the layer spans on."""
    backend = telemetry.Telemetry(profiler=EventProfiler())
    tracer = tracing.Tracer(backend)
    with telemetry.using(backend), tracing.instrumented(tracer):
        iteration = run_iteration(workload, seed, span=tracer.span)
    return iteration, tracer


def measure_traced(
    workload, seed: int, seconds: float, out_dir: pathlib.Path | None = OUT_DIR
) -> tuple[Checker, dict[str, float], tracing.Tracer]:
    """Untraced/traced iteration pairs until ``seconds`` is used;
    per-layer metrics (medians over the traced iterations)."""
    checker = Checker(workload)
    samples: list[dict[str, float]] = []
    pair_walls: list[float] = []
    start = time.perf_counter()
    while True:
        index = len(samples) + 1
        gc.collect()
        plain = run_iteration(workload, seed)
        report_iteration(index, plain, checker.check(plain, f"untraced {index}"), " untraced")
        gc.collect()
        traced, tracer = traced_iteration(workload, seed)
        report_iteration(index, traced, checker.check(traced, f"traced {index}"), " traced")
        for problem in tracer.span_problems():
            checker.problems.append(f"traced {index}: {problem}")
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = tracing.ratio(traced.wall_s, plain.wall_s) - 1.0
        samples.append(metrics)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"spans-{workload.name}-seed{seed}-{index}.jsonl")
        pair_walls.append(plain.wall_s + traced.wall_s)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(pair_walls) >= seconds:
            break
    report_simulated(checker, traced)
    for label, ns in tracing.workload_unit_costs(tracer).items():
        log(f"workload layer: {ns:.0f} ns {label}")
    log("span self time, s (last traced iteration):")
    for name, self_s in tracing.self_time_table(tracer).items():
        log(f"  {name:24s} {self_s:9.4f}")
    log("work counters per cell (exact; last traced iteration):")
    for cell, counts in tracing.cell_counters(tracer).items():
        log(f"  {cell:32s} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    return checker, tracing.median_metrics(samples), tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = declared_units()
    log("provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    if args.trace:
        checker, metrics, _ = measure_traced(workload, args.seed, args.seconds)
    else:
        checker, metrics = measure(workload, args.seed, args.seconds)
    for name, value in metrics.items():
        log(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
