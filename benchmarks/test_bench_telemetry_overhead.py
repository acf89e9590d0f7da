"""Telemetry overhead: a Fig. 2-style failover run with telemetry off
vs. on.

The enabled path (full trace recorder + counters) is the price of
turning everything on; the disabled path runs the null backend, whose
instrumentation costs one attribute check per call site. The two are
timed in interleaved pairs on the process CPU clock, and the reported
ratio is the median of the per-pair ratios: pairing cancels drift in
the host's speed, CPU time ignores time the process spends descheduled
on a shared host, and the median discards the odd disturbed pair.
Results go to ``BENCH_telemetry_overhead.json`` for machine
consumption.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import telemetry
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import ReactiveAnycast

from benchmarks.conftest import report, write_bench_json

PAIRS = 7
SITE = "sea1"
#: bound on the enabled/disabled median ratio
MAX_RATIO = 1.5


def _cpu_time(experiment, technique, backend) -> float:
    gc.collect()  # every run starts from the same heap, whatever ran before
    with telemetry.using(backend):
        start = time.process_time()
        experiment.run_site(technique, SITE)
        return time.process_time() - start


def test_telemetry_overhead(benchmark, deployment):
    config = FailoverConfig(probe_duration=600.0, targets_per_site=25)
    experiment = FailoverExperiment(deployment.topology, deployment, config)
    technique = ReactiveAnycast()
    # Warm the topology-only caches (catchment, hitlist, selection) so
    # both modes time only the run itself.
    experiment.run_site(technique, SITE)

    disabled: list[float] = []
    enabled: list[float] = []
    for pair in range(PAIRS):
        # A fresh recorder per pair: one growing trace would make later
        # runs of both modes pay for scanning it.
        tracer = telemetry.TraceRecorder()
        active = telemetry.Telemetry(tracer=tracer)
        # Alternate which mode goes first so neither always runs warmer.
        if pair % 2:
            enabled.append(_cpu_time(experiment, technique, active))
            disabled.append(_cpu_time(experiment, technique, telemetry.NULL))
        else:
            disabled.append(_cpu_time(experiment, technique, telemetry.NULL))
            enabled.append(_cpu_time(experiment, technique, active))

    ratios = [on / off for on, off in zip(enabled, disabled)]
    ratio = statistics.median(ratios)
    events_processed = active.counter("engine.events_processed").value
    payload = {
        "scenario": f"fig2-style run_site({technique.name!r}, {SITE!r})",
        "probe_duration_s": config.probe_duration,
        "targets_per_site": config.targets_per_site,
        "clock": "process_time",
        "pairs": PAIRS,
        "disabled": {
            "runs_s": disabled,
            "median_s": statistics.median(disabled),
        },
        "enabled": {
            "runs_s": enabled,
            "median_s": statistics.median(enabled),
            "events_traced": len(tracer.events),
            "engine_events_per_run": events_processed,
        },
        "pair_ratios": ratios,
        "enabled_over_disabled": ratio,
        "max_ratio": MAX_RATIO,
    }
    path = write_bench_json("telemetry_overhead", payload)

    report("Telemetry overhead — Fig. 2-style run, off vs on", [
        f"- telemetry off: median {statistics.median(disabled):.2f}s CPU "
        f"over {PAIRS} interleaved pairs",
        f"- telemetry on:  median {statistics.median(enabled):.2f}s CPU "
        f"({len(tracer.events)} events/run traced)",
        f"- enabled/disabled ratio: median {ratio:.3f} "
        f"(pairs {min(ratios):.3f}–{max(ratios):.3f})",
        f"- machine-readable: {path.name}",
    ])

    # Full tracing of a multi-thousand-event run should not blow up the
    # run time.
    assert ratio < MAX_RATIO, f"enabled telemetry ratio {ratio:.2f} too high"

    # Give pytest-benchmark one measured round of the disabled path.
    benchmark.pedantic(
        experiment.run_site, args=(technique, SITE), rounds=1, iterations=1
    )
