"""Figure 5 (Appendix C.2): prepend-3 vs prepend-5 failover.

Paper: reconnection time is similar for both configurations, but
failover is ~20 s slower at the median with 5 prepends -- longer backup
paths stay less preferred for longer during convergence. Table 1's
counterpart: more prepends buy more control at several sites.
"""

from __future__ import annotations

import math

import pytest

from repro.core.experiment import pooled_outcomes
from repro.core.techniques import ProactivePrepending
from repro.measurement.stats import Cdf

from benchmarks.conftest import report

_results: dict[int, dict[str, Cdf]] = {}

#: The deeper-topology companion's seeds: the default seed plus 1-9.
DEEP_SEEDS = (42, *range(1, 10))


def _run(experiment, prepend: int):
    outcomes = pooled_outcomes(experiment.run_all_sites(ProactivePrepending(prepend)))
    return {
        "reconnection": Cdf.from_optional([o.reconnection_s for o in outcomes]),
        "failover": Cdf.from_optional([o.failover_s for o in outcomes]),
    }


@pytest.mark.parametrize("prepend", [3, 5])
def test_fig5_prepend(benchmark, experiment, prepend):
    _results[prepend] = benchmark.pedantic(
        _run, args=(experiment, prepend), rounds=1, iterations=1
    )
    if set(_results) == {3, 5}:
        _report_and_check()


def _report_and_check():
    lines = [
        "| config | metric | measured p50 | measured p90 | n |",
        "|---|---|---|---|---|",
    ]
    for prepend in (3, 5):
        for metric in ("reconnection", "failover"):
            cdf = _results[prepend][metric]
            p90 = cdf.quantile(0.9)
            p90_text = f"{p90:.1f}" if math.isfinite(p90) else "inf"
            lines.append(
                f"| prepend-{prepend} | {metric} | {cdf.median():.1f}s | {p90_text}s | {cdf.n} |"
            )
    lines.append("")
    lines.append(
        "paper: similar reconnection; failover ~20s slower at p50 with 5 prepends"
    )
    report("Figure 5 — prepend 3 vs 5", lines)

    # Shape: reconnection similar; prepend-5 failover no faster than
    # prepend-3 beyond noise. (The simulated topology's backup paths are
    # shorter than the real Internet's, so the paper's +20 s median gap
    # compresses here; the direction and the reconnection similarity are
    # the reproduced shape.)
    recon3 = _results[3]["reconnection"].median()
    recon5 = _results[5]["reconnection"].median()
    assert abs(recon3 - recon5) < 5.0
    fo3 = _results[3]["failover"].median()
    fo5 = _results[5]["failover"].median()
    assert fo5 >= fo3 - 3.0


def test_fig5_gap_emerges_on_deeper_topology(benchmark):
    """Companion run: on a deeper hierarchy (more regional ISPs, heavier
    multihoming), stale exploration paths grow long enough for the
    prepend-5 penalty to separate in the failover tail -- the paper's
    mechanism, visible where the simulated Internet is deep enough to
    host it.

    The tail is pooled over a fixed set of seeds: about 10% of
    prepend-3 outcomes are slow, so one seed's p90 lands on either side
    of that share and flips between ~12 s and ~50 s."""
    from repro.core.experiment import FailoverConfig, FailoverExperiment
    from repro.topology.generator import TopologyParams
    from repro.topology.testbed import build_deployment

    def run():
        params = TopologyParams(
            n_regional_per_region=5, regional_providers=2,
            transit_remote_peering_prob=0.10, eyeball_multihome_prob=0.7,
        )
        deployment = build_deployment(params=params)
        outcomes = {3: [], 5: []}
        for seed in DEEP_SEEDS:
            experiment = FailoverExperiment(
                deployment.topology, deployment,
                FailoverConfig(probe_duration=600.0, targets_per_site=30, seed=seed),
            )
            for prepend in (3, 5):
                outcomes[prepend] += pooled_outcomes(
                    experiment.run_all_sites(ProactivePrepending(prepend))
                )
        return {
            prepend: Cdf.from_optional([o.failover_s for o in pooled])
            for prepend, pooled in outcomes.items()
        }

    cdfs = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "| config | p50 | p90 | p95 | n |",
        "|---|---|---|---|---|",
    ]
    for prepend in (3, 5):
        cdf = cdfs[prepend]
        lines.append(
            f"| prepend-{prepend} (deep topology) | {cdf.median():.1f}s "
            f"| {cdf.quantile(0.9):.1f}s | {cdf.quantile(0.95):.1f}s | {cdf.n} |"
        )
    lines.append("")
    lines.append(f"pooled over seeds {', '.join(map(str, DEEP_SEEDS))}")
    report("Figure 5 companion — prepend penalty on a deeper hierarchy", lines)

    assert cdfs[5].quantile(0.95) >= cdfs[3].quantile(0.95)
    assert cdfs[5].quantile(0.9) >= cdfs[3].quantile(0.9) - 1.0
