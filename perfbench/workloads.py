"""The benchmark's workloads, one compare-style iteration, and its checks.

Each workload is a ⟨technique, failed site⟩ matrix built the way
``repro compare`` builds it: a fresh deployment, the same
:class:`FailoverConfig` defaults, the pre-flight and verify gates, the
checkpoint run path, and a serial :func:`run_sweep`. The topology of a
workload is fixed; ``--seed`` becomes the experiment seed, which drives
the catchment sample, the hitlist, target selection, every cell's BGP
timing draws and the request streams.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager

from repro.analysis import preflight_run
from repro.core.experiment import FailoverConfig, FailoverExperiment, pooled_outcomes
from repro.core.techniques import (
    Anycast,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    ShedDns,
    ShedPrepend,
    ShedWithdraw,
    Technique,
    technique_by_name,
)
from repro.measurement.export import sweep_report_to_dict
from repro.measurement.stats import Cdf
from repro.parallel import SweepReport, matrix, run_sweep, shared_state
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.geo import REGIONS
from repro.topology.testbed import CdnDeployment, SiteSpec, build_deployment, default_site_specs
from repro.verify import VerifyWorld, verify_world
from repro.workload import load_capacity, load_profile, merge_accounts

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``repro compare``'s ``--detection-delay`` default
DETECTION_DELAY_S = 2.0

#: The wide deployment of the checkpoint-fork bench: more transits and
#: eyeballs per region and broader multihoming than the default testbed.
WIDE_PARAMS = TopologyParams(
    n_tier1=8,
    n_transit_per_region=5,
    n_regional_per_region=5,
    n_eyeball_per_region=24,
    n_stub_per_region=6,
    n_university_per_region=6,
    transit_providers=4,
    regional_providers=3,
)

def default_deployment() -> CdnDeployment:
    """The CLI's default testbed (``TopologyParams()``, eight sites)."""
    return build_deployment(params=TopologyParams())


def wide_deployment() -> CdnDeployment:
    """``WIDE_PARAMS`` plus one site on each region's extra transits."""
    topology = generate_topology(WIDE_PARAMS)
    specs = list(default_site_specs())
    for region in REGIONS:
        for i in (1, 2):
            node = f"tr-{region}-{i}"
            if node in topology.ases:
                specs.append(SiteSpec(name=f"x{region}{i}", region=region, providers=(node,)))
    return build_deployment(topology=topology, specs=specs)


def compare_techniques() -> list[Technique]:
    """``repro compare``'s roster without ``--workload``."""
    return [Anycast(), ReactiveAnycast(), ProactivePrepending(3), ProactiveSuperprefix()]


def shedding_techniques() -> list[Technique]:
    """``repro compare``'s roster with ``--workload``."""
    return compare_techniques() + [ShedPrepend(), ShedWithdraw(), ShedDns()]


def converge_techniques() -> list[Technique]:
    """The four site-independent baselines of the checkpoint-fork bench."""
    names = ("anycast", "proactive-med", "proactive-prepending", "proactive-superprefix")
    return [technique_by_name(name) for name in names]


# ----------------------------------------------------------------------
# Correctness checks over a whole sweep. Each returns the failed claims
# as (technique names the claim is about, description).

Claim = tuple[tuple[str, ...], str]


def _p50s(report: SweepReport) -> dict[str, tuple[float, float]]:
    """technique -> (reconnection p50, failover p50) over pooled outcomes."""
    out = {}
    for name in dict.fromkeys(cell.technique.name for cell in report.cells):
        outcomes = pooled_outcomes(report.results_for(name))
        if outcomes:
            recon = Cdf.from_optional([o.reconnection_s for o in outcomes]).median()
            failover = Cdf.from_optional([o.failover_s for o in outcomes]).median()
            out[name] = (recon, failover)
    return out


def paper_orderings(report: SweepReport) -> list[Claim]:
    """The Fig. 2 orderings ``tests/test_integration_paper_claims.py`` pins."""
    p50 = _p50s(report)
    fo = {name: failover for name, (_, failover) in p50.items()}
    anycast, reactive = "anycast", "reactive-anycast"
    prepend, superprefix = "proactive-prepending-3", "proactive-superprefix"
    claims: list[tuple[tuple[str, ...], bool, str]] = []
    if {anycast, superprefix} <= fo.keys():
        claims.append(((anycast, superprefix), fo[superprefix] > 4 * fo[anycast],
                       "superprefix failover p50 > 4x anycast"))
    if {anycast, reactive} <= fo.keys():
        claims.append(((anycast, reactive), fo[reactive] <= fo[anycast] + 8.0,
                       "reactive-anycast failover p50 <= anycast + 8 s"))
    if {anycast, prepend} <= fo.keys():
        claims.append(((anycast, prepend), fo[anycast] <= fo[prepend] + 1.0,
                       "anycast failover p50 <= prepending + 1 s"))
    if {prepend, superprefix} <= fo.keys():
        claims.append(((prepend, superprefix), fo[prepend] < fo[superprefix],
                       "prepending failover p50 < superprefix"))
    for name, (recon, failover) in p50.items():
        claims.append(((name,), recon <= failover,
                       f"{name} reconnection p50 <= failover p50"))
    return [(names, text) for names, ok, text in claims if not ok]


def shedding_beats_anycast(report: SweepReport) -> list[Claim]:
    """Every shed variant loses fewer overload requests than anycast."""
    overload = {}
    for name in dict.fromkeys(cell.technique.name for cell in report.cells):
        accounts = [r.workload for r in report.results_for(name) if r.workload is not None]
        if accounts:
            overload[name] = merge_accounts(accounts).lost_overload
    if "anycast" not in overload:
        return []
    return [
        (("anycast", name), f"{name} overload loss < anycast's")
        for name in overload
        if name.startswith("shed-") and not overload[name] < overload["anycast"]
    ]


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload: a compare-style matrix."""

    name: str
    deployment: Callable[[], CdnDeployment]
    techniques: Callable[[], list[Technique]]
    #: failed sites; empty = every site of the deployment
    sites: tuple[str, ...] = ()
    probe_duration: float = 300.0
    targets_per_site: int = 20
    #: ``--workload`` builtin profile name
    profile: str | None = None
    #: ``--capacity`` spec (repo-relative JSON path)
    capacity: str | None = None
    checks: tuple[Callable[[SweepReport], list[Claim]], ...] = ()

    def config(self, seed: int) -> FailoverConfig:
        return FailoverConfig(
            probe_duration=self.probe_duration,
            targets_per_site=self.targets_per_site,
            detection_delay=DETECTION_DELAY_S,
            seed=seed,
            workload=load_profile(self.profile) if self.profile else None,
            capacity=load_capacity(str(ROOT / self.capacity)) if self.capacity else None,
        )

    def describe(self) -> dict:
        """The workload's configuration, for the provenance stamp."""
        return {
            "name": self.name,
            "techniques": [t.name for t in self.techniques()],
            "sites": list(self.sites) or "all",
            "probe_duration_s": self.probe_duration,
            "targets_per_site": self.targets_per_site,
            "detection_delay_s": DETECTION_DELAY_S,
            "workload_profile": self.profile,
            "capacity": self.capacity,
            "run_path": "checkpoint",
            "workers": 1,
        }


#: The benchmark's workloads. ``BENCHMARK.json`` declares the first two;
#: ``wide-converge`` runs the same way by name but is not declared, as its
#: run-to-run spread exceeded the largest allowed bound (see README.md).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig2-compare",
            deployment=default_deployment,
            techniques=compare_techniques,
            checks=(paper_orderings,),
        ),
        Workload(
            name="surge-shed",
            deployment=default_deployment,
            techniques=shedding_techniques,
            sites=("msn", "sea1"),
            profile="regional-surge",
            capacity="examples/capacity.json",
            checks=(shedding_beats_anycast,),
        ),
        Workload(
            name="wide-converge",
            deployment=wide_deployment,
            techniques=converge_techniques,
            probe_duration=20.0,
            targets_per_site=3,
        ),
    )
}


# ----------------------------------------------------------------------


def _no_span(name: str) -> ContextManager[None]:
    return contextlib.nullcontext()


@dataclass
class Iteration:
    """One compare-style run: set-up, sweep, and what it produced."""

    setup_s: float
    sweep_s: float
    cell_ids: list[str]
    report: SweepReport | None
    #: gate findings when the pre-flight or verify gate refused the run
    refused: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.sweep_s


def run_iteration(
    workload: Workload,
    seed: int,
    span: Callable[[str], ContextManager[None]] = _no_span,
) -> Iteration:
    """Build, gate, set up and sweep ``workload`` once, as the CLI does.

    ``span(name)`` brackets each set-up stage and the sweep; the traced
    run passes its recorder's span factory.
    """
    start = time.perf_counter()
    with span("topology.build"):
        deployment = workload.deployment()
    config = workload.config(seed)
    experiment = FailoverExperiment(
        deployment.topology, deployment, config, use_checkpoint=True
    )
    techniques = workload.techniques()
    sites = list(workload.sites or deployment.site_names)
    cells = matrix(techniques, sites)
    cell_ids = [cell.cell_id for cell in cells]
    with span("analysis.preflight"):
        preflight = preflight_run(
            deployment, technique=None, duration=config.probe_duration,
            detection_delay=config.detection_delay,
            workload=config.workload, capacity=config.capacity,
        )
    with span("verify.gate"):
        verify = verify_world(VerifyWorld(
            deployment=deployment, techniques=techniques,
            duration=config.probe_duration, workload=config.workload,
            capacity=config.capacity, source="<run>",
        ))
    if not (preflight.ok and verify.ok):
        refused = [f.format() for f in (*preflight.errors, *verify.errors)]
        return Iteration(time.perf_counter() - start, 0.0, cell_ids, None, refused)
    with span("parallel.shared_state"):
        shared_state(experiment, cells)
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    with span("parallel.sweep"):
        report = run_sweep(experiment, cells, workers=1)
    return Iteration(setup_s, time.perf_counter() - start, cell_ids, report)


def failed_cells(workload: Workload, iteration: Iteration) -> dict[str, str]:
    """cell id -> why it failed: raised, timed out, broke request
    conservation, or belongs to a technique whose claim failed."""
    report = iteration.report
    if report is None:
        return {cell: "refused by the gate" for cell in iteration.cell_ids}
    failed: dict[str, str] = {}
    for cell, result in zip(report.cells, report.results):
        if not result.ok:
            failed[cell.cell_id] = result.status
            continue
        account = result.value.workload
        if account is not None and account.offered != account.served + account.lost:
            failed[cell.cell_id] = "offered != served + lost"
    for check in workload.checks:
        for names, text in check(report):
            for cell in report.cells:
                if cell.technique.name in names:
                    failed.setdefault(cell.cell_id, text)
    return failed


def result_digest(report: SweepReport | None) -> str:
    """SHA-256 of the canonical sweep archive with host timings removed."""
    if report is None:
        return "refused"
    doc = sweep_report_to_dict(report)
    doc.pop("wall_s")
    doc.pop("workers")
    for cell in doc["cells"]:
        cell.pop("wall_s")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def simulated_stats(report: SweepReport) -> list[str]:
    """Per-technique failover p50/p90 and request loss, one line each."""
    def fmt(value: float) -> str:
        return f"{value:.1f}s" if math.isfinite(value) else "inf"

    lines = []
    for name in dict.fromkeys(cell.technique.name for cell in report.cells):
        results = report.results_for(name)
        outcomes = pooled_outcomes(results)
        line = f"{name:24s} n={len(outcomes):4d}"
        if outcomes:
            failover = Cdf.from_optional([o.failover_s for o in outcomes])
            line += f" failover p50={fmt(failover.median())} p90={fmt(failover.quantile(0.9))}"
        accounts = [r.workload for r in results if r.workload is not None]
        if accounts:
            merged = merge_accounts(accounts)
            line += (f" offered={merged.offered} lost={merged.lost}"
                     f" ({merged.loss_frac:.2%}) overload={merged.lost_overload}")
        lines.append(line)
    return lines
