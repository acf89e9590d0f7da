"""Semantic pre-flight validation (the ``PRE`` series).

Static checks on the *objects* of a run — :class:`Topology`,
:class:`CdnDeployment`, scenario timelines, announcement plans, BGP
timing/damping parameters — executed before any simulated event fires.
A misconfigured run otherwise fails mid-simulation (or worse, completes
and quietly corrupts the failover CDFs the paper's comparisons rest on).

Each check returns :class:`~repro.analysis.findings.Finding` objects
with stable ``PREnnn`` codes, the same model the determinism linter
uses, so the CLI and CI report both layers uniformly. ERROR findings
make the experiment commands refuse to run (``--no-preflight``
overrides); WARNING findings are advisory.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.findings import Finding, FindingCollector, Severity, emit_findings
from repro.bgp.damping import DampingConfig
from repro.bgp.session import SessionTiming
from repro.core.scenarios import ScenarioEvent
from repro.core.techniques import Combined, ProactiveSuperprefix, Technique
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.relationships import AsClass
from repro.topology.testbed import (
    PROBE_SOURCE,
    SPECIFIC_PREFIX,
    SUPERPREFIX,
    CdnDeployment,
)
from repro.workload.capacity import CapacityProfile
from repro.workload.profile import RATE_KINDS, WorkloadProfile

#: event kinds understood by :class:`~repro.core.scenarios.ScenarioRunner`
EVENT_KINDS = (
    "fail", "fail-silent", "recover", "drain", "undrain",
    "brownout", "unbrownout",
)

#: expected request volumes past this trigger a PRE145 advisory (the
#: stream is O(1) memory regardless, but the run time is linear in it)
WORKLOAD_VOLUME_CEILING = 20_000_000

#: MRAI values beyond this are treated as a misconfiguration smell (the
#: RFC 4271 default is 30 s; the paper's profile uses a few seconds).
MRAI_SANITY_CEILING_S = 60.0


def _error(code: str, message: str, source: str) -> Finding:
    return Finding(code=code, message=message, severity=Severity.ERROR, source=source)


def _warning(code: str, message: str, source: str) -> Finding:
    return Finding(code=code, message=message, severity=Severity.WARNING, source=source)


# ----------------------------------------------------------------------
# Scenario timelines


def check_events(
    events: Iterable[ScenarioEvent | tuple],
    deployment: CdnDeployment,
    duration: float | None = None,
) -> list[Finding]:
    """Validate a scripted timeline against the deployment.

    Accepts :class:`ScenarioEvent` objects or raw ``(kind, site, at)``
    tuples (what the CLI parses), so malformed input is caught before
    event construction can raise mid-setup.
    """
    findings: list[Finding] = []
    normalized: list[tuple[float, str, str]] = []
    for index, event in enumerate(events):
        if isinstance(event, ScenarioEvent):
            kind, site, at = event.kind, event.site, event.at
        else:
            kind, site, at = event
        source = f"scenario event #{index + 1} ({kind}:{site}@{at:g})"
        if kind not in EVENT_KINDS:
            findings.append(_error(
                "PRE102",
                f"unknown event kind {kind!r}; have {', '.join(EVENT_KINDS)}",
                source,
            ))
            continue
        if site not in deployment.sites:
            findings.append(_error(
                "PRE101",
                f"event references unknown site {site!r}; "
                f"deployment has {deployment.site_names}",
                source,
            ))
            continue
        if at < 0:
            findings.append(_error(
                "PRE103", f"event scheduled at negative time {at:g}s", source
            ))
            continue
        if duration is not None and at > duration:
            findings.append(_warning(
                "PRE104",
                f"event at {at:g}s is after the scenario end ({duration:g}s); "
                "it may never be observed by a probe",
                source,
            ))
        normalized.append((at, kind, site))

    # Timeline consistency: replay the (time-sorted) events through a
    # per-site state machine, the order ScenarioRunner will use.
    # Brownouts are orthogonal to up/drained/failed (a failed site's
    # capacity is moot), so they get their own overlay set.
    state: dict[str, str] = {}
    browned: set[str] = set()
    for at, kind, site in sorted(normalized, key=lambda item: item[0]):
        source = f"scenario event ({kind}:{site}@{at:g})"
        current = state.get(site, "up")
        if kind in ("fail", "fail-silent"):
            if current == "failed":
                findings.append(_warning(
                    "PRE106", f"site {site!r} fails at {at:g}s but is already failed",
                    source,
                ))
            state[site] = "failed"
        elif kind == "recover":
            if current != "failed":
                findings.append(_error(
                    "PRE105",
                    f"recover of site {site!r} at {at:g}s, but no earlier failure "
                    "precedes it (timeline goes backwards)",
                    source,
                ))
            state[site] = "up"
        elif kind == "drain":
            if current == "failed":
                findings.append(_warning(
                    "PRE106", f"draining site {site!r} at {at:g}s while it is failed",
                    source,
                ))
            elif current == "drained":
                findings.append(_warning(
                    "PRE106", f"site {site!r} drained at {at:g}s but already drained",
                    source,
                ))
            else:
                state[site] = "drained"
        elif kind == "undrain":
            if current != "drained":
                findings.append(_error(
                    "PRE105",
                    f"undrain of site {site!r} at {at:g}s, but no earlier drain "
                    "precedes it (timeline goes backwards)",
                    source,
                ))
            state[site] = "up"
        elif kind == "brownout":
            if current == "failed":
                findings.append(_warning(
                    "PRE106",
                    f"brownout of site {site!r} at {at:g}s while it is failed; "
                    "a failed site serves nothing, so the capacity cut is moot",
                    source,
                ))
            elif site in browned:
                findings.append(_warning(
                    "PRE106",
                    f"site {site!r} browned out at {at:g}s but already "
                    "browned out",
                    source,
                ))
            browned.add(site)
        elif kind == "unbrownout":
            if site not in browned:
                findings.append(_error(
                    "PRE105",
                    f"unbrownout of site {site!r} at {at:g}s, but no earlier "
                    "brownout precedes it (timeline goes backwards)",
                    source,
                ))
            browned.discard(site)
    return findings


# ----------------------------------------------------------------------
# Announcement plans


def check_prefix_plan(
    technique: Technique | None,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    superprefix: IPv4Prefix = SUPERPREFIX,
    probe_source: IPv4Address = PROBE_SOURCE,
) -> list[Finding]:
    """Validate the announced-prefix geometry for a technique.

    Catches covering/overlap mistakes statically: a superprefix that does
    not actually cover the specific prefix silently removes the LPM
    fallback that proactive-superprefix and combined depend on, and a
    probe source outside the announced specific prefix makes every reply
    unroutable (the probing would report a 100% outage).
    """
    findings: list[Finding] = []
    source = f"announcement plan ({technique.name if technique else 'common'})"
    uses_superprefix = technique is None or isinstance(
        technique, (ProactiveSuperprefix, Combined)
    )
    if uses_superprefix:
        if prefix == superprefix:
            findings.append(_error(
                "PRE111",
                f"specific prefix {prefix} equals the superprefix; longest-prefix "
                "matching cannot distinguish the intended site from the backup",
                source,
            ))
        elif not (
            superprefix.length < prefix.length
            and superprefix.contains(IPv4Address(prefix.network))
        ):
            findings.append(_error(
                "PRE110",
                f"superprefix {superprefix} does not cover specific prefix "
                f"{prefix}; the covering-prefix fallback can never match",
                source,
            ))
    if not prefix.contains(probe_source):
        findings.append(_error(
            "PRE112",
            f"probe source {probe_source} is outside the announced specific "
            f"prefix {prefix}; probe replies would be unroutable",
            source,
        ))
    return findings


# ----------------------------------------------------------------------
# Topology and deployment structure


def check_topology(topology: Topology) -> list[Finding]:
    """Flag ASes with no links at all (unreachable probe targets).

    Gao-Rexford consistency (an acyclic customer->provider digraph) is
    the verifier's VER201, which the same pre-run gate runs.
    """
    findings: list[Finding] = []
    degree: dict[str, int] = {node: 0 for node in topology.ases}
    for link in topology.links:
        degree[link.a] += 1
        degree[link.b] += 1
    for node, count in sorted(degree.items()):
        if count == 0:
            findings.append(_warning(
                "PRE121",
                f"AS {node!r} has no links and is unreachable from everywhere",
                "topology",
            ))
    return findings


def check_deployment(deployment: CdnDeployment) -> list[Finding]:
    """The CDN grafting itself: every site attached, enough sites."""
    findings: list[Finding] = []
    topology = deployment.topology
    for name in deployment.site_names:
        node = deployment.site_node(name)
        if node not in topology.ases:
            findings.append(_error(
                "PRE122", f"site {name!r} has no router node in the topology",
                f"site {name!r}",
            ))
            continue
        neighbors = topology.neighbors(node)
        if not neighbors:
            findings.append(_error(
                "PRE122",
                f"site {name!r} has no provider or peer links; it can never "
                "announce a route",
                f"site {name!r}",
            ))
        info = topology.ases[node]
        if info.as_class is not AsClass.CDN:
            findings.append(_warning(
                "PRE122",
                f"site {name!r} node is classified {info.as_class.value!r}, "
                "not 'cdn'",
                f"site {name!r}",
            ))
    if len(deployment.sites) < 2:
        findings.append(_error(
            "PRE123",
            f"deployment has {len(deployment.sites)} site(s); failover "
            "experiments need at least two (one to fail, one to absorb)",
            "deployment",
        ))
    return findings


def check_targets(
    topology: Topology, target_nodes: Sequence[str] | None
) -> list[Finding]:
    """Probe targets must exist and originate a client prefix."""
    findings: list[Finding] = []
    if not target_nodes:
        return findings
    for node in target_nodes:
        info = topology.ases.get(node)
        if info is None:
            findings.append(_error(
                "PRE124", f"probe target {node!r} is not in the topology",
                "targets",
            ))
        elif info.prefix is None:
            findings.append(_error(
                "PRE124",
                f"probe target {node!r} has no client prefix; probes to it "
                "cannot be addressed",
                "targets",
            ))
    return findings


# ----------------------------------------------------------------------
# Protocol parameters


def check_timing(
    timing: SessionTiming | None,
    damping: DampingConfig | None = None,
) -> list[Finding]:
    """MRAI / latency / damping parameter sanity."""
    findings: list[Finding] = []
    if timing is not None:
        for attr in ("latency", "jitter", "mrai"):
            value = getattr(timing, attr)
            if value < 0:
                findings.append(_error(
                    "PRE131", f"session timing {attr}={value:g} is negative",
                    "timing",
                ))
        if timing.mrai == 0:
            findings.append(_warning(
                "PRE130",
                "MRAI is 0: update pacing is disabled, so withdrawal "
                "path-hunting will not show the paper's convergence tail",
                "timing",
            ))
        elif timing.mrai > MRAI_SANITY_CEILING_S:
            findings.append(_warning(
                "PRE132",
                f"MRAI {timing.mrai:g}s exceeds the sanity ceiling "
                f"({MRAI_SANITY_CEILING_S:g}s; RFC 4271 suggests 30s)",
                "timing",
            ))
    if damping is not None:
        if damping.suppress_threshold <= damping.penalty_per_flap:
            findings.append(_warning(
                "PRE133",
                "damping suppresses on the first flap "
                f"(penalty_per_flap={damping.penalty_per_flap:g} >= "
                f"suppress_threshold={damping.suppress_threshold:g}); every "
                "withdrawal will look like a damping outage",
                "damping",
            ))
        if damping.max_penalty < damping.suppress_threshold:
            findings.append(_warning(
                "PRE134",
                f"max_penalty {damping.max_penalty:g} is below the suppress "
                f"threshold {damping.suppress_threshold:g}; no route can ever "
                "be suppressed",
                "damping",
            ))
    return findings


def check_run_shape(
    duration: float | None = None, detection_delay: float | None = None
) -> list[Finding]:
    """Scalar run parameters that must be sane before scheduling."""
    findings: list[Finding] = []
    if duration is not None and duration <= 0:
        findings.append(_error(
            "PRE135", f"run duration {duration:g}s is not positive", "run",
        ))
    if detection_delay is not None and detection_delay < 0:
        findings.append(_error(
            "PRE136", f"detection delay {detection_delay:g}s is negative", "run",
        ))
    return findings


# ----------------------------------------------------------------------
# Workload profiles


def check_workload(
    profile: WorkloadProfile | None, duration: float | None = None
) -> list[Finding]:
    """Validate a ``--workload`` profile before streaming from it.

    The profile loader only type-checks; value ranges are validated here
    so a hand-written JSON profile with a negative rate or a degenerate
    Zipf exponent is refused with a stable code instead of raising (or
    silently generating nothing) mid-run.
    """
    findings: list[Finding] = []
    if profile is None:
        return findings
    source = f"workload profile {profile.name!r}"
    if profile.base_rps <= 0:
        findings.append(_error(
            "PRE140",
            f"base_rps {profile.base_rps:g} is not positive; the stream "
            "would never produce a request",
            source,
        ))
    if profile.zipf_s <= 0:
        findings.append(_error(
            "PRE141",
            f"zipf_s {profile.zipf_s:g} must be positive (Zipf popularity "
            "needs a decaying rank weight)",
            source,
        ))
    if profile.content_zipf_s <= 0:
        findings.append(_error(
            "PRE141",
            f"content_zipf_s {profile.content_zipf_s:g} must be positive",
            source,
        ))
    if profile.n_contents < 1:
        findings.append(_error(
            "PRE141",
            f"n_contents {profile.n_contents} must be at least 1",
            source,
        ))
    if profile.tick_s <= 0:
        findings.append(_error(
            "PRE142", f"tick_s {profile.tick_s:g} is not positive", source
        ))
    if profile.think_time_s <= 0:
        findings.append(_error(
            "PRE142",
            f"think_time_s {profile.think_time_s:g} is not positive; "
            "user-minutes-lost would be zero or negative by construction",
            source,
        ))
    for index, shape in enumerate(profile.shapes):
        shape_source = f"{source} shape #{index + 1} ({shape.kind})"
        if shape.kind not in RATE_KINDS:
            findings.append(_error(
                "PRE143",
                f"unknown rate shape kind {shape.kind!r}; "
                f"have {', '.join(RATE_KINDS)}",
                shape_source,
            ))
            continue
        if shape.kind == "constant" and shape.factor <= 0:
            findings.append(_error(
                "PRE140",
                f"constant shape factor {shape.factor:g} is not positive",
                shape_source,
            ))
        elif shape.kind == "diurnal":
            if not 0 <= shape.amplitude < 1:
                findings.append(_error(
                    "PRE144",
                    f"diurnal amplitude {shape.amplitude:g} outside [0, 1); "
                    "the rate would go negative at the trough",
                    shape_source,
                ))
            if shape.period_s <= 0:
                findings.append(_error(
                    "PRE144",
                    f"diurnal period_s {shape.period_s:g} is not positive",
                    shape_source,
                ))
        elif shape.kind == "flash-crowd":
            if shape.peak_multiplier < 1:
                findings.append(_error(
                    "PRE144",
                    f"flash-crowd peak_multiplier {shape.peak_multiplier:g} "
                    "is below 1 (a flash crowd raises load)",
                    shape_source,
                ))
            for attr in ("peak_at_s", "ramp_s", "decay_s"):
                value = getattr(shape, attr)
                if value < 0:
                    findings.append(_error(
                        "PRE144",
                        f"flash-crowd {attr} {value:g} is negative",
                        shape_source,
                    ))
    # Volume advisory only when the profile is otherwise valid: rate()
    # on a malformed profile could raise or be meaningless.
    if not findings and duration is not None and duration > 0:
        expected = profile.expected_requests(duration)
        if expected > WORKLOAD_VOLUME_CEILING:
            findings.append(_warning(
                "PRE145",
                f"profile expects ~{expected:,.0f} requests over "
                f"{duration:g}s (ceiling {WORKLOAD_VOLUME_CEILING:,}); "
                "the stream is O(1) memory but run time is linear in this",
                source,
            ))
    return findings


# ----------------------------------------------------------------------
# Capacity profiles


def check_capacity(
    capacity: CapacityProfile | None,
    deployment: CdnDeployment | None = None,
    workload: WorkloadProfile | None = None,
) -> list[Finding]:
    """Validate a ``--capacity`` profile before any load is offered.

    Like workload profiles, the capacity loader only type-checks; value
    sanity lives here: non-positive rates (PRE150), and a total capacity
    the workload's *baseline* rate already exceeds, which makes every
    technique -- shedding included -- lose requests by construction
    (PRE153). Limits for undeployed sites and a capacity profile without
    a workload are the verifier's VER242 and VER243.
    """
    findings: list[Finding] = []
    if capacity is None:
        return findings
    source = f"capacity profile {capacity.name!r}"
    if capacity.default_rps is not None and capacity.default_rps <= 0:
        findings.append(_error(
            "PRE150",
            f"default_rps {capacity.default_rps:g} is not positive; every "
            "unlisted site would serve nothing",
            source,
        ))
    for site in sorted(capacity.site_rps):
        rps = capacity.site_rps[site]
        if rps <= 0:
            findings.append(_error(
                "PRE150",
                f"site_rps[{site!r}] {rps:g} is not positive; the site "
                "would serve nothing (fail it instead)",
                source,
            ))
    if workload is not None and deployment is not None and not findings:
        limits = [capacity.capacity_for(s) for s in deployment.site_names]
        if all(limit is not None for limit in limits):
            total = sum(limit for limit in limits if limit is not None)
            if total < workload.base_rps:
                findings.append(_warning(
                    "PRE153",
                    f"total deployed capacity {total:g} rps is below the "
                    f"workload's baseline rate {workload.base_rps:g} rps; "
                    "requests are lost to overload no matter how load is "
                    "shed or shifted",
                    source,
                ))
    return findings


# ----------------------------------------------------------------------
# Aggregate entry point


def preflight_run(
    deployment: CdnDeployment,
    technique: Technique | None = None,
    *,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    superprefix: IPv4Prefix = SUPERPREFIX,
    probe_source: IPv4Address = PROBE_SOURCE,
    events: Iterable[ScenarioEvent | tuple] | None = None,
    duration: float | None = None,
    detection_delay: float | None = None,
    timing: SessionTiming | None = None,
    damping: DampingConfig | None = None,
    target_nodes: Sequence[str] | None = None,
    workload: WorkloadProfile | None = None,
    capacity: CapacityProfile | None = None,
) -> FindingCollector:
    """Run every applicable pre-flight check for one experiment.

    Findings are also emitted through the telemetry counters
    (``analysis.preflight.*``) when a backend is installed.
    """
    collector = FindingCollector()
    collector.extend(check_topology(deployment.topology))
    collector.extend(check_deployment(deployment))
    collector.extend(check_prefix_plan(technique, prefix, superprefix, probe_source))
    if events is not None:
        collector.extend(check_events(events, deployment, duration))
    collector.extend(check_timing(timing, damping))
    collector.extend(check_run_shape(duration, detection_delay))
    collector.extend(check_targets(deployment.topology, target_nodes))
    collector.extend(check_workload(workload, duration))
    collector.extend(check_capacity(capacity, deployment, workload))
    emit_findings(collector.findings, layer="preflight")
    return collector
