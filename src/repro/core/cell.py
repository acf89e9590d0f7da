"""The wiring one run of the protocol shares across runners.

The §5.2 failover experiment, the §4 rotation drill and the scenario
timelines run the same protocol -- deploy, fail a site, probe, measure
-- with different scripts. This module is what their runs share: a
controller with its per-run capacity view, an optional fault plan,
optional client load, and the post-convergence capacity check. Each
runner keeps its own call order (construction order sets event
tie-breaks) and its own workload seed key.
"""

from __future__ import annotations

import zlib

from repro.bgp.damping import DampingConfig
from repro.bgp.network import BgpNetwork
from repro.bgp.session import SessionTiming
from repro.core.controller import CdnController
from repro.core.techniques import Technique
from repro.dataplane.forwarding import ForwardingPlane
from repro.faults import FaultInjector, FaultPlan, Violation, check_site_capacity
from repro.net.addr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, SUPERPREFIX, CdnDeployment
from repro.workload.capacity import CapacityProfile, CapacityState
from repro.workload.engine import WorkloadEngine
from repro.workload.profile import WorkloadProfile

#: probing cadence (§5.2: "every ~1.5s")
PROBE_INTERVAL_S = 1.5
#: simulated time run past a probe window so in-flight events land
DRAIN_SLACK_S = 30.0


def wire_controller(
    network: BgpNetwork,
    deployment: CdnDeployment,
    technique: Technique,
    *,
    capacity: CapacityProfile | None = None,
    prefix: IPv4Prefix = SPECIFIC_PREFIX,
    detection_delay: float = 2.0,
    recovery_grace: float = 0.0,
) -> CdnController:
    """The controller driving ``network``, with a fresh per-run
    :class:`CapacityState` when a ``capacity`` profile is given."""
    state = CapacityState(capacity, deployment.site_names) if capacity is not None else None
    return CdnController(
        network=network, deployment=deployment, technique=technique, prefix=prefix,
        superprefix=SUPERPREFIX, detection_delay=detection_delay,
        recovery_grace=recovery_grace, capacity_state=state,
    )


def deploy_cell(
    topology: Topology,
    deployment: CdnDeployment,
    technique: Technique,
    site: str,
    *,
    seed: int,
    timing: SessionTiming | None,
    damping: DampingConfig | None = None,
    fault_plan: FaultPlan | None = None,
    **controller_args,
) -> tuple[CdnController, FaultInjector | None]:
    """A fresh network with ``site``'s normal announcements converged,
    then ``fault_plan`` armed, so fault times share the epoch of the
    run's own script. Returns the controller (``controller_args`` go to
    :func:`wire_controller`) and the injector (None without faults)."""
    network = topology.build_network(seed=seed, timing=timing, damping=damping)
    controller = wire_controller(network, deployment, technique, **controller_args)
    controller.deploy(site)
    network.converge()
    injector = None
    if fault_plan is not None and len(fault_plan):
        injector = FaultInjector(network, fault_plan, capacity=controller.capacity_state)
        injector.arm()
    return controller, injector


def attach_workload(
    controller: CdnController,
    plane: ForwardingPlane,
    profile: WorkloadProfile,
    *,
    seed: int,
    key: str,
    site: str,
    dead_sites: set[str],
    duration: float,
    clients: list[str] | None = None,
    dst: IPv4Address = PROBE_SOURCE,
) -> WorkloadEngine:
    """Stream ``profile``'s client load for ``duration`` from now.

    The engine's own RNG (seeded by ``seed`` and the run's ``key``,
    never the network's) and its read-only use of FIB state keep it
    from perturbing the run; sharing the prober's ``dead_sites`` makes
    failures and recoveries visible to requests the moment probing sees
    them. With a capacity view on the controller, over-budget requests
    are lost to overload and the controller sheds.
    """
    state = controller.capacity_state
    engine = WorkloadEngine(
        plane, controller.deployment, profile,
        seed=(seed * 1000003) ^ zlib.crc32(f"{key}/workload".encode()),
        clients=clients, technique=controller.technique.name, site=site,
        dead_sites=dead_sites, dst=dst, capacity=state,
        on_overload=controller.site_overloaded if state is not None else None,
    )
    engine.start(duration)
    return engine


def capacity_violations(engine: WorkloadEngine) -> list[Violation]:
    """The post-convergence "no site over capacity" invariant.

    Would the workload's *peak* rate, applied to the current catchment
    of the engine's clients, push any live site over its effective
    capacity? Plain anycast under a regional surge fails this (its
    catchment never moves); a converged shed passes it. Converge the
    network first: the check reads routes as they stand.
    """

    def resolve(client: str) -> str | None:
        resolution = engine.cache.resolve(client)
        if resolution.reason is not None or resolution.site in engine.dead_sites:
            return None
        return resolution.site

    return check_site_capacity(
        engine.deployment, engine.profile, engine.capacity, engine.clients, resolve,
        regions=engine.regions,
    )
