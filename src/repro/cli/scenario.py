"""``repro scenario`` -- availability timeline through a scripted episode."""

from __future__ import annotations

import argparse
import logging
import sys

from repro.cli.common import (
    add_preflight_arguments,
    add_telemetry_arguments,
    add_workload_arguments,
    resolve_capacity,
    resolve_workload,
    run_gate,
    telemetry_session,
)
from repro.core.scenarios import ScenarioRunner
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.faults import load_fault_plan
from repro.measurement.catchment import anycast_catchment
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

logger = logging.getLogger(__name__)


def _parse_event(text: str):
    """Parse ``KIND:SITE@TIME`` (e.g. ``fail:sea1@60``)."""
    try:
        kind_site, _, at_text = text.partition("@")
        kind, _, site = kind_site.partition(":")
        return kind, site, float(at_text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad event {text!r}; expected KIND:SITE@TIME (e.g. fail:sea1@60)"
        ) from error


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "scenario", help="replay a failure/recovery timeline and chart availability"
    )
    parser.add_argument(
        "-t", "--technique", choices=sorted(TECHNIQUES), default="reactive-anycast"
    )
    parser.add_argument("-s", "--site", default="sea1", help="intended/specific site")
    parser.add_argument(
        "-e", "--event", action="append", type=_parse_event, default=None,
        metavar="KIND:SITE@TIME",
        help="fail:sea1@60, fail-silent:sea1@60, recover:sea1@200, "
             "drain:sea1@60, undrain:sea1@200, brownout:sea1@60, or "
             "unbrownout:sea1@200 (repeatable; brownouts need --capacity)",
    )
    parser.add_argument("--duration", type=float, default=300.0)
    parser.add_argument("--grace", type=float, default=30.0,
                        help="make-before-break recovery grace (s)")
    parser.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="JSON fault plan (docs/faults.md) armed at the start of "
             "the timeline",
    )
    add_workload_arguments(parser)
    add_preflight_arguments(parser)
    add_telemetry_arguments(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    with telemetry_session(args):
        fault_plan = None
        if args.faults is not None:
            try:
                fault_plan = load_fault_plan(args.faults)
            except (OSError, ValueError) as error:
                print(f"cannot load fault plan: {error}", file=sys.stderr)
                return 2
        deployment = build_deployment(params=TopologyParams(seed=args.seed))
        if args.site not in deployment.sites:
            print(f"unknown site {args.site!r}; have {deployment.site_names}")
            return 2
        events = args.event or [("fail", args.site, args.duration / 4)]
        workload = resolve_workload(args)
        capacity = resolve_capacity(args)
        if not run_gate(
            args, deployment, [technique_by_name(args.technique)],
            duration=args.duration, specific_site=args.site,
            fault_plan=fault_plan, events=events,
            workload=workload, capacity=capacity,
        ):
            return 2
        catchment = anycast_catchment(deployment.topology, deployment, seed=args.seed)
        targets = [n for n, s in catchment.items() if s == args.site][:15]
        if not targets:
            logger.warning(
                "site %r has an empty anycast catchment; using the default target set",
                args.site,
            )
            targets = None

        runner = ScenarioRunner(
            topology=deployment.topology,
            deployment=deployment,
            technique=technique_by_name(args.technique),
            specific_site=args.site,
            duration_s=args.duration,
            bucket_s=10.0,
            target_nodes=targets,
            recovery_grace=args.grace,
            seed=args.seed,
            fault_plan=fault_plan,
            workload=workload,
            capacity=capacity,
        )
        for kind, site, at in events:
            runner.add_event(at, kind, site)

        result = runner.run()
        if fault_plan is not None:
            line = f"faults injected: {result.faults_injected}"
            if result.faults_skipped:
                line += f" ({result.faults_skipped} skipped)"
            print(line)
        availability = result.availability()
        glyphs = " ._-=^#"
        spark = "".join(
            glyphs[min(len(glyphs) - 1, int(v * (len(glyphs) - 1)))] for v in availability
        )
        print("events: " + ", ".join(f"{e.kind} {e.site}@{e.at:.0f}s" for e in result.events))
        print(f"availability |{spark}| (one char per {result.bucket_s:.0f}s)")
        print(f"mean availability: {result.mean_availability():.1%}")
        print(f"downtime (<50% served): {result.downtime_s():.0f}s")
        if result.workload is not None:
            from repro.workload import render_account

            print(render_account(result.workload))
        if capacity is not None and workload is not None:
            if result.capacity_violations:
                print(
                    f"capacity invariant: "
                    f"{len(result.capacity_violations)} violation(s)"
                )
                for line in result.capacity_violations:
                    print(f"  {line}")
            else:
                print("capacity invariant: ok")
    return 0
