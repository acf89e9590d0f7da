"""``repro drill`` -- the §4 pre-failure rotation drill."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import (
    add_parallel_arguments,
    add_preflight_arguments,
    add_telemetry_arguments,
    add_workload_arguments,
    cell_timeout,
    resolve_capacity,
    resolve_workload,
    run_gate,
    sweep_progress,
    telemetry_session,
)
from repro.core.drill import RotationDrill
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.faults import load_fault_plan
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "drill", help="rotate a test-prefix failure through every site (§4)"
    )
    parser.add_argument(
        "-t", "--technique", choices=sorted(TECHNIQUES), default="reactive-anycast"
    )
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="recovery deadline per site (sim s)")
    parser.add_argument("--clients", type=int, default=25,
                        help="monitored client ASes")
    parser.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="JSON fault plan (docs/faults.md) injected into every "
             "site's drill, armed at its initial convergence",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="audit forwarding loops, advertised-sync, and RIB/FIB "
             "coherence after each site's drill settles",
    )
    add_workload_arguments(parser)
    add_parallel_arguments(parser)
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
        technique = technique_by_name(args.technique)
        clients = [
            info.node_id for info in deployment.topology.web_client_ases()
        ][: args.clients]
        workload = resolve_workload(args)
        capacity = resolve_capacity(args)
        if not run_gate(
            args, deployment, [technique],
            duration=args.deadline, fault_plan=fault_plan,
            target_nodes=clients, workload=workload, capacity=capacity,
        ):
            return 2
        drill = RotationDrill(
            deployment.topology, deployment, technique,
            deadline_s=args.deadline, seed=args.seed,
            fault_plan=fault_plan, check_invariants=args.check_invariants,
            workload=workload, capacity=capacity,
        )
        try:
            outcomes = drill.run_rotation(
                clients,
                workers=args.workers,
                timeout_s=cell_timeout(args),
                progress=sweep_progress(args, len(deployment.site_names)),
            )
        except RuntimeError as error:
            print(f"drill aborted: {error}")
            return 2
        total_violations = 0
        for outcome in outcomes:
            if outcome.passed:
                status = "PASS"
            elif outcome.stranded:
                status = f"FAIL ({outcome.stranded} stranded)"
            else:
                status = f"FAIL ({len(outcome.violations)} invariant violations)"
            chaos = ""
            if fault_plan is not None:
                chaos = f"  faults {outcome.faults_injected}"
                if outcome.faults_skipped:
                    chaos += f" (+{outcome.faults_skipped} skipped)"
            print(
                f"  {outcome.site:6s} recovered {outcome.recovered:3d}/{len(clients)}"
                f"{chaos}  {status}"
            )
            if outcome.workload is not None:
                from repro.workload import render_account

                print(f"         {render_account(outcome.workload)}")
            total_violations += len(outcome.violations)
            for violation in outcome.violations:
                print(f"         invariant: {violation}")
        if args.check_invariants:
            print(f"invariant violations: {total_violations}")
        print("rotation verdict:", "all sites pass" if drill.all_passed() else "FAILURES")
    return 0 if drill.all_passed() else 1
